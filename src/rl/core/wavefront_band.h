/**
 * @file
 * The sweeps behind core::raceEditGrid.  Internal to rl/core:
 * raceEditGrid() races the band on a band host (sweepLanes()) and the
 * row sweep wherever the band gives a race back; tests and benches call
 * one directly to hold them against each other.
 *
 * The band races the edit grid as a chain: the skewed band of
 * rl/core/band_lanes.h over the |b| + 1 columns, with no far
 * predecessors and the chain predecessor -- column j - 1 -- always
 * present.  Its profile is a graph band's substitution rows and
 * deletion row: the column codes b[j-1] (up to 7 letters) or the
 * diagonal weights pair(s, b[j-1]) for each symbol s and the
 * all-unfired row (from 8), then the horizontal gap(b[j-1]) ones, each
 * column-reversed and padded.  The vertical weight gap(a[i-1]) is
 * constant per lane.
 */

#ifndef RACELOGIC_CORE_WAVEFRONT_BAND_H
#define RACELOGIC_CORE_WAVEFRONT_BAND_H

#include <optional>

#include "rl/core/band_lanes.h"
#include "rl/core/wavefront.h"

namespace racelogic::core::detail {

/**
 * raceEditGrid()'s sweeps, with its scratch overload's contract.
 * raceEditGridRows() runs on every host and is the reference.
 * raceEditGridBand() requires hostRunsBand(), and returns nothing --
 * having touched no counter -- where its lanes could not hold the race
 * (bandHolds()).
 * @{
 */
RaceGridResult raceEditGridRows(const bio::Sequence &a,
                                const bio::Sequence &b,
                                const bio::ScoreMatrix &costs,
                                sim::Tick horizon,
                                RaceGridScratch &scratch,
                                const CancelToken *cancel = nullptr,
                                KernelCounters *counters = nullptr,
                                bool arrivals = true);

std::optional<RaceGridResult> raceEditGridBand(
    const bio::Sequence &a, const bio::Sequence &b,
    const bio::ScoreMatrix &costs, sim::Tick horizon,
    RaceGridScratch &scratch, const CancelToken *cancel = nullptr,
    KernelCounters *counters = nullptr, bool arrivals = true);
/** @} */

} // namespace racelogic::core::detail

#endif // RACELOGIC_CORE_WAVEFRONT_BAND_H
