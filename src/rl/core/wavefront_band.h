/**
 * @file
 * The two sweeps behind core::raceEditGrid.  Internal to rl/core:
 * raceEditGrid() picks the sweep from the CPU (sweepLanes()) and the
 * race's cost range (editGridBandExact()); tests and benches call one
 * directly to hold the two against each other.
 *
 * The band races the edit grid as a chain: the one skewed band of
 * rl/core/band_lanes.h, over the |b| + 1 columns, with no far
 * predecessors and the chain predecessor -- column j - 1 -- always
 * present.  Its profile is a graph band's first |alphabet| + 2 weight
 * rows: each symbol's diagonal weights pair(s, b[j-1]), the
 * all-unfired row, then the horizontal gap(b[j-1]) ones, each
 * column-reversed and padded.  The vertical weight gap(a[i-1]) is
 * constant per lane.  raceEditGrid() takes the band only where its
 * 32-bit lanes are exact -- (|a| + |b| + 1) x costs.maxFinite() <
 * 2^30 (editGridBandExact()) -- and the row sweep elsewhere.
 */

#ifndef RACELOGIC_CORE_WAVEFRONT_BAND_H
#define RACELOGIC_CORE_WAVEFRONT_BAND_H

#include "rl/core/band_lanes.h"
#include "rl/core/wavefront.h"

namespace racelogic::core::detail {

/**
 * True iff the band races (a, b) under `costs` exactly: bandExact()
 * over the |a| + |b| edges of the grid's longest path.
 */
inline bool
editGridBandExact(const bio::Sequence &a, const bio::Sequence &b,
                  const bio::ScoreMatrix &costs)
{
    return bandExact(a.size() + b.size(), costs.maxFinite());
}

/**
 * raceEditGrid()'s two sweeps, with its scratch overload's contract.
 * raceEditGridRows() runs on every host and is the reference;
 * raceEditGridBand() requires sweepLanes() == kBandLanes and
 * editGridBandExact().
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

RaceGridResult raceEditGridBand(const bio::Sequence &a,
                                const bio::Sequence &b,
                                const bio::ScoreMatrix &costs,
                                sim::Tick horizon,
                                RaceGridScratch &scratch,
                                const CancelToken *cancel = nullptr,
                                KernelCounters *counters = nullptr,
                                bool arrivals = true);
/** @} */

} // namespace racelogic::core::detail

#endif // RACELOGIC_CORE_WAVEFRONT_BAND_H
