/**
 * @file
 * The sweeps behind core::raceEditGrid.  Internal to rl/core:
 * raceEditGrid() picks the sweep from the CPU (sweepLanes()) and the
 * race's cost range (editGridBandExact()); tests and benches call one
 * directly to hold them against each other.
 *
 * The bands race the edit grid as a chain: the skewed band of
 * rl/core/band_lanes.h, in either lane width, over the |b| + 1
 * columns, with no far predecessors and the chain predecessor --
 * column j - 1 -- always present.  Its profile is a graph band's
 * substitution rows and deletion row: the wide band's diagonal
 * weights pair(s, b[j-1]) for each symbol s and the all-unfired row,
 * or the narrow band's column codes b[j-1]; then the horizontal
 * gap(b[j-1]) ones, each column-reversed and padded.  The vertical
 * weight gap(a[i-1]) is constant per lane.  raceEditGrid() takes the
 * narrow band where its 16-bit lanes are exact -- (|a| + |b| + 1) x
 * costs.maxFinite() < 2^14 over at most 7 letters -- else the wide
 * band where its 32-bit lanes are (< 2^30), and the row sweep
 * elsewhere.
 */

#ifndef RACELOGIC_CORE_WAVEFRONT_BAND_H
#define RACELOGIC_CORE_WAVEFRONT_BAND_H

#include "rl/core/band_lanes.h"
#include "rl/core/wavefront.h"

namespace racelogic::core::detail {

/**
 * True iff the band of `Lane`s races (a, b) under `costs` exactly: its
 * alphabet fits the band and bandExact() holds over the |a| + |b|
 * edges of the grid's longest path.
 */
template <typename Lane>
bool
editGridBandExact(const bio::Sequence &a, const bio::Sequence &b,
                  const bio::ScoreMatrix &costs)
{
    return bandAlphabetFits<Lane>(costs.alphabet().size()) &&
           bandExact<Lane>(a.size() + b.size(), costs.maxFinite());
}

/**
 * raceEditGrid()'s sweeps, with its scratch overload's contract.
 * raceEditGridRows() runs on every host and is the reference;
 * raceEditGridBand<Lane>() requires hostRunsBand<Lane>() and
 * editGridBandExact<Lane>().
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

template <typename Lane>
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
