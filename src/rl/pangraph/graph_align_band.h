/**
 * @file
 * The two sweeps behind pangraph::raceAlignmentGrid, and the tables of
 * its skewed band.  Internal to rl/pangraph: raceAlignmentGrid() picks
 * the sweep from the CPU (core::sweepLanes()) and the race's cost
 * range (graphBandExact()); tests and benches call one directly to
 * hold the two against each other.
 *
 * The band is the one skewed band of rl/core/band_lanes.h, raced over
 * the graph positions in sweep order: position 0, then each segment's
 * label in CompiledGraph::segmentOrder (sweep index k,
 * GraphBandTables::order and rank).  A position's predecessors need
 * not be the previous sweep index, so the tables add what the edit
 * grid's chain does without: the chain deletion and chain gate rows,
 * which leave k - 1's in-edges unfired where k - 1 does not precede k,
 * and the far groups, which take every other predecessor from the
 * band's ring of past steps.  The ring's window is a power of two
 * above the longest far-predecessor distance in sweep order, so its
 * size follows the graph's shape, not its length.  The tables are
 * read-independent and built once per compile (CompiledGraph::band).
 * raceAlignmentGrid() takes the band only where its 32-bit lanes are
 * exact -- (|read| + K + 1) x the largest finite weight < 2^30
 * (graphBandExact()) -- and the row sweep elsewhere.
 */

#ifndef RACELOGIC_PANGRAPH_GRAPH_ALIGN_BAND_H
#define RACELOGIC_PANGRAPH_GRAPH_ALIGN_BAND_H

#include <cstddef>
#include <cstdint>

#include "rl/core/band_lanes.h"
#include "rl/pangraph/graph_align_kernel.h"

namespace racelogic::pangraph::detail {

using core::detail::kBandLanes;
using core::detail::kBandPad;
using core::detail::kBandUnfired;

/**
 * True iff the band races `read` against `compiled` under `costs`
 * exactly: core::detail::bandExact() over the |read| + K edges of the
 * product's longest path.
 */
inline bool
graphBandExact(const CompiledGraph &compiled, const bio::Sequence &read,
               const bio::ScoreMatrix &costs)
{
    return core::detail::bandExact(read.size() + compiled.charCount,
                                   costs.maxFinite());
}

/**
 * Build the band's tables for a compiled graph under the race matrix
 * it was compiled with.  compileGraph() calls it where the band runs.
 */
GraphBandTables compileBandTables(const CompiledGraph &compiled,
                                  const bio::ScoreMatrix &race);

/**
 * raceAlignmentGrid()'s two sweeps, with its scratch overload's
 * contract.  raceAlignmentGridRows() runs on every host and is the
 * reference; raceAlignmentGridBand() requires core::sweepLanes() ==
 * kBandLanes, a graph compiled on such a host, and graphBandExact().
 * @{
 */
GraphRaceResult raceAlignmentGridRows(const CompiledGraph &compiled,
                                      const bio::Sequence &read,
                                      const bio::ScoreMatrix &costs,
                                      sim::Tick horizon,
                                      GraphAlignScratch &scratch,
                                      const core::CancelToken *cancel =
                                          nullptr,
                                      core::KernelCounters *counters =
                                          nullptr,
                                      bool arrivals = true);

GraphRaceResult raceAlignmentGridBand(const CompiledGraph &compiled,
                                      const bio::Sequence &read,
                                      const bio::ScoreMatrix &costs,
                                      sim::Tick horizon,
                                      GraphAlignScratch &scratch,
                                      const core::CancelToken *cancel =
                                          nullptr,
                                      core::KernelCounters *counters =
                                          nullptr,
                                      bool arrivals = true);
/** @} */

} // namespace racelogic::pangraph::detail

#endif // RACELOGIC_PANGRAPH_GRAPH_ALIGN_BAND_H
