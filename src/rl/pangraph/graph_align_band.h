/**
 * @file
 * The sweeps behind pangraph::raceAlignmentGrid, and the tables of its
 * skewed band.  Internal to rl/pangraph: raceAlignmentGrid() picks the
 * sweep from the CPU (core::sweepLanes()) and the race's cost range
 * (graphBandExact()); tests and benches call one directly to hold them
 * against each other.
 *
 * The band is the skewed band of rl/core/band_lanes.h, in either lane
 * width, raced over the graph positions in sweep order: position 0,
 * then each segment's label in CompiledGraph::segmentOrder (sweep
 * index k, GraphBandTables::order and rank).  A position's
 * predecessors need not be the previous sweep index, so the tables
 * add what the edit grid's chain does without: the chain deletion and
 * chain gate rows, which leave k - 1's in-edges unfired where k - 1
 * does not precede k, and the far groups, which take every other
 * predecessor from the band's ring of past steps.  The ring's window
 * is a power of two above the longest far-predecessor distance in
 * sweep order, so its size follows the graph's shape, not its length.
 * The tables are read-independent and built once per compile
 * (CompiledGraph::band), for each width the host runs: the narrow
 * band's only where it can race the graph -- an alphabet of at most 7
 * letters, an empty read within its 2^14 bound, and few enough far
 * predecessors that its 16-bit tallies cannot wrap.  raceAlignmentGrid()
 * takes the narrow band where its lanes are exact -- (|read| + K + 1)
 * x the largest finite weight < 2^14 -- else the wide band where its
 * 32-bit lanes are (< 2^30), and the row sweep elsewhere.
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
 * True iff the narrow band can race some read against `compiled` under
 * `race`: the alphabet fits its pair table and an empty read its 2^14
 * bound.
 */
inline bool
graphNarrowRaceable(const CompiledGraph &compiled,
                    const bio::ScoreMatrix &race)
{
    return core::detail::bandAlphabetFits<uint16_t>(race.alphabet().size()) &&
           core::detail::bandExact<uint16_t>(compiled.charCount,
                                             race.maxFinite());
}

/**
 * True iff the band of `Lane`s races `read` against `compiled` under
 * `costs` exactly: the graph was compiled with that band's tables, and
 * core::detail::bandExact() holds over the |read| + K edges of the
 * product's longest path.
 */
template <typename Lane>
bool
graphBandExact(const CompiledGraph &compiled, const bio::Sequence &read,
               const bio::ScoreMatrix &costs)
{
    return !compiled.band.lanes<Lane>().empty() &&
           core::detail::bandExact<Lane>(read.size() + compiled.charCount,
                                         costs.maxFinite());
}

/**
 * Build the band's tables for a compiled graph under the race matrix
 * it was compiled with: the wide band's, and the narrow band's where
 * `lanes` (a host's core::sweepLanes()) runs it and it can race the
 * graph.  compileGraph() calls it where a band runs.
 */
GraphBandTables compileBandTables(const CompiledGraph &compiled,
                                  const bio::ScoreMatrix &race,
                                  unsigned lanes);

/**
 * raceAlignmentGrid()'s sweeps, with its scratch overload's contract.
 * raceAlignmentGridRows() runs on every host and is the reference;
 * raceAlignmentGridBand<Lane>() requires core::detail::hostRunsBand<
 * Lane>() and graphBandExact<Lane>().
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

template <typename Lane>
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
