/**
 * @file
 * The sweeps behind pangraph::raceAlignmentGrid, and the tables of its
 * skewed band.  Internal to rl/pangraph: raceAlignmentGrid() races the
 * band on a graph compiled with its tables and the row sweep wherever
 * the band gives a race back; tests and benches call one directly to
 * hold them against each other.
 *
 * The band is the skewed band of rl/core/band_lanes.h, raced over the
 * graph positions in sweep order: position 0, then each segment's
 * label in CompiledGraph::segmentOrder (sweep index k,
 * GraphBandTables::order and rank).  A position's predecessors need
 * not be the previous sweep index, so the tables add what the edit
 * grid's chain does without: the chain deletion and chain gate rows,
 * which leave k - 1's in-edges unfired where k - 1 does not precede k,
 * and the far groups, which take every other predecessor from the
 * band's ring of past steps.  The ring's window is a power of two
 * above the longest far-predecessor distance in sweep order, so its
 * size follows the graph's shape, not its length.  The tables are
 * read-independent and built once per compile (CompiledGraph::band) on
 * a band host, for any alphabet, read length or join density; the
 * band folds its lanes' tallies into the race's every foldSteps steps,
 * before they could wrap.
 */

#ifndef RACELOGIC_PANGRAPH_GRAPH_ALIGN_BAND_H
#define RACELOGIC_PANGRAPH_GRAPH_ALIGN_BAND_H

#include <cstddef>
#include <cstdint>
#include <optional>

#include "rl/core/band_lanes.h"
#include "rl/pangraph/graph_align_kernel.h"

namespace racelogic::pangraph::detail {

/**
 * Build the band's tables for a compiled graph under the race matrix
 * it was compiled with, foldSteps included.  They come back empty where
 * one band step would race more far groups than a lane's 16-bit tallies
 * can take -- three arrivals and two per far group, within 2^16 -- or
 * where the weight rows of an alphabet the band gathers outgrow its
 * 32-bit indices.  compileGraph() calls it where the band runs.
 */
GraphBandTables compileBandTables(const CompiledGraph &compiled,
                                  const bio::ScoreMatrix &race);

/**
 * raceAlignmentGrid()'s sweeps, with its scratch overload's contract.
 * raceAlignmentGridRows() runs on every host and is the reference.
 * raceAlignmentGridBand() requires core::detail::hostRunsBand() and a
 * graph compiled with the band's tables, and returns nothing -- having
 * touched no counter -- where its lanes could not hold the race
 * (core::detail::bandHolds(), or an inhibit horizon past UINT16_MAX,
 * which its bound row cannot resolve).
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
                                      bool arrivals = true,
                                      bool inhibit = false);

std::optional<GraphRaceResult> raceAlignmentGridBand(
    const CompiledGraph &compiled, const bio::Sequence &read,
    const bio::ScoreMatrix &costs, sim::Tick horizon,
    GraphAlignScratch &scratch, const core::CancelToken *cancel = nullptr,
    core::KernelCounters *counters = nullptr, bool arrivals = true,
    bool inhibit = false);
/** @} */

} // namespace racelogic::pangraph::detail

#endif // RACELOGIC_PANGRAPH_GRAPH_ALIGN_BAND_H
