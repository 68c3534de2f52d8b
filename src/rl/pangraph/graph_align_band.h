/**
 * @file
 * The two sweeps behind pangraph::raceAlignmentGrid, the tables of the
 * skewed graph band, and its AVX-512F step.  Internal to rl/pangraph:
 * raceAlignmentGrid() picks the sweep from the CPU
 * (core::sweepLanes()) and the race's cost range (graphBandExact());
 * tests and benches call one directly to hold the two against each
 * other.
 *
 * The band races read rows i0 .. i0+15 in the sixteen 32-bit lanes
 * of one register, over the graph positions taken in sweep order:
 * position 0, then each segment's label in CompiledGraph::segmentOrder
 * (sweep index k, GraphBandTables::order and rank).  At step t, lane r
 * fires state (i0 + r, order[t - r]).  A position's in-edges are those
 * of an edit-grid cell, except that its predecessors need not be the
 * previous sweep index:
 *
 *  - `up`, the insertion from (i0 + r - 1, k), is the previous step's
 *    value of lane r - 1 -- and, for lane 0, the stored row above the
 *    band, indexed by sweep index;
 *  - the chain predecessor k - 1, where it precedes k (inside a
 *    segment, and at some segment joins): `left` is the lane's own
 *    previous value and `diag` the previous step's `up`, both
 *    unfired where k - 1 does not precede k (the chain deletion
 *    weight and the chain gate);
 *  - every other ("far") predecessor k' -- segment joins, links out of
 *    position 0 -- was fired by lane r at step t - d, d = k - k' its
 *    sweep distance: its value and its `up` come from a small history
 *    of the band's past steps.
 *
 * The history is a ring of `window` steps, a power of two above the
 * longest far-predecessor distance in sweep order, so its size
 * follows the graph's shape, not its length.  Each step stores its
 * values and its `up`s as they are, two 64-byte-aligned vectors in
 * the ring's slot t mod window.  Every lane whose far predecessor lies
 * d steps back finds it in its own lane of step t - d's slot, so one
 * plain load per vector serves all of them.  The load hands the other
 * lanes states that are not their predecessors, so the lanes take it
 * under a mask: a step races one group per distance among its lanes'
 * far predecessors, each a ring slot and a lane mask.  The groups are
 * read-independent, so they are precomputed per step
 * (GraphBandTables::far).
 *
 * Weights come as in the edit-grid band (rl/core/wavefront_band.h):
 * the deletion weights and gates by one unaligned load of a
 * column-reversed, padded row, the substitution weights -- one symbol
 * row per lane -- by one 32-bit gather whose per-lane indices fall by
 * one each step.  Lanes before position 0, past position K or past the
 * band's last read row read unfired padding and the all-unfired symbol
 * row, are in no far group, and stay unfired.  A lane holds the row
 * sweep's working value at 32 bits, clamped to kBandUnfired = 2^30;
 * raceAlignmentGrid() takes the band only where that is exact --
 * (|read| + K + 1) x the largest finite weight < 2^30
 * (graphBandExact()) -- and the row sweep elsewhere, so each lane does
 * the row sweep's exact arithmetic.
 *
 * Events are tallied per target state, in lanes: each in-edge arrival
 * the step has formed (up, chain left and diag, and each group's far
 * left and diag in its lanes) is counted when it is within the limit
 * and folded into the latest arrival -- the same edges the row sweep
 * counts per source, so a cancelled race counts the arrivals into the
 * rows it swept.
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

/** 32-bit ticks of history one band step keeps: its values, then its
 *  `up`s. */
constexpr size_t kHistoryStride = 2 * kBandLanes;

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

/** One band, as sweepGraphBand() reads it. */
struct GraphBand {
    /** The row above the band by sweep index, positions 0..K, with
     *  kBandPad unfired ticks on each side.  On return it holds the
     *  band's last row. */
    uint32_t *above = nullptr;

    /** Base of GraphBandTables::weights; `gather` indexes into it. */
    const uint32_t *weights = nullptr;

    /** The deletion, chain deletion and chain gate rows, each at the
     *  offset of sweep index 0 (kBandPad + K). */
    const uint32_t *deletion = nullptr;
    const uint32_t *chainDeletion = nullptr;
    const uint32_t *chainGate = nullptr;

    /** GraphBandTables::farBegin and far. */
    const uint32_t *farBegin = nullptr;
    const GraphBandTables::FarGroup *far = nullptr;

    /** The ring: window x kHistoryStride ticks, 64-byte aligned. */
    uint32_t *history = nullptr;
    size_t window = 0;

    /** Per lane, the weight index of its substitution weight at step
     *  0: symbol row * stride + kBandPad + K + lane. */
    uint32_t gather[kBandLanes] = {};

    /** Per lane, the insertion weight gap(read[i - 1]) (unfired past
     *  the band). */
    uint32_t down[kBandLanes] = {};

    size_t positions = 0; ///< K + 1
    size_t lanes = 0;     ///< read rows in this band, 1..kBandLanes

    /** nullptr: score-only.  Otherwise the band's values, step by
     *  step: lane r at step t in skew[t * kBandLanes + r]. */
    uint32_t *skew = nullptr;
};

/**
 * Race one band: every step from lane 0's position 0 to the last
 * lane's position K.  Adds the band's arrivals within tally.limit
 * (below kBandUnfired) to tally.events and tally.latest, and stores
 * each lane's fired-state count in fired[lane].  Requires
 * core::sweepLanes() == kBandLanes.
 */
void sweepGraphBand(const GraphBand &band, core::SweepTally &tally,
                    uint32_t fired[kBandLanes]);

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
