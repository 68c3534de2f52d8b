/**
 * @file
 * The two sweeps behind pangraph::raceAlignmentGrid, the tables of the
 * skewed graph band, and its AVX-512F step.  Internal to rl/pangraph:
 * raceAlignmentGrid() picks the sweep from the CPU
 * (core::sweepLanes()); tests and benches call one directly to hold
 * the two against each other.
 *
 * The band races read rows i0 .. i0+7 in the eight 64-bit lanes of one
 * register, over the graph positions taken in sweep order: position 0,
 * then each segment's label in CompiledGraph::segmentOrder (sweep
 * index k, GraphBandTables::order and rank).  At step t, lane r fires
 * state (i0 + r, order[t - r]).  A position's in-edges are those of an
 * edit-grid cell, except that its predecessors need not be the
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
 *    position 0 -- was fired by lane r at step k' + r: its value and
 *    its `up` come from a small history of the band's past steps by
 *    two gathers that share one index vector.
 *
 * The history is a ring of `window` steps, a power of two above the
 * longest far-predecessor distance in sweep order, so its size
 * follows the graph's shape, not its length; each step stores its
 * value and `up` vectors (16 ticks).  A ring slot past the last,
 * never written and so always unfired, is the sentinel a lane reads
 * when its position has fewer far predecessors than the step's
 * largest.  The history indices are read-independent, so they are
 * precomputed per step and lane (GraphBandTables::far).
 *
 * Weights come as in the edit-grid band (rl/core/wavefront_band.h):
 * the deletion weights and gates by one unaligned load of a
 * column-reversed, padded row, the substitution weights -- one symbol
 * row per lane -- by one 64-bit gather whose per-lane indices fall by
 * one each step.  Lanes before position 0, past position K or past the
 * band's last read row read unfired padding, the sentinel and the
 * all-unfired symbol row, and stay unfired.  Every value is the row
 * sweep's own working value (clamped to kSweepUnfired = 2^62), so each
 * lane does the row sweep's exact arithmetic.
 *
 * Events are tallied per target state, in lanes: each in-edge arrival
 * the step has formed (up, chain left and diag, every far left and
 * diag) is counted when it is within the limit and folded into the
 * latest arrival -- the same edges the row sweep counts per source, so
 * a cancelled race counts the arrivals into the rows it swept.
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

/** Ticks of history one band step keeps: its values, then its `up`s. */
constexpr size_t kHistoryStride = 2 * kBandLanes;

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
    sim::Tick *above = nullptr;

    /** Base of GraphBandTables::weights; `gather` indexes into it. */
    const sim::Tick *weights = nullptr;

    /** The deletion, chain deletion and chain gate rows, each at the
     *  offset of sweep index 0 (kBandPad + K). */
    const sim::Tick *deletion = nullptr;
    const sim::Tick *chainDeletion = nullptr;
    const sim::Tick *chainGate = nullptr;

    /** GraphBandTables::farBegin and far. */
    const size_t *farBegin = nullptr;
    const uint64_t *far = nullptr;

    /** The ring: (window + 1) x kHistoryStride ticks, the last slot
     *  unfired. */
    sim::Tick *history = nullptr;
    size_t window = 0;

    /** Per lane, the weight index of its substitution weight at step
     *  0: symbol row * stride + kBandPad + K + lane. */
    uint64_t gather[kBandLanes] = {};

    /** Per lane, the insertion weight gap(read[i - 1]) (unfired past
     *  the band). */
    sim::Tick down[kBandLanes] = {};

    size_t positions = 0; ///< K + 1
    size_t lanes = 0;     ///< read rows in this band, 1..kBandLanes

    /** nullptr: score-only.  Otherwise the band's values, step by
     *  step: lane r at step t in skew[t * kBandLanes + r]. */
    sim::Tick *skew = nullptr;
};

/**
 * Race one band: every step from lane 0's position 0 to the last
 * lane's position K.  Adds the band's arrivals within tally.limit to
 * tally.events and tally.latest, and stores each lane's fired-state
 * count in fired[lane].  Requires core::sweepLanes() == kBandLanes.
 */
void sweepGraphBand(const GraphBand &band, core::SweepTally &tally,
                    uint64_t fired[kBandLanes]);

/**
 * raceAlignmentGrid()'s two sweeps, with its scratch overload's
 * contract.  raceAlignmentGridRows() runs on every host and is the
 * reference; raceAlignmentGridBand() requires core::sweepLanes() ==
 * kBandLanes, and a graph compiled on such a host.
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
