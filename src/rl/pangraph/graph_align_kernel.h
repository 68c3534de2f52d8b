/**
 * @file
 * Fused sequence-to-graph race kernel: race a read against the
 * pangenome without materializing the (read x graph) product DAG.
 *
 * The paper's whole point is that the edit recurrence races as a
 * wavefront whose cost is the work actually done -- yet the
 * materialized path spends more time *building* the product
 * graph::Dag per read than racing it.  This kernel is the graph
 * analogue of core::raceEditGrid(): a dense sweep of the OR race over
 * product states (j, p) -- j read characters consumed, graph
 * character p consumed last -- whose three edge families come on the
 * fly from CompiledGraph's CSR and the cost matrix:
 *
 *  - graph gap (deletion):      (j, p) -> (j, q)    gapWeight[q]
 *  - substitute / match:        (j, p) -> (j+1, q)  pair(read[j], sym(q))
 *  - read gap (insertion):      (j, p) -> (j+1, p)  gap(read[j])
 *
 * for each compiled successor q of p.  With every delay >= 1 each
 * state fires at exactly its min-plus DP value, and read row j
 * depends only on row j - 1 and on its own graph predecessors, so the
 * kernel computes every state as the minimum over its in-edges, read
 * row after read row, each row in the compiled topological position
 * order.  Terminal states (m, p) feed the super-sink OR through
 * zero-weight wires, one event per fired terminal state exactly as
 * core::raceDag counts them.  Two sweeps compute it, bit-identically:
 *
 *  - the row sweep, one state at a time, counting events per settled
 *    state from CompiledGraph::outEdges (see core::SweepTally),
 *    outside the serial min-plus loop.  It runs on every host and is
 *    the reference;
 *  - the skewed band both dense kernels share (rl/core/band_lanes.h):
 *    thirty-two read rows race in the 16-bit lanes of one register on
 *    hosts with AVX-512BW, lane r one position behind lane r-1 in the
 *    sweep order, with the in-edges from predecessors other than the
 *    previous position loaded from a small ring of the band's past
 *    steps.  Its tables are read-independent and built once per
 *    compile (CompiledGraph::band, rl/pangraph/graph_align_band.h); it
 *    tallies events per target state, in lanes.  core::raceEditGrid
 *    races the same step over a chain: its grid is this product for a
 *    one-segment graph.
 *
 * The CPU (core::sweepLanes(), once per process, shared with
 * core::raceEditGrid) picks the sweep: the band on a graph compiled
 * with its tables, the row sweep elsewhere.  A lane counts only up to
 * 2^14, so the band keeps a race whose horizon is below 2^14 or whose
 * arrivals stay clear of it (core::detail::bandHolds()), and hands
 * every other race back to the row sweep.  Nothing else selects it.
 *
 * The outcome is bit-identical -- arrival vector (AlignmentGraph::
 * node() layout, super-sink included), event count, sink score, and
 * Section 6 horizon aborts -- to building the product with
 * buildAlignmentGraph() and racing it on core::raceDag;
 * tests/pangraph_test.cc asserts the equivalence on randomized
 * graphs.  An inhibited race (the `inhibit` argument: race logic's
 * INHIBIT, applied per state at the horizon) is raceDag with per-node
 * inhibit times, and both sweeps then race only the states that can
 * be live.  The materialized path stays as the tested reference and as
 * the gate-level synthesis input.
 *
 * Work is O(states) over two working rows (the band: one row and a
 * history whose length follows the graph's shape) in the reusable
 * GraphAlignScratch (the twin of core::RaceGridScratch), so
 * steady-state read mapping -- one scratch per thread in the api
 * batch body -- allocates nothing per comparison beyond the arrival
 * vector it returns, and nothing at all when raced score-only.
 */

#ifndef RACELOGIC_PANGRAPH_GRAPH_ALIGN_KERNEL_H
#define RACELOGIC_PANGRAPH_GRAPH_ALIGN_KERNEL_H

#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/core/temporal.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/alignment_graph.h"

namespace racelogic::pangraph {

/** Outcome of racing one read against the graph. */
struct GraphRaceResult {
    /** Alignment score in the caller's matrix units (similarity
     *  recovered via Section 5 on converted plans; the raw raced
     *  cost until GraphAligner applies the recovery);
     *  kScoreInfinity when the race aborted at its horizon. */
    bio::Score score = 0;

    /** The raw race outcome: sink arrival cycle (converted cost). */
    bio::Score racedCost = 0;

    /** True iff the sink fired (false under a horizon or cancel). */
    bool completed = true;

    /** True iff a CancelToken stopped the sweep before the sink. */
    bool cancelled = false;

    /** Race duration in cycles (the horizon cycle when aborted). */
    sim::Tick latencyCycles = 0;

    /** Events processed by the wavefront kernel. */
    uint64_t events = 0;

    /** Product-DAG nodes, and how many fired. */
    size_t nodes = 0;
    size_t cellsFired = 0;

    /** Per-node firing times, AlignmentGraph::node() layout; empty
     *  for a score-only race. */
    std::vector<core::TemporalValue> arrival;

    /** Inhibited attempts that missed before this race answered
     *  (GraphAligner::alignUnbounded()); 0 elsewhere. */
    uint32_t inhibitMisses = 0;
};

/**
 * Reusable scratch state for raceAlignmentGrid.  The row sweep uses
 * its two working rows (above, here) and the per-read weight rows
 * hoisted out of it (gapRead, pairRow); the graph band its own
 * buffers.
 */
struct GraphAlignScratch {
    /**
     * Insertion-edge weight into read row j: gap(read[j-1]).  Row 0
     * sweeps against a virtual unfired row above it, so its entry is
     * core::kSweepUnfired.
     */
    std::vector<sim::Tick> gapRead;

    /**
     * Substitution-edge weights into read row j as one flat row per
     * read row, indexed by graph symbol: pairRow[j * |alphabet| + sym]
     * = pair(read[j-1], sym); row 0 all core::kSweepUnfired, as are
     * forbidden pairs (missing edges).
     */
    std::vector<sim::Tick> pairRow;

    /** Working values of read rows j - 1 and j, by graph position. */
    std::vector<sim::Tick> above, here;

    /** The band's buffers; `history` holds its ring of past steps,
     *  from which it loads its far predecessors: window slots of a
     *  step's values, then its `up`s, from the buffer's first 64-byte
     *  boundary, which the buffer's 64 more bytes leave room for
     *  (layout in rl/core/band_lanes.h). */
    core::detail::BandBuffers band;

    /** One read row of arrivals, staged by a band in position order
     *  before it is appended to the arrival vector, so each entry of
     *  the vector is written once. */
    std::vector<core::TemporalValue> arrivalRow;

    /** An inhibited row sweep's limits by position: H - G(p) x
     *  minFinite() (saturating at 0), and the least of that over p
     *  and its successors; and which segments of the rows above and
     *  here hold a live state. */
    std::vector<sim::Tick> limit, outLimit;
    std::vector<uint8_t> liveAbove, liveHere;

    /** Release all retained capacity. */
    void shrinkToFit() { *this = GraphAlignScratch(); }

    /** Heap bytes currently retained across the rows. */
    size_t
    residentBytes() const
    {
        return (gapRead.capacity() + pairRow.capacity() +
                above.capacity() + here.capacity() + limit.capacity() +
                outLimit.capacity()) *
                   sizeof(sim::Tick) +
               band.residentBytes() +
               arrivalRow.capacity() * sizeof(core::TemporalValue) +
               liveAbove.capacity() + liveHere.capacity();
    }
};

/**
 * OR-type race of `read` against a compiled graph under the race-ready
 * cost matrix it was compiled with, swept without materializing the
 * product DAG -- in skewed bands of thirty-two read rows where the CPU
 * has them and the race fits their lanes (see core::sweepLanes()),
 * read row by read row elsewhere, with the same result either way.
 *
 * Semantically identical to racing buildAlignmentGraph(compiled,
 * read, costs) on core::raceDag with the same horizon:
 * same arrival vector, same event count, same sink score.  Section 6
 * horizon aborts behave identically too (completed = false, score
 * kScoreInfinity, latencyCycles = horizon); a bounded sweep stops at
 * the first read row in which no state fired.
 *
 * `costs` must be the matrix `compiled` was bound to (GraphAligner
 * guarantees this); requires Cost kind with all finite weights >= 1
 * (checked at plan time).  GraphRaceResult::score is left at the
 * raced cost -- the aligner applies the Section 5 recovery.
 */
GraphRaceResult raceAlignmentGrid(const CompiledGraph &compiled,
                                  const bio::Sequence &read,
                                  const bio::ScoreMatrix &costs,
                                  sim::Tick horizon = sim::kTickInfinity);

/**
 * Scratch-reuse overload: identical outcome, but the working rows and
 * hoisted weight rows live in (and keep the capacity of) the caller's
 * scratch.
 *
 * `cancel` (nullptr = never) is polled once per read row (a band
 * polls its rows just before sweeping them, so a cancel is seen within
 * one band of 32 read rows); a cancelled race comes back
 * completed = false with cancelled = true, score
 * kScoreInfinity, and latencyCycles the latest arrival scheduled
 * before the sweep stopped -- the same typed-abort shape as a horizon
 * trip.
 *
 * `counters` (nullptr = off) accumulates the kernel's profiling
 * counts -- events, the latest arrival + 1, the working-row size,
 * states fired, cancel/horizon aborts.  It is touched only after the
 * sweep, so the raced result is bit-identical either way.
 *
 * `arrivals = false` races score-only: the arrival vector is neither
 * allocated nor filled (it comes back empty) and every other field is
 * unchanged.
 *
 * `inhibit` races race logic's INHIBIT at the horizon H: state (i, p)
 * neither fires nor sends once its arrival t has t + LB(i, p) > H,
 * LB(i, p) = max(m - i, G(p)) x minFinite() (CompiledGraph::
 * toTerminal), and an arrival into it counts only within H - LB(i, p)
 * (0 where LB exceeds H).  It is core::raceDag on the product with
 * those inhibit times, and each sweep races only the states that can
 * be live.  LB falls by at most minFinite() along an edge, so every
 * state on a path of cost <= H keeps its exact arrival: for H >= the
 * read's distance, the score, racedCost, latencyCycles and completed
 * are the plain race's, and below it the race aborts at H as a plain
 * one would.
 */
GraphRaceResult raceAlignmentGrid(const CompiledGraph &compiled,
                                  const bio::Sequence &read,
                                  const bio::ScoreMatrix &costs,
                                  sim::Tick horizon,
                                  GraphAlignScratch &scratch,
                                  const core::CancelToken *cancel = nullptr,
                                  core::KernelCounters *counters = nullptr,
                                  bool arrivals = true, bool inhibit = false);

} // namespace racelogic::pangraph

#endif // RACELOGIC_PANGRAPH_GRAPH_ALIGN_KERNEL_H
