/**
 * @file
 * Wavefront race kernels: a bucketed one for any DAG and a dense
 * sweep for the edit grid.
 *
 * The paper's OR-type race *is* a shortest-path wavefront sweeping the
 * edit graph one clock cycle at a time; the generic discrete-event
 * simulator (sim::EventQueue) models that with a binary heap of
 * std::function closures -- one heap allocation plus O(log E) ordering
 * work per edge arrival.  Two cheaper kernels are provided:
 *
 *  - WavefrontRaceKernel: races any graph::Dag via its packed CSR
 *    view.  Race Logic delays are small bounded integers, so a
 *    calendar of W+1 circular buckets (Dial's algorithm, W = the
 *    largest edge weight) schedules each arrival in O(1): an arrival
 *    at tick t+w goes into bucket (t+w) mod (W+1), and the simulation
 *    drains bucket t, t+1, t+2, ... -- exactly the clock the hardware
 *    would tick.  Supports Or (first-arrival, min) and And
 *    (last-arrival via in-degree countdown, max) races, and an
 *    early-termination horizon: arrivals past the horizon are never
 *    scheduled, which is the Section 6 abort counter.
 *
 *  - raceEditGrid(): the OR race of the (|a|+1) x (|b|+1) edit graph
 *    of two sequences, without materializing it.  With every delay
 *    >= 1, each cell fires at exactly its min-plus DP value (the
 *    paper's Fig. 4c arrival table), and each row depends only on the
 *    row above and on its own left neighbour -- so one in-order row
 *    sweep of the recurrence computes the arrival table directly,
 *    with no event scheduling at all.  The events the calendar would
 *    drain are counted per settled cell in a pass over each finished
 *    row (SweepTally), off the recurrence's serial chain.
 *
 * The event-driven reference (rl/core/race_network.h
 * raceDagEventDriven), the bucketed kernel and the sweep agree on
 * firing times *and* event counts; the equivalence suite in
 * tests/core_wavefront_test.cc checks them against each other and
 * against the DP oracle.
 */

#ifndef RACELOGIC_CORE_WAVEFRONT_H
#define RACELOGIC_CORE_WAVEFRONT_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_network.h"
#include "rl/graph/dag.h"

namespace racelogic::core {

/**
 * Largest delay a race may carry.  The bucket calendar needs
 * maxWeight+1 buckets (and a gate-level fabric a maxWeight-deep DFF
 * chain), so WavefrontRaceKernel asserts every edge weight is at most
 * this, and api::RaceEngine::validate() rejects any problem raising
 * one above it -- matrix and affine gap weights, DTW sample spreads,
 * DAG edge weights -- with a typed InvalidArgument.  Every workload
 * in the paper sits far below it.
 */
constexpr graph::Weight kMaxWavefrontWeight = 1 << 16;

/**
 * Calendar-queue race kernel over a DAG's packed CSR view.
 *
 * Construction snapshots the adjacency (O(V + E)); race() is const
 * and allocates only its own per-race state, so one kernel can race
 * many source sets -- including concurrently from several threads.
 *
 * The caller is responsible for acyclicity and non-negative weights
 * (raceDag() checks both before constructing a kernel); the
 * constructor asserts the kMaxWavefrontWeight cap.
 */
class WavefrontRaceKernel
{
  public:
    explicit WavefrontRaceKernel(const graph::Dag &dag);

    /**
     * Race from `sources` (all injected at tick 0).
     *
     * @param horizon  Arrivals later than this tick are never
     *                 scheduled (Section 6 early termination); the
     *                 default races to full drain.
     */
    RaceOutcome race(const std::vector<graph::NodeId> &sources,
                     RaceType type,
                     sim::Tick horizon = sim::kTickInfinity) const;

    size_t nodeCount() const { return inDegree.size(); }
    size_t edgeCount() const { return csr.edgeCount(); }

  private:
    graph::CsrOutEdges csr;
    std::vector<uint32_t> inDegree;
    graph::Weight maxWeight = 0;
};

/**
 * Working value of a cell that has not fired, in the dense sweeps of
 * raceEditGrid() and pangraph::raceAlignmentGrid(); forbidden pairs
 * (kScoreInfinity, a missing edge) are hoisted to it as well.  Every
 * working value and every hoisted weight is at most 2^62, so adding a
 * weight to any cell -- fired or not -- stays below 2^63 and cannot
 * overflow.
 */
constexpr sim::Tick kSweepUnfired = sim::Tick(1) << 62;

/** A weight hoisted for a dense sweep: forbidden becomes unfired. */
inline sim::Tick
sweepWeight(bio::Score weight)
{
    return weight == bio::kScoreInfinity ? kSweepUnfired
                                         : static_cast<sim::Tick>(weight);
}

/**
 * The finite out-edges of one swept state, hoisted out of a dense
 * sweep so its event count costs O(1) per state: the largest weight
 * and how many there are.
 */
struct SweepOutEdges {
    sim::Tick maxOut = 0; ///< largest finite out-edge weight (0: none)
    uint32_t degree = 0;  ///< finite out-edges

    /** Add an out-edge of hoisted weight `w`; a missing one is skipped. */
    void
    add(sim::Tick w)
    {
        if (w < kSweepUnfired) {
            ++degree;
            maxOut = std::max(maxOut, w);
        }
    }
};

/**
 * The arrivals a dense sweep schedules.  An edge out of a fired state
 * whose arrival is within the horizon is one event -- the arrival the
 * calendar kernel (WavefrontRaceKernel) would schedule and drain on
 * the materialized graph -- whether or not it is the first to reach
 * its target.
 *
 * The sweeps count per settled source, in a pass over each finished
 * row, so the serial min-plus loop carries no bookkeeping.  A source
 * whose farthest out-edge lands within the horizon counts all of them
 * at once; only sources within that distance of the horizon walk their
 * edges one by one.  Edges into the next row count only once that row
 * is certain to be swept (after its cancel poll), so a cancelled race
 * counts exactly the arrivals into the rows it swept.
 */
struct SweepTally {
    explicit SweepTally(sim::Tick horizon)
        : limit(std::min(horizon, kSweepUnfired - 1))
    {}

    /** True iff a state settled at working value `v` fired. */
    bool fired(sim::Tick v) const { return v <= limit; }

    /**
     * Count the out-edges `out` of a source settled at `v`.  Returns
     * false iff only some of them land within the horizon: the caller
     * then walks them through arrive().
     */
    bool
    settle(sim::Tick v, const SweepOutEdges &out)
    {
        const sim::Tick farthest = v + out.maxOut;
        if (farthest <= limit) {
            events += out.degree;
            latest = std::max(latest, farthest);
            return true;
        }
        return v > limit; // an unfired source schedules nothing
    }

    /** Count one out-edge arrival at `t` if it is within the horizon. */
    void
    arrive(sim::Tick t)
    {
        if (t <= limit) {
            ++events;
            latest = std::max(latest, t);
        }
    }

    const sim::Tick limit; ///< min(horizon, kSweepUnfired - 1)
    uint64_t events = 0;   ///< arrivals scheduled so far
    sim::Tick latest = 0;  ///< latest arrival scheduled so far
};

/**
 * Reusable scratch state for raceEditGrid: the sweep's working row
 * plus the weights hoisted out of it.
 */
struct RaceGridScratch {
    /** Vertical (gap) weight into row i: gap(a[i-1]); row 0 unfired. */
    std::vector<sim::Tick> gapA;

    /** The weights of the two in-edges of a cell that come from the
     *  left: the diagonal and the horizontal. */
    struct ColumnWeights {
        sim::Tick diagonal;   ///< pair(s, b[j])
        sim::Tick horizontal; ///< gap(b[j])
    };

    /**
     * In-edge weights into column j + 1, one row of |b| per symbol s
     * of the alphabet consumed by the row: columns[s * |b| + j].  A
     * last row with unfired diagonals serves row 0, whose diagonal
     * in-edges do not exist.  One array, so the sweep streams one
     * pointer per row.
     */
    std::vector<ColumnWeights> columns;

    /**
     * Out-edges of cell (i, j), one row of |b| + 1 per symbol s that
     * the next row consumes: outEdges[s * (|b| + 1) + j].  The last
     * row of the profile holds the in-row (horizontal) edges alone,
     * for the grid's last row and for a row whose successor a cancel
     * left unswept.
     */
    std::vector<SweepOutEdges> outEdges;

    /** The working row: the row being swept, over the row above. */
    std::vector<sim::Tick> row;

    /** Release all retained capacity. */
    void
    shrinkToFit()
    {
        for (std::vector<sim::Tick> *v : {&gapA, &row}) {
            v->clear();
            v->shrink_to_fit();
        }
        columns.clear();
        columns.shrink_to_fit();
        outEdges.clear();
        outEdges.shrink_to_fit();
    }

    /** Heap bytes currently retained across the rows. */
    size_t
    residentBytes() const
    {
        return (gapA.capacity() + row.capacity()) * sizeof(sim::Tick) +
               columns.capacity() * sizeof(ColumnWeights) +
               outEdges.capacity() * sizeof(SweepOutEdges);
    }
};

/**
 * OR-type race of the edit graph of (a, b) under a race-ready cost
 * matrix, swept row by row without materializing the graph.
 *
 * Semantically identical to racing makeEditGraph(a, b, costs) with
 * raceDag(..., RaceType::Or, horizon): same arrival grid (filled for
 * every cell firing at or before `horizon`), same event count, same
 * sink score.  `completed` is false iff the sink had not fired by the
 * horizon, in which case score is bio::kScoreInfinity and
 * latencyCycles is the horizon (the cycle the abort counter tripped).
 * A bounded sweep stops at the first row in which no cell fired: no
 * later cell can fire either.
 *
 * fatal() on alphabet mismatch; requires a Cost-kind matrix with all
 * finite weights >= 1 (checked by RaceGridAligner's constructor).
 */
RaceGridResult raceEditGrid(const bio::Sequence &a,
                            const bio::Sequence &b,
                            const bio::ScoreMatrix &costs,
                            sim::Tick horizon = sim::kTickInfinity);

/**
 * Scratch-reuse overload: identical outcome, but the working row and
 * hoisted weights live in (and keep the capacity of) the caller's
 * scratch.
 *
 * `cancel` (nullptr = never) is polled once per row; a cancelled race
 * comes back completed = false with cancelled = true, score
 * kScoreInfinity, and latencyCycles the latest arrival scheduled
 * before the sweep stopped -- the same typed-abort shape as a horizon
 * trip, so callers built around Section 6 aborts handle it unchanged.
 *
 * `counters` (nullptr = off) accumulates per-race profiling counts
 * the sweep tracks anyway -- events, the latest arrival + 1, the
 * working-row size, cells fired, cancel/horizon aborts.  It is touched
 * only after the sweep, so the raced result is bit-identical either
 * way.
 *
 * `arrivals = false` races score-only, as the hardware reports: the
 * arrival grid is neither allocated nor filled (it comes back empty)
 * and every other field is unchanged.
 */
RaceGridResult raceEditGrid(const bio::Sequence &a,
                            const bio::Sequence &b,
                            const bio::ScoreMatrix &costs,
                            sim::Tick horizon,
                            RaceGridScratch &scratch,
                            const CancelToken *cancel = nullptr,
                            KernelCounters *counters = nullptr,
                            bool arrivals = true);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_WAVEFRONT_H
