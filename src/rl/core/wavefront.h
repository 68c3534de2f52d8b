/**
 * @file
 * The dense sweep of the edit grid's race.
 *
 * The paper's OR-type race *is* a shortest-path wavefront sweeping the
 * edit graph one clock cycle at a time.  raceEditGrid() races the
 * (|a|+1) x (|b|+1) edit graph of two sequences without materializing
 * it and without scheduling a single event.  With every delay >= 1,
 * each cell fires at exactly its min-plus DP value (the paper's
 * Fig. 4c arrival table), and each row depends only on the row above
 * and on its own left neighbour -- so a sweep of the recurrence
 * computes the arrival table directly.  Two sweeps compute it,
 * bit-identically:
 *
 *  - the row sweep, one cell at a time, counting the events raceDag()
 *    would count per settled cell in a pass over each finished row
 *    (SweepTally), off the recurrence's serial chain.  It runs on
 *    every host and is the reference;
 *  - the skewed band: thirty-two rows race in the 16-bit lanes of one
 *    register, lane r one column behind lane r-1, like a short linear
 *    systolic array riding the paper's diagonal wavefront, on hosts
 *    with AVX-512BW.  Each step fires one cell of every row in the
 *    band and tallies the arrivals into them in lanes.  It is
 *    pangraph::raceAlignmentGrid's band, raced over the chain of
 *    columns (rl/core/band_lanes.h, rl/core/wavefront_band.h).
 *
 * The CPU (sweepLanes(), once per process) picks the sweep: the band
 * on a band host, the row sweep elsewhere.  A lane counts only up to
 * 2^14, so the band keeps a race whose horizon is below 2^14 or whose
 * arrivals stay clear of it (core::detail::bandHolds()), and hands
 * every other race back to the row sweep.  Nothing else selects it.
 *
 * tests/core_wavefront_test.cc checks both sweeps against raceDag() on
 * the materialized edit graph, arrival grids and event counts
 * included; raceDag() against the closed form of the DAG DP
 * (graph::solveDag); and the band against the row sweep field for
 * field and counter for counter.
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
 * Largest delay a race may carry.  A gate-level fabric realizes a
 * weight-w edge as a w-deep DFF chain (compileRaceCircuit(), the
 * one-hot cells of core::GridFabric), so the cap bounds the chain
 * depth.  api::RaceEngine::validate() rejects any problem raising a
 * delay above it -- matrix and affine gap weights, DTW sample spreads,
 * DAG edge weights -- with a typed InvalidArgument, which makes
 * [0, kMaxWavefrontWeight] the race-ready range, and raceDag() asserts
 * it.  Every workload in the paper sits far below it.
 */
constexpr graph::Weight kMaxWavefrontWeight = 1 << 16;

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
 * whose arrival is within the horizon is one event -- the arrival
 * raceDag() counts on the materialized graph -- whether or not it is
 * the first to reach its target.
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
        return settle(v, out, limit);
    }

    /** settle() with every out-edge held to `within`, the least of its
     *  targets' own limits (at most `limit`): an inhibited race's. */
    bool
    settle(sim::Tick v, const SweepOutEdges &out, sim::Tick within)
    {
        const sim::Tick farthest = v + out.maxOut;
        if (farthest <= within) {
            events += out.degree;
            latest = std::max(latest, farthest);
            return true;
        }
        return v > limit; // an unfired source schedules nothing
    }

    /** Count one out-edge arrival at `t` if it is within the horizon. */
    void arrive(sim::Tick t) { arrive(t, limit); }

    /** Count one arrival at `t` if it is within `within`, a target's
     *  own limit (at most `limit`): an inhibited race's. */
    void
    arrive(sim::Tick t, sim::Tick within)
    {
        if (t <= within) {
            ++events;
            latest = std::max(latest, t);
        }
    }

    const sim::Tick limit; ///< min(horizon, kSweepUnfired - 1)
    uint64_t events = 0;   ///< arrivals scheduled so far
    sim::Tick latest = 0;  ///< latest arrival scheduled so far
};

namespace detail {

/**
 * Close a stopped dense sweep of either kernel, row sweep or band:
 * its events, the KernelCounters export and the verdict.  The sink
 * fired at `sink` (kTickInfinity: it did not); else a cancel stopped
 * the sweep first -- the same typed-abort shape as a horizon trip,
 * stamped with the latest arrival scheduled; else the horizon did.
 * `width` is the sweep's working-row size.  Everything exported was
 * tracked by the sweep anyway (or is a container size), so a null
 * `counters` costs nothing and a non-null one cannot change the
 * result.
 */
template <typename Result>
void
finishSweep(Result &result, const SweepTally &tally, sim::Tick sink,
            bool cancelled, sim::Tick horizon, size_t width,
            KernelCounters *counters)
{
    result.events = tally.events;
    if (counters) {
        counters->events += result.events;
        counters->bucketsDrained += tally.latest + 1;
        counters->scratchHighWater = std::max(
            counters->scratchHighWater, static_cast<uint64_t>(width));
        counters->lanesOccupied += result.cellsFired;
    }

    result.completed = sink != sim::kTickInfinity;
    if (result.completed) {
        result.score = static_cast<bio::Score>(sink);
        result.latencyCycles = sink;
        return;
    }
    result.score = bio::kScoreInfinity;
    if (cancelled) {
        result.cancelled = true;
        result.latencyCycles = tally.latest;
        if (counters)
            ++counters->cancels;
    } else {
        rl_assert(horizon != sim::kTickInfinity,
                  "sink never fired; gap weights should guarantee a path");
        result.latencyCycles = horizon;
        if (counters)
            ++counters->horizonAborts;
    }
}

} // namespace detail

namespace detail {

/**
 * The skewed band's working buffers, in its 16-bit lanes
 * (rl/core/band_lanes.h): the row above its next band, padded with
 * unfired cells on both sides, and on the edit grid a second such row
 * (Band::below); the edit grid's weight rows (its profile), or a
 * graph's ring of past steps and, on an inhibited race, its positions'
 * limits (Band::inhibit, in `profile`); and, when the band fills
 * arrivals, its lanes step by step (32 x (K + 32)), from which the
 * arrivals are published row by row.
 */
struct BandBuffers {
    std::vector<uint16_t> row;
    std::vector<uint16_t> profile;
    std::vector<uint16_t> history;
    std::vector<uint16_t> skew;

    /** Heap bytes currently retained. */
    size_t
    residentBytes() const
    {
        return (row.capacity() + profile.capacity() + history.capacity() +
                skew.capacity()) *
               sizeof(uint16_t);
    }
};

} // namespace detail

/**
 * Reusable scratch state for raceEditGrid: the sweep's working row
 * plus the weights hoisted out of it.  The row sweep uses gapA,
 * columns, outEdges and row; the skewed band its own buffers.
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

    /** The band's buffers; `profile` holds its in-edge weights,
     *  column-reversed and padded (rl/core/band_lanes.h). */
    detail::BandBuffers band;

    /** One arrival row, staged by a band before it is appended to the
     *  arrival grid, so each cell of the grid is written once. */
    std::vector<sim::Tick> arrivalRow;

    /** Release all retained capacity. */
    void shrinkToFit() { *this = RaceGridScratch(); }

    /** Heap bytes currently retained across the rows. */
    size_t
    residentBytes() const
    {
        auto bytes = [](const auto &v) {
            return v.capacity() * sizeof(*v.data());
        };
        return bytes(gapA) + bytes(columns) + bytes(outEdges) + bytes(row) +
               band.residentBytes() + bytes(arrivalRow);
    }
};

/**
 * Rows one step of the dense sweeps fires on this host -- edit-grid
 * rows in raceEditGrid(), read rows in pangraph::raceAlignmentGrid():
 * 32 where the CPU supports AVX-512BW (the band), 1 elsewhere (the
 * row sweeps).  Decided once per process, from the CPU alone; both
 * kernels dispatch on it and, on a band host, race each race on the
 * band, and again on the row sweep where the band's 16-bit lanes
 * cannot hold it (core::detail::bandHolds()).
 */
unsigned sweepLanes();

/**
 * OR-type race of the edit graph of (a, b) under a race-ready cost
 * matrix, swept without materializing the graph -- in skewed bands of
 * thirty-two rows where the CPU has them and the race fits their lanes
 * (see sweepLanes()), row by row elsewhere, with the same result either
 * way.
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
 * `cancel` (nullptr = never) is polled once per row (the band polls
 * its rows ahead of sweeping them); a cancelled race comes back
 * completed = false with cancelled = true, score
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
