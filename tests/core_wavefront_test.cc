/**
 * @file
 * Equivalence suite for the bucketed wavefront race kernel: the new
 * kernel, the heap-scheduled event-queue reference, and the DP oracle
 * must agree node-for-node on randomized DAGs and sequences -- Or and
 * And races, with and without an early-termination horizon -- and the
 * grid-direct kernel must reproduce the materialized edit-graph race
 * exactly (arrival grids and event counts included).
 */

#include <gtest/gtest.h>

#include "rl/bio/align_dp.h"
#include "rl/bio/edit_graph.h"
#include "rl/core/batch.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_network.h"
#include "rl/core/wavefront.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/util/random.h"
#include "rl/util/thread_pool.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using core::RaceOutcome;
using core::RaceType;
using core::WavefrontRaceKernel;
using graph::Dag;
using graph::NodeId;
using graph::Objective;

// ------------------------------------------------------------ CSR view

TEST(CsrView, MatchesAdjacencyOrder)
{
    Dag d(4);
    d.addEdge(2, 0, 7);
    d.addEdge(2, 3, 1);
    d.addEdge(0, 3, 2);
    d.addEdge(2, 1, 5);

    graph::CsrOutEdges csr = d.outEdgesCsr();
    ASSERT_EQ(csr.nodeCount(), 4u);
    ASSERT_EQ(csr.edgeCount(), 4u);
    // Node 2's edges keep insertion order 0, 3, 1.
    EXPECT_EQ(csr.offsets[2], 1u);
    EXPECT_EQ(csr.offsets[3], 4u);
    EXPECT_EQ(csr.to[1], 0u);
    EXPECT_EQ(csr.to[2], 3u);
    EXPECT_EQ(csr.to[3], 1u);
    EXPECT_EQ(csr.weight[1], 7);
    EXPECT_EQ(csr.weight[3], 5);
    // Node 1 has no out-edges: empty range.
    EXPECT_EQ(csr.offsets[1], 1u);

    // The generic order check across every node.
    for (NodeId v = 0; v < d.nodeCount(); ++v) {
        const auto &adj = d.outEdges(v);
        ASSERT_EQ(csr.offsets[v + 1] - csr.offsets[v], adj.size());
        for (size_t k = 0; k < adj.size(); ++k) {
            const graph::Edge &e = d.edges()[adj[k]];
            EXPECT_EQ(csr.to[csr.offsets[v] + k], e.to);
            EXPECT_EQ(csr.weight[csr.offsets[v] + k], e.weight);
        }
    }
}

// ----------------------------------- kernel vs event queue vs oracle

void
expectSameOutcome(const RaceOutcome &got, const RaceOutcome &want)
{
    ASSERT_EQ(got.firing.size(), want.firing.size());
    for (size_t n = 0; n < want.firing.size(); ++n)
        EXPECT_TRUE(got.firing[n] == want.firing[n]) << "node " << n;
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.horizon, want.horizon);
}

class WavefrontVsReference : public ::testing::TestWithParam<int> {};

TEST_P(WavefrontVsReference, OrRaceMatchesEventQueueAndDp)
{
    util::Rng rng(3100 + GetParam());
    // Zero weights included: wire edges must propagate same-tick.
    Dag d = graph::randomDag(rng, 50, 0.15, {0, 9});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    (void)sink;

    RaceOutcome kernel =
        WavefrontRaceKernel(d).race({source}, RaceType::Or);
    RaceOutcome reference =
        core::raceDagEventDriven(d, {source}, RaceType::Or);
    expectSameOutcome(kernel, reference);

    auto dp = graph::solveDag(d, {source}, Objective::Shortest);
    for (NodeId n = 0; n < d.nodeCount(); ++n) {
        if (dp.reached(n))
            EXPECT_EQ(kernel.at(n).time(),
                      static_cast<sim::Tick>(dp.distance[n]));
        else
            EXPECT_FALSE(kernel.at(n).fired());
    }
}

TEST_P(WavefrontVsReference, AndRaceMatchesEventQueueAndDp)
{
    util::Rng rng(3500 + GetParam());
    Dag d = graph::layeredDag(rng, 6, 5, 0.5, {1, 9});
    std::vector<NodeId> sources{0, 1, 2, 3, 4};
    ASSERT_TRUE(core::andRaceMatchesDp(d, sources));

    RaceOutcome kernel =
        WavefrontRaceKernel(d).race(sources, RaceType::And);
    RaceOutcome reference =
        core::raceDagEventDriven(d, sources, RaceType::And);
    expectSameOutcome(kernel, reference);

    auto dp = graph::solveDag(d, sources, Objective::Longest);
    for (NodeId n = 0; n < d.nodeCount(); ++n)
        if (dp.reached(n))
            EXPECT_EQ(kernel.at(n).time(),
                      static_cast<sim::Tick>(dp.distance[n]));
}

TEST_P(WavefrontVsReference, HorizonTruncatesIdenticallyOnBothKernels)
{
    util::Rng rng(3900 + GetParam());
    Dag d = graph::randomDag(rng, 40, 0.2, {1, 6});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    (void)sink;

    RaceOutcome full =
        WavefrontRaceKernel(d).race({source}, RaceType::Or);
    for (sim::Tick horizon : {sim::Tick(0), sim::Tick(3), full.horizon}) {
        RaceOutcome kernel =
            WavefrontRaceKernel(d).race({source}, RaceType::Or, horizon);
        RaceOutcome reference = core::raceDagEventDriven(
            d, {source}, RaceType::Or, horizon);
        expectSameOutcome(kernel, reference);
        // A node fires under the horizon iff its full-race arrival is
        // within it (arrival times are monotone in simulated time).
        for (NodeId n = 0; n < d.nodeCount(); ++n) {
            if (full.at(n).fired() && full.at(n).time() <= horizon) {
                ASSERT_TRUE(kernel.at(n).fired()) << "node " << n;
                EXPECT_EQ(kernel.at(n).time(), full.at(n).time());
            } else {
                EXPECT_FALSE(kernel.at(n).fired()) << "node " << n;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WavefrontVsReference,
                         ::testing::Range(0, 15));

TEST(Wavefront, RaceDagDispatchesAndAgreesOnFig3)
{
    Dag d = graph::makeFig3ExampleDag();
    RaceOutcome out = core::raceDag(d, {0, 1}, RaceType::Or);
    EXPECT_EQ(out.at(4).time(), 2u);
    // The seed quirk, fixed: the AND race (longest path) gives 4.
    RaceOutcome longest = core::raceDag(d, {0, 1}, RaceType::And);
    EXPECT_EQ(longest.at(4).time(), 4u);
}

TEST(Wavefront, OversizedWeightsFallBackToEventKernel)
{
    // One delay above the calendar bound: raceDag must still answer
    // (via the heap kernel) and agree with the DP.
    Dag d(3);
    d.addEdge(0, 1, core::kMaxWavefrontWeight + 5);
    d.addEdge(1, 2, 2);
    EXPECT_FALSE(WavefrontRaceKernel::suitableFor(d));
    RaceOutcome out = core::raceDag(d, {0}, RaceType::Or);
    EXPECT_EQ(out.at(2).time(),
              static_cast<sim::Tick>(core::kMaxWavefrontWeight + 7));
}

// --------------------------------------------- grid-direct kernel

class GridKernel : public ::testing::TestWithParam<int> {};

/**
 * Race (a, b) on the grid kernel and on WavefrontRaceKernel over the
 * materialized edit graph under `horizon`, and assert the outcomes are
 * identical: arrival grid, events, cells fired, completion, latency --
 * and the kernel counters the sweep exports.  A score-only race of the
 * same case must match in everything but the (empty) arrival grid.
 */
void
expectGridMatchesMaterialized(const Sequence &a, const Sequence &b,
                              const ScoreMatrix &m, sim::Tick horizon)
{
    SCOPED_TRACE(testing::Message() << "a=" << a.str() << " b=" << b.str()
                                    << " horizon=" << horizon);
    core::RaceGridScratch scratch;
    core::KernelCounters counters;
    core::RaceGridResult grid = core::raceEditGrid(
        a, b, m, horizon, scratch, nullptr, &counters);

    bio::EditGraph eg = bio::makeEditGraph(a, b, m);
    RaceOutcome reference = WavefrontRaceKernel(eg.dag).race(
        {eg.source}, RaceType::Or, horizon);

    EXPECT_EQ(grid.events, reference.events);
    size_t fired = 0;
    for (size_t i = 0; i <= eg.rows; ++i) {
        for (size_t j = 0; j <= eg.cols; ++j) {
            core::TemporalValue v = reference.at(eg.node(i, j));
            fired += v.fired();
            EXPECT_EQ(grid.arrival.at(i, j), v.rawTime())
                << "(" << i << "," << j << ")";
        }
    }
    EXPECT_EQ(grid.cellsFired, fired);
    const core::TemporalValue sink = reference.at(eg.sink);
    EXPECT_EQ(grid.completed, sink.fired());
    EXPECT_EQ(grid.latencyCycles, sink.fired() ? sink.time() : horizon);
    EXPECT_FALSE(grid.cancelled);

    EXPECT_EQ(counters.events, grid.events);
    EXPECT_EQ(counters.lanesOccupied, grid.cellsFired);
    EXPECT_EQ(counters.horizonAborts, grid.completed ? 0u : 1u);
    EXPECT_EQ(counters.cancels, 0u);

    // Score-only: no arrival grid, every other field and counter equal.
    core::KernelCounters bareCounters;
    core::RaceGridResult bare = core::raceEditGrid(
        a, b, m, horizon, scratch, nullptr, &bareCounters,
        /*arrivals=*/false);
    EXPECT_EQ(bare.arrival.rows(), 0u);
    EXPECT_EQ(bare.arrival.cols(), 0u);
    EXPECT_EQ(bare.score, grid.score);
    EXPECT_EQ(bare.completed, grid.completed);
    EXPECT_EQ(bare.cancelled, grid.cancelled);
    EXPECT_EQ(bare.latencyCycles, grid.latencyCycles);
    EXPECT_EQ(bare.cellsFired, grid.cellsFired);
    EXPECT_EQ(bare.events, grid.events);
    EXPECT_EQ(bareCounters.events, counters.events);
    EXPECT_EQ(bareCounters.bucketsDrained, counters.bucketsDrained);
    EXPECT_EQ(bareCounters.scratchHighWater, counters.scratchHighWater);
    EXPECT_EQ(bareCounters.lanesOccupied, counters.lanesOccupied);
    EXPECT_EQ(bareCounters.cancels, counters.cancels);
    EXPECT_EQ(bareCounters.horizonAborts, counters.horizonAborts);
}

TEST_P(GridKernel, MatchesMaterializedEditGraphRaceExactly)
{
    util::Rng rng(4300 + GetParam());
    for (const ScoreMatrix &m : {ScoreMatrix::dnaShortestPathInfMismatch(),
                                 ScoreMatrix::dnaShortestPath()}) {
        // Lengths from 0: an empty a and/or b races a single row or
        // column of gap edges.
        Sequence a = Sequence::random(rng, Alphabet::dna(),
                                      rng.index(13));
        Sequence b = Sequence::random(rng, Alphabet::dna(),
                                      rng.index(13));
        const Sequence empty(Alphabet::dna(), "");
        const bio::Score score = bio::globalScore(a, b, m);
        EXPECT_EQ(core::raceEditGrid(a, b, m).score, score);

        // Unbounded, the Section 6 edge cases around the exact score,
        // and a random horizon.
        for (sim::Tick horizon :
             {sim::kTickInfinity, sim::Tick(0), sim::Tick(1),
              sim::Tick(score), sim::Tick(score > 0 ? score - 1 : 0),
              sim::Tick(rng.index(2 * score + 2))}) {
            expectGridMatchesMaterialized(a, b, m, horizon);
            expectGridMatchesMaterialized(empty, b, m, horizon);
            expectGridMatchesMaterialized(a, empty, m, horizon);
        }
        expectGridMatchesMaterialized(empty, empty, m, sim::kTickInfinity);
    }
}

TEST_P(GridKernel, HorizonMatchesFullRacePrefix)
{
    util::Rng rng(4700 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence a = Sequence::random(rng, Alphabet::dna(), 10);
    Sequence b = Sequence::random(rng, Alphabet::dna(), 10);

    core::RaceGridResult full = core::raceEditGrid(a, b, m);
    for (sim::Tick horizon :
         {sim::Tick(0), sim::Tick(4), sim::Tick(full.latencyCycles)}) {
        core::RaceGridResult bounded =
            core::raceEditGrid(a, b, m, horizon);
        for (size_t i = 0; i < full.arrival.rows(); ++i) {
            for (size_t j = 0; j < full.arrival.cols(); ++j) {
                sim::Tick t = full.arrival.at(i, j);
                EXPECT_EQ(bounded.arrival.at(i, j),
                          t <= horizon ? t : sim::kTickInfinity);
            }
        }
        bool sinkIn = full.latencyCycles <= horizon;
        EXPECT_EQ(bounded.completed, sinkIn);
        if (sinkIn) {
            EXPECT_EQ(bounded.score, full.score);
        } else {
            EXPECT_EQ(bounded.score, bio::kScoreInfinity);
            EXPECT_EQ(bounded.latencyCycles, horizon);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridKernel, ::testing::Range(0, 10));

// ------------------------------- horizon-true screening accounting

TEST(ScreeningHorizon, BatchBusyCyclesAgreeWithClampAfterFullRace)
{
    // Satellite of the kernel rework: BatchScreeningEngine races each
    // comparison with the threshold as the kernel horizon.  The
    // resulting busy cycles must equal the old accounting (race to
    // completion, clamp to the threshold afterwards), comparison by
    // comparison.
    util::Rng rng(51);
    auto wl = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 18, 40, 0.3,
        bio::MutationModel::uniform(0.1));
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    const bio::Score threshold = 22;

    core::BatchConfig cfg;
    cfg.fabricCount = 1; // makespan == busy time: exact accounting
    cfg.threshold = threshold;
    core::BatchScreeningEngine engine(m, cfg);
    core::BatchReport report = engine.run(wl.query, wl.database);

    core::RaceGridAligner full(m);
    uint64_t clampedTotal = 0;
    for (size_t i = 0; i < wl.database.size(); ++i) {
        bio::Score score = full.align(wl.query, wl.database[i]).score;
        EXPECT_EQ(report.accepted[i], score <= threshold) << i;
        clampedTotal +=
            std::min<uint64_t>(static_cast<uint64_t>(score),
                               static_cast<uint64_t>(threshold)) +
            cfg.resetCycles;
    }
    EXPECT_EQ(report.busyCycles, clampedTotal);
}

TEST(ScreeningHorizon, ScreenerStopsRacingAtThreshold)
{
    // The aborted race never fires cells past the threshold cycle --
    // visible through the aligner's bounded overload.
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    core::RaceGridAligner racer(m);
    Sequence a(Alphabet::dna(), "AAAAAAAA");
    Sequence b(Alphabet::dna(), "CCCCCCCC");
    core::RaceGridResult bounded = racer.align(a, b, 5);
    EXPECT_FALSE(bounded.completed);
    for (sim::Tick t : bounded.arrival.flat())
        EXPECT_TRUE(t == sim::kTickInfinity || t <= 5u);

    core::RaceGridResult full = racer.align(a, b);
    EXPECT_GT(full.events, bounded.events)
        << "the horizon should prune simulated arrivals";
}

// ------------------------------------------------------ thread pool

TEST(ThreadPool, CoversEveryIndexExactlyOnceAcrossBatches)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    for (size_t round = 0; round < 3; ++round) {
        const size_t n = 257 + round;
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // Degenerate sizes.
    pool.parallelFor(0, [](size_t) { FAIL(); });
    std::atomic<int> one{0};
    pool.parallelFor(1, [&](size_t) { ++one; });
    EXPECT_EQ(one.load(), 1);
}

} // namespace
