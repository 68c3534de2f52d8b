/**
 * @file
 * One api::RaceEngine shared by many threads: concurrent solves of
 * every kind, on a plan cache small enough to evict constantly, must
 * return exactly what a serial engine returns; a graph-plan eviction
 * storm must never wedge concurrent plan-miss solves; and a GateLevel
 * single solve, raced on a private one-lane simulator, must match the
 * fabric's own serial align() cycle for cycle and joule for joule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "rl/api/api.h"
#include "rl/core/grid_fabric.h"
#include "rl/pangraph/generate.h"
#include "rl/tech/energy_model.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::BackendKind;
using api::EngineConfig;
using api::RaceEngine;
using api::RaceProblem;
using api::RaceResult;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

void
expectSameResult(const RaceResult &got, const RaceResult &want)
{
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.backend, want.backend);
    EXPECT_EQ(got.score, want.score);
    EXPECT_EQ(got.racedCost, want.racedCost);
    EXPECT_EQ(got.latencyCycles, want.latencyCycles);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.cancelled, want.cancelled);
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.cyclesUsed, want.cyclesUsed);
    EXPECT_TRUE(got.arrival == want.arrival);
    EXPECT_TRUE(got.nodeArrival == want.nodeArrival);
    EXPECT_EQ(got.nodes, want.nodes);
    EXPECT_EQ(got.cellsFired, want.cellsFired);
    ASSERT_EQ(got.estimate.has_value(), want.estimate.has_value());
    if (got.estimate) {
        EXPECT_EQ(got.estimate->wallTimeNs, want.estimate->wallTimeNs);
        EXPECT_EQ(got.estimate->areaUm2, want.estimate->areaUm2);
        EXPECT_EQ(got.estimate->energyJ, want.estimate->energyJ);
        EXPECT_EQ(got.estimate->gateCount, want.estimate->gateCount);
        EXPECT_EQ(got.estimate->dffCount, want.estimate->dffCount);
    }
}

std::shared_ptr<const pangraph::VariationGraph>
randomGraph(uint64_t seed)
{
    util::Rng rng(seed);
    pangraph::VariationGraphParams params;
    params.backboneSegments = 4;
    params.maxLabel = 4;
    return std::make_shared<pangraph::VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
}

/** One unit of work for the concurrent test, with its serial answer. */
struct Job {
    RaceProblem problem;
    bool gateLevel = false;  ///< solve on the GateLevel engine
    bool planFamily = true;  ///< counts toward plansBuilt + hits
    bool viaTrySolve = false;
    std::vector<RaceResult> expected;
    /** A screen() batch instead of one solve. */
    std::vector<Sequence> database;
};

TEST(SharedEngine, ConcurrentMixedSolvesMatchASerialEngine)
{
    util::Rng rng(21);
    const ScoreMatrix fig2b = ScoreMatrix::dnaShortestPath();
    const ScoreMatrix infMismatch = ScoreMatrix::dnaShortestPathInfMismatch();
    const ScoreMatrix similarity = ScoreMatrix::dnaLongestPath();
    auto graphOne = randomGraph(3);
    auto graphTwo = randomGraph(4);
    auto random = [&](size_t n) {
        return Sequence::random(rng, Alphabet::dna(), n);
    };

    // Two tokens whose verdicts never change: one never fires, one
    // fired before any solve starts, so every race sees the same
    // answer on every thread.
    core::CancelToken neverCancelled;
    core::CancelToken alreadyCancelled;
    alreadyCancelled.cancel();

    std::vector<Job> jobs;
    auto add = [&](RaceProblem problem, bool planFamily = true,
                   bool gateLevel = false) {
        Job job;
        job.problem = std::move(problem);
        job.planFamily = planFamily;
        job.gateLevel = gateLevel;
        job.viaTrySolve = jobs.size() % 2 == 1;
        jobs.push_back(std::move(job));
    };
    for (size_t n : {6, 9, 14}) {
        add(RaceProblem::pairwiseAlignment(fig2b, random(n), random(n + 2)));
        add(RaceProblem::pairwiseAlignment(infMismatch, random(n),
                                           random(n)));
        add(RaceProblem::generalizedAlignment(similarity, random(n),
                                              random(n + 1), 2));
    }
    const Sequence query = random(12);
    for (bio::Score threshold : {2, 6, 12, 40})
        add(RaceProblem::thresholdScreen(infMismatch, threshold, query,
                                         random(12)));
    for (const auto &graph : {graphOne, graphTwo}) {
        add(RaceProblem::graphAlign(fig2b, random(7), graph));
        add(RaceProblem::graphAlign(fig2b, random(9), graph, 6));
        RaceProblem live = RaceProblem::graphAlign(fig2b, random(8), graph);
        live.cancel = &neverCancelled;
        add(std::move(live));
        RaceProblem dead = RaceProblem::graphAlign(fig2b, random(8), graph);
        dead.cancel = &alreadyCancelled;
        add(std::move(dead));
    }
    add(RaceProblem::dtw({1, 4, 2, 8, 5}, {2, 3, 8, 8, 1, 4}),
        /*planFamily=*/false);
    add(RaceProblem::pairwiseAlignment(fig2b, random(5), random(5)), true,
        /*gateLevel=*/true);
    add(RaceProblem::pairwiseAlignment(fig2b, random(4), random(6)), true,
        /*gateLevel=*/true);
    add(RaceProblem::thresholdScreen(infMismatch, 5, random(5), random(5)),
        true, /*gateLevel=*/true);
    {
        Job batch;
        batch.problem = RaceProblem::thresholdScreen(infMismatch, 8, query,
                                                     query);
        for (int i = 0; i < 6; ++i)
            batch.database.push_back(random(12));
        jobs.push_back(std::move(batch));
    }

    // Serial answers from fresh, roomy engines of the same backends.
    EngineConfig behavioralConfig;
    EngineConfig gateConfig;
    gateConfig.backend = BackendKind::GateLevel;
    {
        RaceEngine serial(behavioralConfig);
        RaceEngine serialGate(gateConfig);
        for (Job &job : jobs) {
            RaceEngine &engine = job.gateLevel ? serialGate : serial;
            if (job.database.empty())
                job.expected = {engine.solve(job.problem)};
            else
                job.expected =
                    engine.screen(infMismatch, job.problem.threshold,
                                  *job.problem.a, job.database)
                        .results;
        }
    }

    // Two plans of room for six plan keys: every thread's solve races
    // someone else's eviction and rebuild.
    behavioralConfig.planCacheCapacity = 2;
    gateConfig.planCacheCapacity = 2;
    RaceEngine shared(behavioralConfig);
    RaceEngine sharedGate(gateConfig);

    constexpr size_t kThreads = 4;
    constexpr size_t kRounds = 3;
    std::atomic<uint64_t> planSolves{0}, gatePlanSolves{0};
    std::atomic<uint64_t> solves{0}, gateSolves{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (size_t round = 0; round < kRounds; ++round)
                for (size_t k = 0; k < jobs.size(); ++k) {
                    // Each thread walks the jobs from its own offset.
                    const Job &job = jobs[(k + t * 7 + round) % jobs.size()];
                    RaceEngine &engine = job.gateLevel ? sharedGate : shared;
                    std::vector<RaceResult> got;
                    if (!job.database.empty()) {
                        got = engine
                                  .screen(infMismatch,
                                          job.problem.threshold,
                                          *job.problem.a, job.database)
                                  .results;
                    } else if (job.viaTrySolve) {
                        Expected<RaceResult> r = engine.trySolve(job.problem);
                        ASSERT_TRUE(r.ok()) << r.status().toString();
                        got = {r.value()};
                    } else {
                        got = {engine.solve(job.problem)};
                    }
                    ASSERT_EQ(got.size(), job.expected.size());
                    for (size_t i = 0; i < got.size(); ++i)
                        expectSameResult(got[i], job.expected[i]);
                    (job.gateLevel ? gateSolves : solves) += got.size();
                    if (job.planFamily)
                        (job.gateLevel ? gatePlanSolves : planSolves) +=
                            got.size();
                }
        });
    for (std::thread &thread : threads)
        thread.join();

    const api::EngineStats stats = shared.stats();
    EXPECT_EQ(stats.solves, solves.load());
    EXPECT_EQ(stats.plansBuilt + stats.planCacheHits, planSolves.load());
    EXPECT_GT(stats.plansBuilt, 6u) << "capacity 2 must force rebuilds";
    EXPECT_LE(shared.planCacheSize(), 2u);
    const api::EngineStats gate = sharedGate.stats();
    EXPECT_EQ(gate.solves, gateSolves.load());
    EXPECT_EQ(gate.plansBuilt + gate.planCacheHits, gatePlanSolves.load());
    EXPECT_LE(sharedGate.planCacheSize(), 2u);
}

// A hot reload evicts graph plans while other threads miss on them:
// evictions landing in the middle of plan-miss solves must never
// wedge either side.  The engine holds its one mutex only for
// bookkeeping, so there is no second lock to order against; the
// suite-level no-hang bound and both solvers' progress are the
// assertions.
TEST(SharedEngine, GraphEvictionsNeverDeadlockPlanMissSolves)
{
    auto graphOne = randomGraph(11);
    auto graphTwo = randomGraph(12);
    const ScoreMatrix fig2b = ScoreMatrix::dnaShortestPath();
    RaceEngine engine;

    std::atomic<bool> done{false};
    std::atomic<uint32_t> solvedOne{0}, solvedTwo{0};
    auto solverLoop =
        [&](std::shared_ptr<const pangraph::VariationGraph> graph,
            std::atomic<uint32_t> &solved) {
            const Sequence read(Alphabet::dna(), "ACGTGA");
            while (!done.load(std::memory_order_acquire)) {
                Expected<RaceResult> result = engine.trySolve(
                    RaceProblem::graphAlign(fig2b, read, graph));
                EXPECT_TRUE(result.ok());
                solved.fetch_add(1, std::memory_order_relaxed);
            }
        };
    std::thread solverOne([&] { solverLoop(graphOne, solvedOne); });
    std::thread solverTwo([&] { solverLoop(graphTwo, solvedTwo); });

    // Don't start evicting until both solvers are demonstrably racing.
    while (solvedOne.load(std::memory_order_relaxed) == 0 ||
           solvedTwo.load(std::memory_order_relaxed) == 0)
        std::this_thread::yield();
    const uint32_t oneBefore = solvedOne.load();
    const uint32_t twoBefore = solvedTwo.load();
    for (int round = 0; round < 200; ++round) {
        engine.evictGraphPlans();
        std::this_thread::yield();
    }
    // Both solvers keep going after the storm.
    while (solvedOne.load(std::memory_order_relaxed) <= oneBefore ||
           solvedTwo.load(std::memory_order_relaxed) <= twoBefore)
        std::this_thread::yield();
    done.store(true, std::memory_order_release);
    solverOne.join();
    solverTwo.join();

    const api::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.solves, uint64_t(solvedOne.load()) + solvedTwo.load());
    EXPECT_EQ(stats.plansBuilt + stats.planCacheHits, stats.solves);
    EXPECT_GE(stats.plansBuilt, 2u);
}

TEST(SharedEngine, GateLevelSolveMatchesTheFabricsSerialAlign)
{
    // The engine races GateLevel single solves through a one-lane
    // alignLanes() on a private simulator; a one-pair race on a
    // caller-owned simulator is the reference.  Score, completion and
    // the priced switching energy must agree exactly.
    const ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    const tech::CellLibrary &lib = tech::CellLibrary::amis();
    EngineConfig config;
    config.backend = BackendKind::GateLevel;
    RaceEngine engine(config);

    util::Rng rng(5);
    for (int round = 0; round < 24; ++round) {
        const size_t n = static_cast<size_t>(rng.uniformInt(2, 7));
        const size_t m = static_cast<size_t>(rng.uniformInt(2, 7));
        const Sequence a = Sequence::random(rng, Alphabet::dna(), n);
        const Sequence b = Sequence::random(rng, Alphabet::dna(), m);
        const bool screen = round % 3 == 0;
        const bio::Score threshold =
            screen ? static_cast<bio::Score>(rng.uniformInt(0, 10))
                   : bio::kScoreInfinity;
        const RaceResult r = engine.solve(
            screen ? RaceProblem::thresholdScreen(costs, threshold, a, b)
                   : RaceProblem::pairwiseAlignment(costs, a, b));

        const core::GridFabric fabric =
            core::GridFabric::generalized(costs, n, m,
                                          core::DelayEncoding::Binary);
        circuit::CompiledSim sim(fabric.compiled());
        const uint64_t budget =
            screen ? std::max<uint64_t>(static_cast<uint64_t>(threshold), 1)
                   : 0;
        const core::CircuitRunResult run =
            core::raceFabricPair(sim, fabric, a, b, budget);
        if (r.completed) {
            ASSERT_TRUE(run.completed) << round;
            EXPECT_EQ(run.score, r.racedCost) << round;
        }
        ASSERT_TRUE(r.estimate.has_value());
        EXPECT_EQ(r.estimate->energyJ,
                  tech::energyFromActivityJ(lib, sim.activity()))
            << round;
        EXPECT_EQ(r.estimate->gateCount, fabric.netlist().gateCount());
    }
}

} // namespace
