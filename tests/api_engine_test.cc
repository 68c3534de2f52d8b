/**
 * @file
 * Tests for the unified racelogic::api facade: DTW and DAG paths
 * match their DP oracles, the Behavioral / GateLevel backends agree
 * through the one API, batches carry a fabric-pool schedule, and
 * score-only solves equal full ones.  The randomized kind x backend
 * oracle sweep lives in api_differential_test.cc.
 */

#include <gtest/gtest.h>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/pangraph/generate.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::BackendKind;
using api::EngineConfig;
using api::ProblemKind;
using api::RaceEngine;
using api::RaceProblem;
using api::RaceResult;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

Sequence
dna(const std::string &text)
{
    return Sequence(Alphabet::dna(), text);
}

Sequence
protein(const std::string &text)
{
    return Sequence(Alphabet::protein(), text);
}

EngineConfig
configFor(BackendKind backend)
{
    EngineConfig config;
    config.backend = backend;
    return config;
}

// ------------------------------------------------------ DP oracles

TEST(ApiEngine, DtwMatchesReferenceDp)
{
    util::Rng rng(5);
    auto x = apps::quantizedSine(rng, 24, 2.0, 20.0, 0.0, 2.0);
    auto y = apps::quantizedSine(rng, 30, 2.0, 20.0, 0.4, 2.0);

    RaceEngine engine;
    RaceResult got = engine.solve(RaceProblem::dtw(x, y));
    EXPECT_EQ(got.score, apps::dtwDistance(x, y));
    EXPECT_EQ(got.latencyCycles,
              static_cast<sim::Tick>(got.score));
    EXPECT_FALSE(got.nodeArrival.empty());
}

TEST(ApiEngine, DagPathMatchesSolveDag)
{
    util::Rng rng(7);
    graph::Dag dag = graph::randomDag(rng, 40, 0.15, {1, 6});
    auto [source, sink] = graph::addSuperEndpoints(dag, 1);

    RaceEngine engine;
    for (graph::Objective objective :
         {graph::Objective::Shortest, graph::Objective::Longest}) {
        auto dp = graph::solveDag(dag, {source}, objective);
        RaceResult got = engine.solve(
            RaceProblem::dagPath(dag, {source}, sink, objective));
        ASSERT_TRUE(got.completed);
        EXPECT_EQ(got.score, dp.distance[sink]);
    }
}

// --------------------------------------- backend agreement (6 kinds)

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnPairwise)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));

    util::Rng rng(3);
    for (int round = 0; round < 3; ++round) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 5);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 6);
        RaceProblem p = RaceProblem::pairwiseAlignment(costs, a, b);
        RaceResult soft = behavioral.solve(p);
        RaceResult hard = gates.solve(p);
        EXPECT_EQ(soft.score, hard.score);
        EXPECT_EQ(soft.latencyCycles, hard.latencyCycles);
    }
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnGeneralized)
{
    ScoreMatrix blosum = ScoreMatrix::blosum62();
    Sequence a = protein("HEAG");
    Sequence b = protein("PAW");
    RaceProblem p = RaceProblem::generalizedAlignment(blosum, a, b);

    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));
    RaceResult soft = behavioral.solve(p);
    RaceResult hard = gates.solve(p);
    EXPECT_EQ(soft.score, hard.score);
    EXPECT_EQ(soft.racedCost, hard.racedCost);
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnThresholdScreen)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence query = dna("ACTGAGA");
    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));

    // One candidate under the threshold, one far over it.
    for (const auto &candidate : {dna("ACTGAGA"), dna("TTTTTTT")}) {
        RaceProblem p = RaceProblem::thresholdScreen(costs, 9, query,
                                                     candidate);
        RaceResult soft = behavioral.solve(p);
        RaceResult hard = gates.solve(p);
        EXPECT_EQ(soft.accepted, hard.accepted);
        EXPECT_EQ(soft.score, hard.score);
        EXPECT_EQ(soft.cyclesUsed, hard.cyclesUsed);
    }
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnDtw)
{
    std::vector<apps::Sample> x{3, 5, 8, 6, 2};
    std::vector<apps::Sample> y{3, 6, 7, 2};
    RaceProblem p = RaceProblem::dtw(x, y);

    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));
    RaceResult soft = behavioral.solve(p);
    RaceResult hard = gates.solve(p);
    EXPECT_EQ(soft.score, hard.score);
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnDagPath)
{
    graph::Dag fig3 = graph::makeFig3ExampleDag();
    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));

    for (graph::Objective objective :
         {graph::Objective::Shortest, graph::Objective::Longest}) {
        RaceProblem p =
            RaceProblem::dagPath(fig3, {0, 1}, 4, objective);
        RaceResult soft = behavioral.solve(p);
        RaceResult hard = gates.solve(p);
        EXPECT_EQ(soft.score, hard.score);
    }
    // Fig. 3 reconstruction: shortest 2 (longest is 4; both the DP
    // and the AND race agree -- see makeFig3ExampleDag()).
    RaceResult shortest = behavioral.solve(RaceProblem::dagPath(
        fig3, {0, 1}, 4, graph::Objective::Shortest));
    EXPECT_EQ(shortest.score, 2);
}

TEST(ApiEngine, BehavioralAndGateLevelAgreeOnAffine)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    bio::AffineGapCosts gaps{2, 1};
    RaceProblem p = RaceProblem::affineAlignment(
        costs, gaps, dna("ACTG"), dna("AG"));

    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine gates(configFor(BackendKind::GateLevel));
    RaceResult soft = behavioral.solve(p);
    RaceResult hard = gates.solve(p);
    EXPECT_EQ(soft.score, hard.score);
}

// ------------------------------------------------- systolic backend

TEST(ApiEngine, SystolicBackendMatchesBehavioralScore)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine systolic(configFor(BackendKind::Systolic));

    util::Rng rng(21);
    for (int round = 0; round < 4; ++round) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 8);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 8);
        RaceProblem p = RaceProblem::pairwiseAlignment(costs, a, b);
        EXPECT_EQ(systolic.solve(p).score, behavioral.solve(p).score);
    }
}

TEST(ApiEngine, SystolicScreeningCannotAbort)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence query = dna("ACTGAGA");
    Sequence distant = dna("TTTTTTT");
    RaceProblem p =
        RaceProblem::thresholdScreen(costs, 9, query, distant);

    RaceEngine behavioral(configFor(BackendKind::Behavioral));
    RaceEngine systolic(configFor(BackendKind::Systolic));
    RaceResult soft = behavioral.solve(p);
    RaceResult hard = systolic.solve(p);
    EXPECT_FALSE(soft.accepted);
    EXPECT_FALSE(hard.accepted);
    // The race aborts at the threshold; the array runs to completion.
    EXPECT_EQ(soft.cyclesUsed, 9u);
    EXPECT_GT(hard.cyclesUsed, soft.cyclesUsed);
}

// ----------------------------------------------- batch + estimates

TEST(ApiEngine, SolveBatchDispatchesOntoFabricPool)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    util::Rng rng(99);
    auto workload = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 16, 24, 0.25,
        bio::MutationModel{0.05, 0.02, 0.02});
    bio::Score threshold = 22;

    RaceEngine engine;
    api::BatchOutcome batch = engine.screen(
        costs, threshold, workload.query, workload.database);
    ASSERT_EQ(batch.results.size(), workload.database.size());
    ASSERT_TRUE(batch.schedule.has_value());
    EXPECT_EQ(batch.schedule->comparisons, workload.database.size());
    EXPECT_EQ(batch.schedule->acceptedCount, batch.acceptedCount());
    EXPECT_GT(batch.schedule->utilization, 0.0);

    // Verdicts from the pool dispatcher and the engine agree.
    for (size_t i = 0; i < batch.results.size(); ++i)
        EXPECT_EQ(batch.results[i].accepted, batch.schedule->accepted[i]);
}

TEST(ApiEngine, MixedThresholdBatchScheduleMatchesResults)
{
    // Each screen carries its own threshold; the pool schedule is
    // built from the per-result busy cycles, so verdicts and cycle
    // accounting stay consistent across a mixed-threshold batch.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence query = dna("ACTGAGA");
    Sequence distant = dna("TTTTTTT"); // cost 13 (one T-T match)
    RaceEngine engine;
    std::vector<RaceProblem> problems;
    problems.push_back(
        RaceProblem::thresholdScreen(costs, 9, query, distant));
    problems.push_back(
        RaceProblem::thresholdScreen(costs, 20, query, distant));
    api::BatchOutcome batch = engine.solveBatch(problems);
    ASSERT_TRUE(batch.schedule.has_value());
    EXPECT_FALSE(batch.results[0].accepted);
    EXPECT_TRUE(batch.results[1].accepted);
    EXPECT_EQ(batch.schedule->accepted[0], batch.results[0].accepted);
    EXPECT_EQ(batch.schedule->accepted[1], batch.results[1].accepted);
    // Busy cycles: 9 (aborted at its own threshold) + 13 (completed).
    EXPECT_EQ(batch.busyCycles(), 22u);
}

TEST(ApiEngine, ZeroThresholdScreenRejectsOnBothBackends)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceProblem p = RaceProblem::thresholdScreen(
        costs, 0, dna("ACTG"), dna("ACTG"));
    for (BackendKind backend :
         {BackendKind::Behavioral, BackendKind::GateLevel}) {
        RaceEngine engine(configFor(backend));
        RaceResult r = engine.solve(p);
        EXPECT_FALSE(r.accepted);
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.cyclesUsed, 0u);
        EXPECT_EQ(r.score, bio::kScoreInfinity);
    }
}

TEST(ApiEngine, MixedBatchHasNoSchedule)
{
    RaceEngine engine;
    std::vector<RaceProblem> problems;
    problems.push_back(RaceProblem::dtw({1, 2, 3}, {1, 2, 4}));
    problems.push_back(RaceProblem::pairwiseAlignment(
        ScoreMatrix::dnaShortestPath(), dna("ACT"), dna("AGT")));
    api::BatchOutcome batch = engine.solveBatch(problems);
    EXPECT_EQ(batch.results.size(), 2u);
    EXPECT_FALSE(batch.schedule.has_value());
}

TEST(ApiEngine, EstimatesAreAttachedAndPlausible)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine engine;
    RaceResult r = engine.solve(RaceProblem::pairwiseAlignment(
        costs, dna("ACTGAGA"), dna("GATTCGA")));
    ASSERT_TRUE(r.estimate.has_value());
    EXPECT_GT(r.estimate->wallTimeNs, 0.0);
    EXPECT_GT(r.estimate->areaUm2, 0.0);
    EXPECT_GT(r.estimate->energyJ, 0.0);
    EXPECT_FALSE(r.describe().empty());
    EXPECT_FALSE(r.arrivalTable().empty());
}

TEST(ApiEngine, EngineThresholdAppliesToPlainAlignment)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    EngineConfig config;
    config.threshold = 5;
    RaceEngine engine(config);
    RaceResult r = engine.solve(RaceProblem::pairwiseAlignment(
        costs, dna("ACTGAGA"), dna("GATTCGA"))); // cost 10 > 5
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.cyclesUsed, 5u);
    EXPECT_EQ(r.score, 10); // score still exact outside screening
}

TEST(ApiEngine, CancelledSolveReturnsTypedAbort)
{
    RaceEngine engine;
    core::CancelToken token;
    token.cancel();
    RaceProblem problem = RaceProblem::pairwiseAlignment(
        ScoreMatrix::dnaShortestPath(), dna("GATTACA"), dna("GCATGCT"));
    problem.cancel = &token;
    const RaceResult r = engine.solve(problem);
    EXPECT_TRUE(r.cancelled);
    EXPECT_FALSE(r.completed);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.score, bio::kScoreInfinity);
    EXPECT_TRUE(r.nodeArrival.empty())
        << "a cancelled race must reveal no mapping detail";
}

TEST(ApiEngine, UncancelledTokenLeavesTheSolveBitIdentical)
{
    RaceEngine engine;
    RaceProblem plain = RaceProblem::pairwiseAlignment(
        ScoreMatrix::dnaShortestPath(), dna("GATTACA"), dna("GCATGCT"));
    const RaceResult expected = engine.solve(plain);

    core::CancelToken idle; // live but never fired
    RaceProblem tokened = plain;
    tokened.cancel = &idle;
    const RaceResult r = engine.solve(tokened);
    EXPECT_FALSE(r.cancelled);
    EXPECT_EQ(r.score, expected.score);
    EXPECT_EQ(r.racedCost, expected.racedCost);
    EXPECT_EQ(r.latencyCycles, expected.latencyCycles);
    EXPECT_EQ(r.events, expected.events);
    EXPECT_EQ(r.cellsFired, expected.cellsFired);
    EXPECT_EQ(r.nodeArrival, expected.nodeArrival);
}

TEST(ApiEngine, GridDetailCarriesCompletionAndCancellation)
{
    RaceEngine engine;
    const ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();

    // An aborted screen: the grid view must not read completed.
    const RaceResult aborted = engine.solve(RaceProblem::thresholdScreen(
        costs, 4, dna("ACTGAGA"), dna("TTTTTTT")));
    ASSERT_FALSE(aborted.completed);
    const core::RaceGridResult abortedView = aborted.gridDetail();
    EXPECT_FALSE(abortedView.completed);
    EXPECT_FALSE(abortedView.cancelled);
    EXPECT_EQ(abortedView.latencyCycles, aborted.latencyCycles);
    EXPECT_EQ(abortedView.events, aborted.events);

    // A pre-cancelled solve.
    core::CancelToken token;
    token.cancel();
    RaceProblem problem =
        RaceProblem::pairwiseAlignment(costs, dna("GATTACA"), dna("GCATGCT"));
    problem.cancel = &token;
    const RaceResult cancelled = engine.solve(problem);
    ASSERT_TRUE(cancelled.cancelled);
    const core::RaceGridResult cancelledView = cancelled.gridDetail();
    EXPECT_FALSE(cancelledView.completed);
    EXPECT_TRUE(cancelledView.cancelled);

    // And a completed one still reads completed.
    problem.cancel = nullptr;
    const core::RaceGridResult view = engine.solve(problem).gridDetail();
    EXPECT_TRUE(view.completed);
    EXPECT_FALSE(view.cancelled);
}

// ------------------------------------------------- score-only solves

/**
 * Solve `problem` with and without arrival detail and assert the two
 * results are identical but for the detail, which the score-only
 * solve leaves empty; the kernel counters must match too.
 */
void
expectScoreOnlyMatchesFull(RaceEngine &engine, RaceProblem problem)
{
    core::KernelCounters fullCounters, bareCounters;
    problem.counters = &fullCounters;
    const RaceResult full = engine.solve(problem);
    problem.arrivals = false;
    problem.counters = &bareCounters;
    const RaceResult bare = engine.solve(problem);

    EXPECT_EQ(bare.arrival.rows(), 0u);
    EXPECT_TRUE(bare.nodeArrival.empty());
    EXPECT_EQ(bare.kind, full.kind);
    EXPECT_EQ(bare.backend, full.backend);
    EXPECT_EQ(bare.score, full.score);
    EXPECT_EQ(bare.racedCost, full.racedCost);
    EXPECT_EQ(bare.latencyCycles, full.latencyCycles);
    EXPECT_EQ(bare.events, full.events);
    EXPECT_EQ(bare.completed, full.completed);
    EXPECT_EQ(bare.cancelled, full.cancelled);
    EXPECT_EQ(bare.accepted, full.accepted);
    EXPECT_EQ(bare.cyclesUsed, full.cyclesUsed);
    EXPECT_EQ(bare.nodes, full.nodes);
    EXPECT_EQ(bare.cellsFired, full.cellsFired);
    ASSERT_EQ(bare.estimate.has_value(), full.estimate.has_value());
    if (full.estimate) {
        EXPECT_EQ(bare.estimate->wallTimeNs, full.estimate->wallTimeNs);
        EXPECT_EQ(bare.estimate->areaUm2, full.estimate->areaUm2);
        EXPECT_EQ(bare.estimate->energyJ, full.estimate->energyJ);
        EXPECT_EQ(bare.estimate->gateCount, full.estimate->gateCount);
        EXPECT_EQ(bare.estimate->dffCount, full.estimate->dffCount);
    }
    EXPECT_EQ(bareCounters.events, fullCounters.events);
    EXPECT_EQ(bareCounters.bucketsDrained, fullCounters.bucketsDrained);
    EXPECT_EQ(bareCounters.scratchHighWater, fullCounters.scratchHighWater);
    EXPECT_EQ(bareCounters.lanesOccupied, fullCounters.lanesOccupied);
    EXPECT_EQ(bareCounters.cancels, fullCounters.cancels);
    EXPECT_EQ(bareCounters.horizonAborts, fullCounters.horizonAborts);
}

TEST(ApiEngine, ScoreOnlySolvesEqualFullSolvesOnBothBackends)
{
    const ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    util::Rng rng(1404);
    core::CancelToken cancelled;
    cancelled.cancel();
    for (BackendKind backend :
         {BackendKind::Behavioral, BackendKind::GateLevel}) {
        SCOPED_TRACE(api::backendKindName(backend));
        EngineConfig config = configFor(backend);
        config.withEstimates = true;
        RaceEngine engine(config);
        for (int round = 0; round < 3; ++round) {
            const Sequence a = Sequence::random(rng, Alphabet::dna(), 6);
            const Sequence b = Sequence::random(rng, Alphabet::dna(), 7);
            expectScoreOnlyMatchesFull(
                engine, RaceProblem::pairwiseAlignment(costs, a, b));
            expectScoreOnlyMatchesFull(
                engine, RaceProblem::generalizedAlignment(
                            ScoreMatrix::dnaLongestPath(), a, b));

            // Screens under, at and over the score: accepted, exact,
            // and aborted by the Section 6 horizon.
            const bio::Score score = bio::globalScore(a, b, costs);
            for (bio::Score threshold :
                 {bio::Score(0), score - 1, score, score + 3})
                expectScoreOnlyMatchesFull(
                    engine,
                    RaceProblem::thresholdScreen(costs, threshold, a, b));
        }

        // GraphAlign: unbounded, screened under and over its distance,
        // and pre-cancelled.
        pangraph::VariationGraphParams params;
        params.backboneSegments = 3;
        params.maxLabel = 4;
        auto graph = std::make_shared<pangraph::VariationGraph>(
            pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
        const Sequence read = pangraph::sampleRead(
            rng, *graph, bio::MutationModel::uniform(0.25));
        const RaceResult full =
            engine.solve(RaceProblem::graphAlign(costs, read, graph));
        ASSERT_TRUE(full.completed);
        for (bio::Score threshold :
             {bio::kScoreInfinity, full.racedCost, full.racedCost - 1})
            expectScoreOnlyMatchesFull(
                engine,
                RaceProblem::graphAlign(costs, read, graph, threshold));
        RaceProblem stopped = RaceProblem::graphAlign(costs, read, graph);
        stopped.cancel = &cancelled;
        expectScoreOnlyMatchesFull(engine, stopped);
    }
}

} // namespace
