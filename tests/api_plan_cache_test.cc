/**
 * @file
 * Tests for the RaceEngine plan cache: repeated queries over one
 * matrix reuse one planned fabric (observable through the plansBuilt
 * stat) -- at any string length, except on the sized GateLevel fabric
 * -- different matrices get distinct plans (the same weights over
 * other letters too), the LRU capacity evicts, validate() and rejected
 * trySolve() calls leave the cache as it was, and caching never
 * changes results.
 */

#include <gtest/gtest.h>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/generate.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::BackendKind;
using api::EngineConfig;
using api::RaceEngine;
using api::RaceProblem;
using racelogic::ErrorCode;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

Sequence
dna(const std::string &text)
{
    return Sequence(Alphabet::dna(), text);
}

/** Fig. 2b's weights, symbol for symbol, over other `letters`. */
ScoreMatrix
fig2bOver(const std::string &letters)
{
    const ScoreMatrix fig2b = ScoreMatrix::dnaShortestPath();
    ScoreMatrix relabelled(Alphabet(letters), bio::ScoreKind::Cost);
    for (bio::Symbol x = 0; x < 4; ++x) {
        relabelled.setGap(x, fig2b.gap(x));
        for (bio::Symbol y = 0; y < 4; ++y)
            relabelled.setPair(x, y, fig2b.pair(x, y));
    }
    return relabelled;
}

TEST(ApiPlanCache, SameShapeQueriesHitTheCache)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine engine;

    util::Rng rng(4);
    for (int round = 0; round < 10; ++round) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 8);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 8);
        engine.solve(RaceProblem::pairwiseAlignment(costs, a, b));
    }
    EXPECT_EQ(engine.stats().solves, 10u);
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
    EXPECT_EQ(engine.stats().planCacheHits, 9u);
    EXPECT_EQ(engine.planCacheSize(), 1u);
}

TEST(ApiPlanCache, BehavioralPlansAreSharedAcrossLengths)
{
    // The behavioral racer takes strings of any length, so pairs of
    // different sizes over one matrix share one plan -- and each
    // still scores exactly.
    ScoreMatrix fig2b = ScoreMatrix::dnaShortestPath();
    RaceEngine engine;
    util::Rng rng(8);
    for (size_t n = 3; n < 9; ++n) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), n);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 2 * n - 1);
        auto r = engine.solve(RaceProblem::pairwiseAlignment(fig2b, a, b));
        EXPECT_EQ(r.score, bio::globalScore(a, b, fig2b)) << n;
        EXPECT_EQ(r.nodes, (a.size() + 1) * (b.size() + 1)) << n;
    }
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
    EXPECT_EQ(engine.stats().planCacheHits, 5u);
    EXPECT_EQ(engine.planCacheSize(), 1u);
}

TEST(ApiPlanCache, GateLevelFabricsAreSizedPerGrid)
{
    // The synthesized fabric is sized: different grid sizes get
    // different plans, and a repeated size reuses its fabric.
    ScoreMatrix fig2b = ScoreMatrix::dnaShortestPath();
    EngineConfig config;
    config.backend = BackendKind::GateLevel;
    RaceEngine engine(config);

    engine.solve(RaceProblem::pairwiseAlignment(fig2b, dna("ACTG"),
                                                dna("ACTG")));
    engine.solve(RaceProblem::pairwiseAlignment(fig2b, dna("ACTGA"),
                                                dna("ACTG")));
    EXPECT_EQ(engine.stats().plansBuilt, 2u);
    auto again = engine.solve(RaceProblem::pairwiseAlignment(
        fig2b, dna("TTTTA"), dna("ACTG")));
    EXPECT_EQ(again.score, bio::globalScore(dna("TTTTA"), dna("ACTG"),
                                            fig2b));
    EXPECT_EQ(engine.stats().plansBuilt, 2u);
    EXPECT_EQ(engine.stats().planCacheHits, 1u);
    EXPECT_EQ(engine.planCacheSize(), 2u);
}

TEST(ApiPlanCache, DifferentMatricesDoNotCollide)
{
    ScoreMatrix uniform2 =
        ScoreMatrix::uniform(Alphabet::dna(), bio::ScoreKind::Cost, 2);
    ScoreMatrix fig2b = ScoreMatrix::dnaShortestPath();
    RaceEngine engine;

    // Different matrix contents -> different plans, and each matrix's
    // own semantics are preserved (no cross-contamination).
    auto uniformResult = engine.solve(RaceProblem::pairwiseAlignment(
        uniform2, dna("ACTG"), dna("TTTT")));
    auto fig2bResult = engine.solve(RaceProblem::pairwiseAlignment(
        fig2b, dna("ACTG"), dna("TTTT")));
    EXPECT_EQ(engine.stats().plansBuilt, 2u);
    // All-diagonal costs 4 * 2 = 8 under the uniform matrix; Fig. 2b
    // prefers one T-T match plus six unit indels = 7.  Both must
    // survive caching side by side.
    EXPECT_EQ(uniformResult.score, 8);
    EXPECT_EQ(fig2bResult.score, 7);
}

TEST(ApiPlanCache, LruCapacityEvicts)
{
    EngineConfig config;
    config.planCacheCapacity = 1;
    RaceEngine engine(config);

    RaceProblem first = RaceProblem::pairwiseAlignment(
        ScoreMatrix::dnaShortestPathInfMismatch(), dna("ACT"), dna("ACT"));
    RaceProblem second = RaceProblem::pairwiseAlignment(
        ScoreMatrix::dnaShortestPath(), dna("ACTGACT"), dna("ACTGACT"));

    engine.solve(first);  // build first
    engine.solve(second); // build second, evict first
    engine.solve(first);  // rebuild first
    EXPECT_EQ(engine.stats().plansBuilt, 3u);
    EXPECT_EQ(engine.stats().planCacheHits, 0u);
    EXPECT_EQ(engine.planCacheSize(), 1u);
}

TEST(ApiPlanCache, GateLevelLruCapacityEvictsBySize)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    EngineConfig config;
    config.backend = BackendKind::GateLevel;
    config.planCacheCapacity = 1;
    RaceEngine engine(config);

    RaceProblem small =
        RaceProblem::pairwiseAlignment(costs, dna("ACT"), dna("ACT"));
    RaceProblem large = RaceProblem::pairwiseAlignment(
        costs, dna("ACTGACT"), dna("ACTGACT"));

    engine.solve(small); // build small
    engine.solve(large); // build large, evict small
    engine.solve(small); // rebuild small
    EXPECT_EQ(engine.stats().plansBuilt, 3u);
    EXPECT_EQ(engine.stats().planCacheHits, 0u);
    EXPECT_EQ(engine.planCacheSize(), 1u);
}

TEST(ApiPlanCache, ZeroCapacityDisablesCaching)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    EngineConfig config;
    config.planCacheCapacity = 0;
    RaceEngine engine(config);

    RaceProblem p =
        RaceProblem::pairwiseAlignment(costs, dna("ACT"), dna("ACT"));
    engine.solve(p);
    engine.solve(p);
    EXPECT_EQ(engine.stats().plansBuilt, 2u);
    EXPECT_EQ(engine.stats().planCacheHits, 0u);
    EXPECT_EQ(engine.planCacheSize(), 0u);
}

TEST(ApiPlanCache, GateLevelFabricIsReusedAcrossSolves)
{
    // Synthesis is the expensive step on the gate-level backend; the
    // cache must make repeat same-shape queries skip it while new
    // strings still load onto the fabric's primary inputs correctly.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    EngineConfig config;
    config.backend = BackendKind::GateLevel;
    RaceEngine engine(config);

    util::Rng rng(17);
    for (int round = 0; round < 4; ++round) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 5);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 5);
        auto r = engine.solve(
            RaceProblem::pairwiseAlignment(costs, a, b));
        EXPECT_TRUE(r.completed);
    }
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
    EXPECT_EQ(engine.stats().planCacheHits, 3u);
}

TEST(ApiPlanCache, ThresholdIsNotPartOfTheShape)
{
    // The threshold is a cycle budget, not hardware: screens with
    // different thresholds share one fabric plan.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine engine;
    engine.solve(RaceProblem::thresholdScreen(costs, 6, dna("ACTG"),
                                              dna("AGTG")));
    engine.solve(RaceProblem::thresholdScreen(costs, 12, dna("ACTG"),
                                              dna("AGTG")));
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
    EXPECT_EQ(engine.stats().planCacheHits, 1u);
}

TEST(ApiPlanCache, GraphAlignPlansKeyOnTopologyNotReads)
{
    // One loaded pangenome serves many reads: distinct reads (and
    // distinct read lengths, and distinct thresholds) all hit the
    // same plan, because the key is the graph topology + matrix.
    util::Rng rng(6);
    auto graph = std::make_shared<pangraph::VariationGraph>(
        pangraph::randomVariationGraph(
            rng, Alphabet::dna(), pangraph::VariationGraphParams{}));
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    RaceEngine engine;
    for (int round = 0; round < 10; ++round) {
        Sequence read = Sequence::random(
            rng, Alphabet::dna(),
            static_cast<size_t>(rng.uniformInt(4, 20)));
        bio::Score threshold =
            round % 2 == 0 ? bio::kScoreInfinity
                           : static_cast<bio::Score>(10 + round);
        engine.solve(api::RaceProblem::graphAlign(costs, read, graph,
                                                  threshold));
    }
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
    EXPECT_EQ(engine.stats().planCacheHits, 9u);
    EXPECT_EQ(engine.planCacheSize(), 1u);
}

TEST(ApiPlanCache, GraphAlignNeverCollidesWithGridShapes)
{
    // Grid-family and GraphAlign plans share one LRU; interleaving
    // them over the same matrix must build exactly one plan each and
    // keep both correct.
    util::Rng rng(13);
    auto graph = std::make_shared<pangraph::VariationGraph>(
        pangraph::randomVariationGraph(
            rng, Alphabet::dna(), pangraph::VariationGraphParams{}));
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    RaceEngine engine;

    Sequence read = Sequence::random(rng, Alphabet::dna(), 8);
    Sequence other = Sequence::random(rng, Alphabet::dna(), 8);
    for (int round = 0; round < 3; ++round) {
        auto gridResult = engine.solve(
            api::RaceProblem::pairwiseAlignment(costs, read, other));
        auto graphResult = engine.solve(
            api::RaceProblem::graphAlign(costs, read, graph));
        EXPECT_EQ(gridResult.score,
                  bio::globalScore(read, other, costs));
        EXPECT_TRUE(graphResult.completed);
    }
    EXPECT_EQ(engine.stats().plansBuilt, 2u);
    EXPECT_EQ(engine.stats().planCacheHits, 4u);
    EXPECT_EQ(engine.planCacheSize(), 2u);
}

TEST(ApiPlanCache, DistinctGraphTopologiesGetDistinctPlans)
{
    // Same matrix, same segment/link counts, different labels: the
    // fingerprint in the key (re-verified structurally on every hit)
    // must keep the plans apart.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    auto one = std::make_shared<pangraph::VariationGraph>(
        Alphabet::dna());
    one->addSegment("a", dna("ACTG"));
    auto two = std::make_shared<pangraph::VariationGraph>(
        Alphabet::dna());
    two->addSegment("a", dna("TTTT"));

    RaceEngine engine;
    Sequence read = dna("ACTG");
    auto first =
        engine.solve(api::RaceProblem::graphAlign(costs, read, one));
    auto second =
        engine.solve(api::RaceProblem::graphAlign(costs, read, two));
    EXPECT_EQ(engine.stats().plansBuilt, 2u);
    // One-segment graphs are pairwise alignments: ACTG vs ACTG all
    // matches (4 x 1); vs TTTT one T-T match + mismatches/indels.
    EXPECT_EQ(first.score, 4);
    EXPECT_EQ(second.score, bio::globalScore(read, dna("TTTT"), costs));
}

TEST(ApiPlanCache, SameWeightsOverOtherLettersGetTheirOwnPlan)
{
    // A plan's racers encode its matrix's letters, so the same weights
    // over other letters are another plan.  Alternating between the
    // two builds each once, and every later solve hits its own.
    const ScoreMatrix acgt = ScoreMatrix::dnaShortestPath();
    const ScoreMatrix tgca = fig2bOver("TGCA");
    for (BackendKind backend : {BackendKind::Behavioral,
                                BackendKind::GateLevel,
                                BackendKind::Systolic}) {
        EngineConfig config;
        config.backend = backend;
        RaceEngine engine(config);
        util::Rng rng(31);
        for (int round = 0; round < 4; ++round)
            for (const ScoreMatrix *costs : {&acgt, &tgca}) {
                // One grid size: one sized GateLevel fabric per matrix.
                Sequence a = Sequence::random(rng, costs->alphabet(), 6);
                Sequence b = Sequence::random(rng, costs->alphabet(), 7);
                auto solved = engine.trySolve(
                    RaceProblem::pairwiseAlignment(*costs, a, b));
                ASSERT_TRUE(solved.ok()) << solved.status().message();
                EXPECT_EQ(solved->score, bio::globalScore(a, b, *costs))
                    << api::backendKindName(backend) << " round " << round
                    << " over " << costs->alphabet().letters();
            }
        EXPECT_EQ(engine.stats().plansBuilt, 2u)
            << api::backendKindName(backend);
        EXPECT_EQ(engine.stats().planCacheHits, 6u)
            << api::backendKindName(backend);
    }

    // A GraphAlign problem whose matrix's letters are not the graph's
    // is refused the same way whether or not a plan over the graph's
    // letters is cached.
    auto graph = std::make_shared<pangraph::VariationGraph>(Alphabet::dna());
    graph->addSegment("s", dna("ACGTAC"));
    RaceEngine engine;
    const RaceProblem foreign = api::RaceProblem::graphAlign(
        tgca, Sequence(tgca.alphabet(), "ACGT"), graph);
    const auto fresh = engine.trySolve(foreign);
    ASSERT_FALSE(fresh.ok());
    EXPECT_EQ(fresh.status().code(), ErrorCode::InvalidArgument);
    ASSERT_TRUE(
        engine.trySolve(api::RaceProblem::graphAlign(acgt, dna("ACGT"), graph))
            .ok());
    const auto cached = engine.trySolve(foreign);
    ASSERT_FALSE(cached.ok());
    EXPECT_EQ(cached.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(cached.status().message(), fresh.status().message());
}

TEST(ApiPlanCache, ValidateAndRejectedTrySolvesLeaveTheCacheAsItWas)
{
    // validate() is read-only, and so is a trySolve() that a check
    // rejects: neither counts, caches nor moves a plan up the LRU.  At
    // capacity 2, the LRU order shows through the next eviction.
    auto graph = std::make_shared<pangraph::VariationGraph>(Alphabet::dna());
    graph->addSegment("s", dna("ACGTACGT"));
    const ScoreMatrix fig2b = ScoreMatrix::dnaShortestPath();
    EngineConfig config;
    config.planCacheCapacity = 2;
    config.maxProductStates = 100; // (|read| + 1) x 9 positions + 1
    RaceEngine engine(config);

    const RaceProblem older =
        api::RaceProblem::graphAlign(fig2b, dna("ACGT"), graph);
    const RaceProblem newer =
        RaceProblem::pairwiseAlignment(fig2b, dna("ACGT"), dna("AGGT"));
    ASSERT_TRUE(engine.trySolve(older).ok());
    ASSERT_TRUE(engine.trySolve(newer).ok());

    // The budget and runtime-input rejects carry `older`'s plan key,
    // so a lookup made before their check would move it up.
    RaceProblem negative = older;
    negative.threshold = -1;
    ScoreMatrix overCap = fig2b;
    overCap.setGap(0, core::kMaxWavefrontWeight + 1);
    struct Rejected {
        const char *check;
        RaceProblem problem;
        ErrorCode code;
    };
    const Rejected rejected[] = {
        {"budget",
         api::RaceProblem::graphAlign(fig2b, dna("ACGTACGTACGTACGTACGT"),
                                      graph),
         ErrorCode::ResourceExhausted},
        {"runtime input", negative, ErrorCode::InvalidArgument},
        {"deep",
         RaceProblem::pairwiseAlignment(overCap, dna("ACGT"), dna("AGGT")),
         ErrorCode::InvalidArgument},
    };

    const api::EngineStats before = engine.stats();
    const size_t bytes = engine.planCacheBytes();
    auto expectUnchanged = [&](const std::string &call) {
        const api::EngineStats now = engine.stats();
        EXPECT_EQ(now.solves, before.solves) << call;
        EXPECT_EQ(now.plansBuilt, before.plansBuilt) << call;
        EXPECT_EQ(now.planCacheHits, before.planCacheHits) << call;
        EXPECT_EQ(engine.planCacheSize(), 2u) << call;
        EXPECT_EQ(engine.planCacheBytes(), bytes) << call;
    };
    EXPECT_TRUE(engine.validate(older).ok());
    expectUnchanged("validate of a cached problem");
    EXPECT_TRUE(engine.validate(newer).ok());
    expectUnchanged("validate of the newest cached problem");
    for (const Rejected &r : rejected) {
        EXPECT_EQ(engine.validate(r.problem).code(), r.code) << r.check;
        expectUnchanged(std::string("validate rejected by ") + r.check);
        const auto tried = engine.trySolve(r.problem);
        ASSERT_FALSE(tried.ok()) << r.check;
        EXPECT_EQ(tried.status().code(), r.code) << r.check;
        expectUnchanged(std::string("trySolve rejected by ") + r.check);
    }

    // `older` is still the least recently used: a third plan evicts
    // it, and `newer` still hits.
    ASSERT_TRUE(engine
                    .trySolve(RaceProblem::pairwiseAlignment(
                        ScoreMatrix::dnaShortestPathInfMismatch(),
                        dna("ACGT"), dna("AGGT")))
                    .ok());
    ASSERT_TRUE(engine.trySolve(newer).ok());
    EXPECT_EQ(engine.stats().plansBuilt, before.plansBuilt + 1);
    EXPECT_EQ(engine.stats().planCacheHits, before.planCacheHits + 1);
    ASSERT_TRUE(engine.trySolve(older).ok());
    EXPECT_EQ(engine.stats().plansBuilt, before.plansBuilt + 2);
}

TEST(ApiPlanCache, ClearPlanCacheDropsPlansKeepsStats)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine engine;
    engine.solve(RaceProblem::pairwiseAlignment(costs, dna("ACT"),
                                                dna("ACT")));
    EXPECT_EQ(engine.planCacheSize(), 1u);
    engine.clearPlanCache();
    EXPECT_EQ(engine.planCacheSize(), 0u);
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
    engine.solve(RaceProblem::pairwiseAlignment(costs, dna("ACT"),
                                                dna("ACT")));
    EXPECT_EQ(engine.stats().plansBuilt, 2u);
}

} // namespace
