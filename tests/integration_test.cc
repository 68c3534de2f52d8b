/**
 * @file
 * End-to-end integration tests through api::RaceEngine: cost and
 * similarity matrices at the front door, agreement between the
 * temporal race, the systolic baseline and the DP oracle, gate-level
 * round trips, a full screening pipeline, and determinism.
 */

#include <gtest/gtest.h>

#include <utility>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/bio/score_convert.h"
#include "rl/systolic/lipton_lopresti.h"
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

RaceEngine
engineOn(BackendKind backend)
{
    EngineConfig config;
    config.backend = backend;
    return RaceEngine(config);
}

TEST(FrontDoor, CostMatrixPassthrough)
{
    RaceEngine engine;
    const Sequence p(Alphabet::dna(), "ACTGAGA");
    const Sequence q(Alphabet::dna(), "GATTCGA");
    const RaceResult r = engine.solve(RaceProblem::pairwiseAlignment(
        ScoreMatrix::dnaShortestPathInfMismatch(), q, p));
    EXPECT_EQ(r.score, 10);
    EXPECT_EQ(r.racedCost, 10);
    EXPECT_EQ(r.latencyCycles, 10u);
}

TEST(FrontDoor, SimilarityMatrixAutoConverts)
{
    const ScoreMatrix blosum = ScoreMatrix::blosum62();
    const bio::ShortestPathForm form = bio::toShortestPathForm(blosum);
    EXPECT_EQ(form.bias, 6);
    const Sequence a(Alphabet::protein(), "HEAGAWGHEE");
    const Sequence b(Alphabet::protein(), "PAWHEAE");
    RaceEngine engine;
    const RaceResult r =
        engine.solve(RaceProblem::pairwiseAlignment(blosum, a, b));
    EXPECT_EQ(r.score, bio::globalScore(a, b, blosum));
    // The race ran on the Section 5 costs; the score is recovered.
    EXPECT_EQ(r.racedCost, bio::globalScore(a, b, form.costs));
    EXPECT_EQ(form.recoverScore(r.racedCost, a.size(), b.size()),
              r.score);
    EXPECT_GT(r.latencyCycles, 0u);
}

class EngineVsOracles : public ::testing::TestWithParam<int> {};

TEST_P(EngineVsOracles, TripleAgreementRaceSystolicDp)
{
    // The load-bearing claim of the whole reproduction: three
    // completely independent engines -- the temporal race, the
    // mod-4 systolic array, and the textbook DP -- produce the same
    // score on random inputs.
    util::Rng rng(11000 + GetParam());
    const ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceEngine race = engineOn(BackendKind::Behavioral);
    RaceEngine array = engineOn(BackendKind::Systolic);
    const systolic::LiptonLoprestiArray sys(m);
    for (int trial = 0; trial < 5; ++trial) {
        const size_t n = 1 + rng.index(28);
        const size_t k = 1 + rng.index(28);
        const Sequence a = Sequence::random(rng, Alphabet::dna(), n);
        const Sequence b = Sequence::random(rng, Alphabet::dna(), k);
        const bio::Score dp = bio::globalScore(a, b, m);
        const RaceProblem problem = RaceProblem::pairwiseAlignment(m, a, b);
        EXPECT_EQ(race.solve(problem).score, dp);
        EXPECT_EQ(array.solve(problem).score, dp);
        EXPECT_EQ(sys.align(a, b).score, dp);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineVsOracles, ::testing::Range(0, 10));

class GateLevelBackend : public ::testing::TestWithParam<int> {};

TEST_P(GateLevelBackend, CrossChecksBehavioralModel)
{
    // The synthesized netlist races to the cycle the behavioral
    // model and the DP predict.
    util::Rng rng(12000 + GetParam());
    const ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    const Sequence a =
        Sequence::random(rng, Alphabet::dna(), 1 + rng.index(6));
    const Sequence b =
        Sequence::random(rng, Alphabet::dna(), 1 + rng.index(6));
    const RaceProblem problem = RaceProblem::pairwiseAlignment(m, a, b);
    const RaceResult gates = engineOn(BackendKind::GateLevel).solve(problem);
    const RaceResult model = engineOn(BackendKind::Behavioral).solve(problem);
    EXPECT_EQ(gates.score, bio::globalScore(a, b, m));
    EXPECT_EQ(gates.racedCost, model.racedCost);
    EXPECT_EQ(gates.latencyCycles, model.latencyCycles);
}

TEST_P(GateLevelBackend, Blosum62GateLevelRoundTrip)
{
    util::Rng rng(13000 + GetParam());
    // Tiny strings: each generalized protein cell is ~10^3 gates.
    const Sequence a = Sequence::random(rng, Alphabet::protein(), 2);
    const Sequence b = Sequence::random(rng, Alphabet::protein(), 2);
    const RaceResult r = engineOn(BackendKind::GateLevel)
                             .solve(RaceProblem::pairwiseAlignment(
                                 ScoreMatrix::blosum62(), a, b));
    EXPECT_EQ(r.score, bio::globalScore(a, b, ScoreMatrix::blosum62()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateLevelBackend, ::testing::Range(0, 5));

TEST(ScreeningPipeline, EndToEndRecallAndPrecisionProxy)
{
    // Section 6 workload: screen a database where a minority of
    // entries are genuine relatives of the query.  With a sane
    // threshold the screen keeps relatives and rejects chance
    // similarities -- checked against the exact DP filter rather
    // than the generator's ground truth (mutation can occasionally
    // produce a distant relative; the hardware is exact either way).
    util::Rng rng(99);
    const bio::ScreeningWorkload wl = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 32, 80, 0.3,
        bio::MutationModel{0.04, 0.02, 0.02});
    const ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    const bio::Score threshold = 44;
    // Measurement mode: every race runs to completion, so the outcome
    // knows the full-race cycles early termination saves.
    EngineConfig config;
    config.earlyTerminate = false;
    config.workerThreads = 2;
    RaceEngine engine(config);
    const api::BatchOutcome out =
        engine.screen(m, threshold, wl.query, wl.database);
    ASSERT_EQ(out.results.size(), wl.database.size());
    for (size_t i = 0; i < wl.database.size(); ++i) {
        const bool dpSimilar =
            bio::globalScore(wl.query, wl.database[i], m) <= threshold;
        EXPECT_EQ(out.results[i].accepted, dpSimilar) << "entry " << i;
    }
    EXPECT_GT(out.acceptedCount(), 0u);
    EXPECT_LT(out.acceptedCount(), wl.database.size());
    EXPECT_GT(out.speedup(), 1.0);
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults)
{
    // The whole stack is deterministic under a fixed seed --
    // required for reproducible experiments.
    auto run = [] {
        util::Rng rng(555);
        const Sequence a = Sequence::random(rng, Alphabet::protein(), 24);
        const Sequence b = Sequence::random(rng, Alphabet::protein(), 20);
        RaceEngine engine;
        const RaceResult r = engine.solve(RaceProblem::pairwiseAlignment(
            ScoreMatrix::blosum62(), a, b));
        return std::make_pair(r.score, r.latencyCycles);
    };
    EXPECT_EQ(run(), run());
}

} // namespace
