/**
 * @file
 * Tests for Section 6 threshold screening through api::RaceEngine:
 * exactness of the verdict, cycle accounting at and past the
 * threshold, and the throughput gain of early termination on a
 * database screen.
 */

#include <gtest/gtest.h>

#include <vector>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::EngineConfig;
using api::RaceEngine;
using api::RaceProblem;
using api::RaceResult;
using bio::Alphabet;
using bio::Score;
using bio::ScoreMatrix;
using bio::Sequence;

/** One screen of `candidate` against `query` over Fig. 2b costs. */
RaceResult
screenPair(Score threshold, const Sequence &query,
           const Sequence &candidate)
{
    RaceEngine engine;
    return engine.solve(RaceProblem::thresholdScreen(
        ScoreMatrix::dnaShortestPathInfMismatch(), threshold, query,
        candidate));
}

/**
 * RaceEngine::screen() in measurement mode: every race runs to
 * completion, so fullRaceCycles() knows what early termination saved.
 */
api::BatchOutcome
measureScreen(Score threshold, const Sequence &query,
              const std::vector<Sequence> &database)
{
    EngineConfig config;
    config.earlyTerminate = false;
    config.withEstimates = false;
    config.workerThreads = 2;
    RaceEngine engine(config);
    return engine.screen(ScoreMatrix::dnaShortestPathInfMismatch(),
                         threshold, query, database);
}

TEST(Threshold, SimilarPairReportsExactScoreAndCycles)
{
    const Sequence a(Alphabet::dna(), "ACGTAC");
    const RaceResult r = screenPair(8, a, a);
    EXPECT_TRUE(r.accepted);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.score, 6);
    EXPECT_EQ(r.cyclesUsed, 6u);
}

TEST(Threshold, DissimilarPairAbortsAtThreshold)
{
    const Sequence a(Alphabet::dna(), "AAAAAA");
    const Sequence b(Alphabet::dna(), "CCCCCC");
    const RaceResult r = screenPair(5, a, b); // true cost 12
    EXPECT_FALSE(r.accepted);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.score, bio::kScoreInfinity);
    EXPECT_EQ(r.cyclesUsed, 5u)
        << "the engine learns the verdict at the threshold cycle";
    EXPECT_EQ(r.latencyCycles, 5u) << "early termination stops the race";
}

TEST(Threshold, BoundaryScoreEqualToThresholdIsSimilar)
{
    const Sequence a(Alphabet::dna(), "ACGTAC");
    const RaceResult r = screenPair(6, a, a); // score 6 == threshold
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.score, 6);
    EXPECT_EQ(r.cyclesUsed, 6u);
}

class ThresholdExactness : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdExactness, VerdictMatchesDpFilterExactly)
{
    // Aborting early can never misclassify: arrival times are
    // monotone, so "not fired by T" == "score > T".
    util::Rng rng(7000 + GetParam());
    const ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    const Score threshold = 4 + rng.uniformInt(0, 12);
    const Sequence query = Sequence::random(rng, Alphabet::dna(), 12);
    for (int candidate = 0; candidate < 12; ++candidate) {
        const Sequence c =
            rng.bernoulli(0.5)
                ? mutate(rng, query, bio::MutationModel::uniform(0.15))
                : Sequence::random(rng, Alphabet::dna(), 12);
        if (c.empty())
            continue;
        const RaceResult r = screenPair(threshold, query, c);
        const Score truth = bio::globalScore(query, c, m);
        EXPECT_EQ(r.accepted, truth <= threshold);
        if (r.accepted) {
            EXPECT_EQ(r.score, truth);
        }
        EXPECT_LE(r.cyclesUsed, static_cast<sim::Tick>(threshold));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdExactness,
                         ::testing::Range(0, 15));

TEST(Threshold, DatabaseScreeningAggregates)
{
    util::Rng rng(91);
    const bio::ScreeningWorkload wl = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 24, 60, 0.2,
        bio::MutationModel::uniform(0.08));
    const api::BatchOutcome out = measureScreen(32, wl.query, wl.database);
    EXPECT_EQ(out.results.size(), 60u);
    ASSERT_TRUE(out.schedule.has_value());
    EXPECT_EQ(out.schedule->accepted.size(), 60u);
    EXPECT_LE(out.busyCycles(), out.fullRaceCycles());
    EXPECT_GE(out.speedup(), 1.0);
}

TEST(Threshold, UnrelatedDatabaseGivesLargeSpeedup)
{
    // With rare matches, aborted races dominate: busy cycles drop
    // from ~2N (complete-mismatch full race) to the threshold.
    util::Rng rng(92);
    const size_t n = 40;
    const Sequence query = Sequence::random(rng, Alphabet::dna(), n);
    std::vector<Sequence> database;
    for (int i = 0; i < 50; ++i)
        database.push_back(Sequence::random(rng, Alphabet::dna(), n));
    // Just above the best-case n cycles.
    const api::BatchOutcome out = measureScreen(44, query, database);
    EXPECT_LT(out.busyCycles(), out.fullRaceCycles());
    EXPECT_GT(out.speedup(), 1.2);
}

TEST(Threshold, RelatedEntriesAreAccepted)
{
    util::Rng rng(93);
    const Sequence query = Sequence::random(rng, Alphabet::dna(), 30);
    const Sequence relative =
        mutate(rng, query, bio::MutationModel{0.05, 0.0, 0.0});
    EXPECT_TRUE(screenPair(40, query, relative).accepted);
}

} // namespace
