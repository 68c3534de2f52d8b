/**
 * @file
 * Tests for the behavioral race-grid aligner (Fig. 4): equivalence
 * with the DP oracle, the paper's exact propagation table, latency
 * corner formulas, and the wavefront records behind Fig. 6.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "rl/bio/align_dp.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/race_grid.h"
#include "rl/core/wavefront.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using core::RaceGridAligner;
using core::RaceGridResult;

Sequence
dna(const std::string &text)
{
    return Sequence(Alphabet::dna(), text);
}

// ------------------------------------------------- paper propagation

TEST(RaceGrid, Fig4cPropagationTableReproducedExactly)
{
    // Fig. 4c: "The number inside each cell represents timing, i.e.
    // clock cycle at which signal '1' reached the output of an OR
    // gate of a particular unit cell."  Rows = GATTCGA, cols =
    // ACTGAGA, mismatch = infinity.
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(dna("GATTCGA"), dna("ACTGAGA"));
    const sim::Tick expect[8][8] = {
        {0, 1, 2, 3, 4, 5, 6, 7},
        {1, 2, 3, 4, 4, 5, 6, 7},
        {2, 2, 3, 4, 5, 5, 6, 7},
        {3, 3, 4, 4, 5, 6, 7, 8},
        {4, 4, 5, 5, 6, 7, 8, 9},
        {5, 5, 5, 6, 7, 8, 9, 10},
        {6, 6, 6, 7, 7, 8, 9, 10},
        {7, 7, 7, 8, 8, 8, 9, 10},
    };
    ASSERT_EQ(r.arrival.rows(), 8u);
    ASSERT_EQ(r.arrival.cols(), 8u);
    for (size_t i = 0; i < 8; ++i)
        for (size_t j = 0; j < 8; ++j)
            EXPECT_EQ(r.arrival.at(i, j), expect[i][j])
                << "cell (" << i << "," << j << ")";
    EXPECT_EQ(r.score, 10);
    EXPECT_EQ(r.latencyCycles, 10u);
}

TEST(RaceGrid, ArrivalTableRendering)
{
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(dna("AC"), dna("AC"));
    std::string table = r.arrivalTable();
    EXPECT_EQ(table, "0 1 2\n1 1 2\n2 2 2\n");
}

// ------------------------------------------------------- equivalence

class GridVsDp : public ::testing::TestWithParam<int> {};

TEST_P(GridVsDp, ArrivalTimesEqualDpTableEverywhere)
{
    util::Rng rng(100 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    RaceGridAligner aligner(m);
    size_t n = 1 + rng.index(30);
    size_t k = 1 + rng.index(30);
    Sequence a = Sequence::random(rng, Alphabet::dna(), n);
    Sequence b = Sequence::random(rng, Alphabet::dna(), k);
    RaceGridResult r = aligner.align(a, b);
    auto dp = bio::dpTable(a, b, m);
    for (size_t i = 0; i <= n; ++i)
        for (size_t j = 0; j <= k; ++j)
            EXPECT_EQ(r.arrival.at(i, j),
                      static_cast<sim::Tick>(dp(i, j)))
                << "(" << i << "," << j << ")";
    EXPECT_EQ(r.score, dp(n, k));
}

TEST_P(GridVsDp, Fig2bMatrixAlsoMatches)
{
    // The finite mismatch=2 matrix exercises weight-2 diagonal edges.
    util::Rng rng(200 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    RaceGridAligner aligner(m);
    size_t n = 1 + rng.index(20);
    size_t k = 1 + rng.index(20);
    Sequence a = Sequence::random(rng, Alphabet::dna(), n);
    Sequence b = Sequence::random(rng, Alphabet::dna(), k);
    EXPECT_EQ(aligner.align(a, b).score, bio::globalScore(a, b, m));
}

TEST_P(GridVsDp, BinaryAlphabet)
{
    util::Rng rng(300 + GetParam());
    ScoreMatrix m(Alphabet::binary(), bio::ScoreKind::Cost);
    m.setPair(0, 0, 1);
    m.setPair(1, 1, 1);
    m.setPair(0, 1, bio::kScoreInfinity);
    m.setPair(1, 0, bio::kScoreInfinity);
    m.setAllGaps(1);
    RaceGridAligner aligner(m);
    Sequence a = Sequence::random(rng, Alphabet::binary(),
                                  1 + rng.index(25));
    Sequence b = Sequence::random(rng, Alphabet::binary(),
                                  1 + rng.index(25));
    EXPECT_EQ(aligner.align(a, b).score, bio::globalScore(a, b, m));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridVsDp, ::testing::Range(0, 20));

// --------------------------------------------------- latency corners

class LatencyCorners : public ::testing::TestWithParam<size_t> {};

TEST_P(LatencyCorners, BestCaseIsNCycles)
{
    size_t n = GetParam();
    util::Rng rng(17 + n);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    Sequence s = Sequence::random(rng, Alphabet::dna(), n);
    RaceGridResult r = aligner.align(s, s);
    EXPECT_EQ(r.latencyCycles, n)
        << "identical strings ride the weight-1 diagonal";
}

TEST_P(LatencyCorners, WorstCaseIsTwoNCycles)
{
    size_t n = GetParam();
    util::Rng rng(31 + n);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    auto [s, w] = bio::worstCasePair(rng, Alphabet::dna(), n);
    RaceGridResult r = aligner.align(s, w);
    EXPECT_EQ(r.latencyCycles, 2 * n)
        << "complete mismatch is all indels";
}

INSTANTIATE_TEST_SUITE_P(Lengths, LatencyCorners,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55));

// ----------------------------------------------------- wavefront maps

TEST(Wavefront, WorstCaseWavefrontIsAntiDiagonal)
{
    // Fig. 6a: under complete mismatch the wavefront at cycle t is
    // exactly the anti-diagonal i + j = t.
    util::Rng rng(77);
    size_t n = 12;
    auto [s, w] = bio::worstCasePair(rng, Alphabet::dna(), n);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(s, w);
    for (size_t i = 0; i <= n; ++i)
        for (size_t j = 0; j <= n; ++j)
            EXPECT_EQ(r.arrival.at(i, j), i + j);
    EXPECT_EQ(r.wavefrontSize(0), 1u);
    EXPECT_EQ(r.wavefrontSize(n), n + 1);
    EXPECT_EQ(r.wavefrontSize(2 * n), 1u);
}

TEST(Wavefront, BestCaseDiagonalLeadsTheFront)
{
    // Fig. 6b: for identical strings the diagonal cell (t, t) fires
    // at cycle t -- the wavefront's leading point.
    util::Rng rng(78);
    size_t n = 12;
    Sequence s = Sequence::random(rng, Alphabet::dna(), n);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(s, s);
    for (size_t t = 0; t <= n; ++t)
        EXPECT_EQ(r.arrival.at(t, t), t);
    // Off-diagonal cells fire strictly later than the diagonal cell
    // of their own row/column minimum.
    for (size_t i = 0; i <= n; ++i)
        for (size_t j = 0; j <= n; ++j)
            EXPECT_GE(r.arrival.at(i, j), std::max(i, j));
}

TEST(Wavefront, PictureShadesMatchArrivals)
{
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    RaceGridResult r = aligner.align(dna("AA"), dna("AA"));
    // At cycle 1: (0,0) fired (#), (0,1)/(1,0)/(1,1) firing (o),
    // everything at arrival 2 still dark (.).
    std::string pic = r.wavefrontPicture(1);
    EXPECT_EQ(pic, "#o.\noo.\n...\n");
}

TEST(Wavefront, CellsFiredNeverExceedsGrid)
{
    util::Rng rng(79);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPathInfMismatch());
    Sequence a = Sequence::random(rng, Alphabet::dna(), 9);
    Sequence b = Sequence::random(rng, Alphabet::dna(), 14);
    RaceGridResult r = aligner.align(a, b);
    EXPECT_LE(r.cellsFired, 10u * 15u);
    EXPECT_GT(r.cellsFired, 0u);
    EXPECT_GT(r.events, 0u);
}

// --------------------------------------------------------- monotone

TEST(RaceGrid, ArrivalsAreMonotoneAlongEdges)
{
    // Temporal causality: no cell fires before any of the
    // predecessors that could have triggered it.
    util::Rng rng(80);
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPath());
    Sequence a = Sequence::random(rng, Alphabet::dna(), 15);
    Sequence b = Sequence::random(rng, Alphabet::dna(), 11);
    RaceGridResult r = aligner.align(a, b);
    for (size_t i = 0; i <= 15; ++i) {
        for (size_t j = 0; j <= 11; ++j) {
            if (i > 0) {
                EXPECT_LE(r.arrival.at(i, j),
                          r.arrival.at(i - 1, j) + 1);
            }
            if (j > 0) {
                EXPECT_LE(r.arrival.at(i, j),
                          r.arrival.at(i, j - 1) + 1);
            }
            if (i > 0 && j > 0) {
                EXPECT_GE(r.arrival.at(i, j),
                          r.arrival.at(i - 1, j - 1) + 1);
            }
        }
    }
}

// ------------------------------------------------------- cancellation

TEST(RaceGrid, PreCancelledTokenAbortsWithTypedResult)
{
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPath());
    core::RaceGridScratch scratch;
    core::CancelToken token;
    token.cancel();
    RaceGridResult r =
        aligner.align(dna("GATTACA"), dna("GCATGCT"),
                      sim::kTickInfinity, scratch, &token);
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.score, bio::kScoreInfinity);
}

TEST(RaceGrid, ExpiredDeadlineTokenCancelsLikeAFlag)
{
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPath());
    core::RaceGridScratch scratch;
    const core::CancelToken token(core::CancelToken::Clock::now() -
                                  std::chrono::milliseconds(1));
    ASSERT_TRUE(token.cancelled());
    RaceGridResult r = aligner.align(dna("ACGT"), dna("AGT"),
                                     sim::kTickInfinity, scratch,
                                     &token);
    EXPECT_TRUE(r.cancelled);
    EXPECT_FALSE(r.completed);
}

TEST(RaceGrid, UncancelledTokenIsBitIdenticalToPlainRace)
{
    // The whole point of pointer-passed tokens: a null token -- and a
    // live one that never fires -- must not perturb the race at all.
    RaceGridAligner aligner(ScoreMatrix::dnaShortestPath());
    const Sequence a = dna("GATTCGAATTG"), b = dna("ACTGAGACCAT");
    const RaceGridResult plain = aligner.align(a, b);

    core::RaceGridScratch scratch;
    const core::CancelToken idle; // never cancelled
    for (const core::CancelToken *token :
         {static_cast<const core::CancelToken *>(nullptr), &idle}) {
        RaceGridResult r =
            aligner.align(a, b, sim::kTickInfinity, scratch, token);
        EXPECT_FALSE(r.cancelled);
        EXPECT_EQ(r.score, plain.score);
        EXPECT_EQ(r.latencyCycles, plain.latencyCycles);
        EXPECT_EQ(r.events, plain.events);
        EXPECT_EQ(r.cellsFired, plain.cellsFired);
        ASSERT_EQ(r.arrival.rows(), plain.arrival.rows());
        for (size_t i = 0; i < r.arrival.rows(); ++i)
            for (size_t j = 0; j < r.arrival.cols(); ++j)
                EXPECT_EQ(r.arrival.at(i, j), plain.arrival.at(i, j));
    }
}

TEST(RaceGrid, MidRaceCancelCountsOnlyTheRowsItSwept)
{
    // A deadline a few ms out stops a long race mid-sweep, after row
    // k - 1.  The swept rows are exactly the grid of the prefix
    // a[0..k-1) against b, and a cancelled race counts only the
    // arrivals into rows it swept -- the last of which, like the
    // prefix race's last row, schedules in-row arrivals alone.  So
    // events and the latest arrival must equal the uncancelled prefix
    // race's; a kernel that also counted row k-1's edges into row k
    // would overshoot both.
    const ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    util::Rng rng(1402);
    const Sequence a = Sequence::random(rng, Alphabet::dna(), 2000);
    const Sequence b = Sequence::random(rng, Alphabet::dna(), 2000);
    core::RaceGridScratch scratch;

    // Retry until the cancel lands mid-sweep (1 < k <= rows): double
    // the deadline when it fired before row 2, halve it when the race
    // finished first.
    auto deadline = std::chrono::microseconds(1000);
    for (int attempt = 0; attempt < 40; ++attempt) {
        const core::CancelToken token(core::CancelToken::Clock::now() +
                                      deadline);
        core::KernelCounters counters;
        const RaceGridResult cut = core::raceEditGrid(
            a, b, costs, sim::kTickInfinity, scratch, &token, &counters);
        size_t k = 0; // rows published; column 0 fires in every one
        while (k < cut.arrival.rows() &&
               cut.arrival.at(k, 0) != sim::kTickInfinity)
            ++k;
        if (!cut.cancelled) {
            deadline /= 2;
            continue;
        }
        if (k <= 1) {
            deadline *= 2;
            continue;
        }
        ASSERT_LE(k, a.size());
        SCOPED_TRACE(testing::Message() << "cancelled after row " << k - 1);
        EXPECT_FALSE(cut.completed);
        EXPECT_EQ(counters.cancels, 1u);

        core::KernelCounters prefixCounters;
        const RaceGridResult prefix = core::raceEditGrid(
            a.slice(0, k - 1), b, costs, sim::kTickInfinity, scratch,
            nullptr, &prefixCounters);
        ASSERT_TRUE(prefix.completed);
        EXPECT_EQ(cut.events, prefix.events);
        EXPECT_EQ(cut.latencyCycles, prefixCounters.bucketsDrained - 1);
        EXPECT_EQ(counters.bucketsDrained, prefixCounters.bucketsDrained);
        EXPECT_EQ(cut.cellsFired, prefix.cellsFired);
        for (size_t i = 0; i < k; ++i)
            for (size_t j = 0; j <= b.size(); ++j)
                ASSERT_EQ(cut.arrival.at(i, j), prefix.arrival.at(i, j));
        return;
    }
    FAIL() << "no deadline cancelled the race mid-sweep";
}

TEST(RaceGridDeath, SimilarityMatrixRejected)
{
    EXPECT_DEATH(RaceGridAligner(ScoreMatrix::blosum62()),
                 "Cost matrix");
}

TEST(RaceGridDeath, ZeroWeightsRejected)
{
    EXPECT_DEATH(RaceGridAligner(
                     ScoreMatrix::unitEdit(Alphabet::dna())),
                 ">= 1");
}

} // namespace
