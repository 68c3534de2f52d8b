/**
 * @file
 * Tests for score matrices (Fig. 2), the Section 5 conversion, and
 * the Eq. 8 log-odds machinery.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "rl/bio/score_convert.h"
#include "rl/bio/score_matrix.h"
#include "rl/bio/align_dp.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::Score;
using bio::ScoreKind;
using bio::ScoreMatrix;
using bio::Sequence;
using bio::Symbol;

// ------------------------------------------------------- Fig. 2 data

TEST(ScoreMatrix, Fig2aLongestPath)
{
    ScoreMatrix m = ScoreMatrix::dnaLongestPath();
    EXPECT_EQ(m.kind(), ScoreKind::Similarity);
    const Alphabet &dna = m.alphabet();
    for (char x : std::string("ACGT")) {
        for (char y : std::string("ACGT")) {
            Score expect = x == y ? 1 : 0;
            EXPECT_EQ(m.pair(dna.encode(x), dna.encode(y)), expect);
        }
        EXPECT_EQ(m.gap(dna.encode(x)), 0);
    }
}

TEST(ScoreMatrix, Fig2bShortestPath)
{
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    EXPECT_EQ(m.kind(), ScoreKind::Cost);
    const Alphabet &dna = m.alphabet();
    EXPECT_EQ(m.pair(dna.encode('A'), dna.encode('A')), 1);
    EXPECT_EQ(m.pair(dna.encode('A'), dna.encode('C')), 2);
    EXPECT_EQ(m.gap(dna.encode('G')), 1);
    EXPECT_EQ(m.minFinite(), 1);
    EXPECT_EQ(m.maxFinite(), 2);
    EXPECT_EQ(m.dynamicRange(), 2);
    EXPECT_FALSE(m.hasForbiddenPairs());
}

TEST(ScoreMatrix, InfMismatchVariant)
{
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    const Alphabet &dna = m.alphabet();
    EXPECT_EQ(m.pair(dna.encode('A'), dna.encode('A')), 1);
    EXPECT_EQ(m.pair(dna.encode('A'), dna.encode('G')),
              bio::kScoreInfinity);
    EXPECT_TRUE(m.hasForbiddenPairs());
    EXPECT_EQ(m.dynamicRange(), 1);
}

/**
 * The paper: "It is straightforward to check that the original and
 * modified scoring matrixes are equivalent".  Check it on random
 * strings: a cost-2 mismatch can always be re-expressed as
 * delete+insert (1+1), so the optimal scores agree everywhere.
 */
TEST(ScoreMatrix, MismatchTwoEquivalentToInfinity)
{
    util::Rng rng(42);
    ScoreMatrix with2 = ScoreMatrix::dnaShortestPath();
    ScoreMatrix withInf = ScoreMatrix::dnaShortestPathInfMismatch();
    for (int trial = 0; trial < 40; ++trial) {
        size_t n = 1 + rng.index(24);
        size_t m = 1 + rng.index(24);
        Sequence a = Sequence::random(rng, Alphabet::dna(), n);
        Sequence b = Sequence::random(rng, Alphabet::dna(), m);
        EXPECT_EQ(bio::globalScore(a, b, with2),
                  bio::globalScore(a, b, withInf));
    }
}

TEST(ScoreMatrix, Blosum62SpotValues)
{
    ScoreMatrix m = ScoreMatrix::blosum62();
    const Alphabet &aa = m.alphabet();
    auto s = [&](char x, char y) {
        return m.pair(aa.encode(x), aa.encode(y));
    };
    // Canonical entries of the published matrix.
    EXPECT_EQ(s('W', 'W'), 11);
    EXPECT_EQ(s('A', 'A'), 4);
    EXPECT_EQ(s('C', 'C'), 9);
    EXPECT_EQ(s('A', 'R'), -1);
    EXPECT_EQ(s('W', 'Y'), 2);
    EXPECT_EQ(s('D', 'E'), 2);
    EXPECT_EQ(s('I', 'V'), 3);
    EXPECT_EQ(s('G', 'I'), -4);
    EXPECT_EQ(m.gap(aa.encode('A')), -4);
}

TEST(ScoreMatrix, Blosum62IsSymmetric)
{
    EXPECT_TRUE(ScoreMatrix::blosum62().isSymmetric());
}

TEST(ScoreMatrix, Pam250SpotValuesAndSymmetry)
{
    ScoreMatrix m = ScoreMatrix::pam250();
    const Alphabet &aa = m.alphabet();
    auto s = [&](char x, char y) {
        return m.pair(aa.encode(x), aa.encode(y));
    };
    EXPECT_EQ(s('W', 'W'), 17);
    EXPECT_EQ(s('C', 'C'), 12);
    EXPECT_EQ(s('F', 'Y'), 7);
    EXPECT_EQ(s('W', 'C'), -8);
    EXPECT_TRUE(m.isSymmetric());
}

TEST(ScoreMatrix, UnitEditMatrix)
{
    ScoreMatrix m = ScoreMatrix::unitEdit(Alphabet::dna());
    const Alphabet &dna = m.alphabet();
    EXPECT_EQ(m.pair(dna.encode('A'), dna.encode('A')), 0);
    EXPECT_EQ(m.pair(dna.encode('A'), dna.encode('T')), 1);
    EXPECT_EQ(m.gap(dna.encode('A')), 1);
}

TEST(ScoreMatrix, ToStringMentionsLettersAndInf)
{
    std::string s = ScoreMatrix::dnaShortestPathInfMismatch().toString();
    EXPECT_NE(s.find('A'), std::string::npos);
    EXPECT_NE(s.find("inf"), std::string::npos);
}

TEST(ScoreMatrix, ASetterAfterAReadChangesEveryMemoizedScan)
{
    // pair(A, A) is the one smallest entry; raising it above the rest
    // moves the minimum, the maximum and the fingerprint at once.
    ScoreMatrix m = ScoreMatrix::uniform(Alphabet::dna(), ScoreKind::Cost, 3);
    m.setPair(0, 0, 1);
    EXPECT_EQ(m.minFinite(), 1);
    EXPECT_EQ(m.maxFinite(), 3);
    const uint64_t read = m.fingerprint();
    const ScoreMatrix copy = m;

    m.setPair(0, 0, 9);
    EXPECT_EQ(m.minFinite(), 3);
    EXPECT_EQ(m.maxFinite(), 9);
    EXPECT_NE(m.fingerprint(), read);

    // The copy keeps the table, and the scans, it was made with.
    EXPECT_EQ(copy.minFinite(), 1);
    EXPECT_EQ(copy.maxFinite(), 3);
    EXPECT_EQ(copy.fingerprint(), read);

    // Every other setter refreshes them too, and the memoized results
    // equal those of a matrix built to the same table unread.
    m.setGap(1, 20);
    EXPECT_EQ(m.maxFinite(), 20);
    m.setAllGaps(2);
    EXPECT_EQ(m.minFinite(), 2);
    EXPECT_EQ(m.maxFinite(), 9);
    m.setPairSymmetric(1, 2, 30);
    EXPECT_EQ(m.maxFinite(), 30);
    ScoreMatrix unread =
        ScoreMatrix::uniform(Alphabet::dna(), ScoreKind::Cost, 3);
    unread.setPair(0, 0, 9);
    unread.setAllGaps(2);
    unread.setPairSymmetric(1, 2, 30);
    EXPECT_EQ(m.fingerprint(), unread.fingerprint());
    EXPECT_EQ(m.minFinite(), unread.minFinite());
    EXPECT_EQ(m.maxFinite(), unread.maxFinite());
}

TEST(ScoreMatrix, ConcurrentReadersAgreeOnTheMemoizedScans)
{
    const ScoreMatrix m = ScoreMatrix::blosum62();
    const ScoreMatrix unread = ScoreMatrix::blosum62();
    const Score min = unread.minFinite();
    const Score max = unread.maxFinite();
    const uint64_t fingerprint = unread.fingerprint();
    std::vector<std::thread> readers;
    std::atomic<int> wrong{0};
    for (int i = 0; i < 4; ++i)
        readers.emplace_back([&] {
            wrong += m.fingerprint() != fingerprint ||
                     m.minFinite() != min || m.maxFinite() != max;
        });
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_EQ(wrong.load(), 0);
}

TEST(ScoreMatrixDeath, DynamicRangeRequiresRaceReadyWeights)
{
    ScoreMatrix m = ScoreMatrix::unitEdit(Alphabet::dna());
    // match weight 0 < 1: not race-ready
    EXPECT_DEATH((void)m.dynamicRange(), "weights >= 1");
}

// ----------------------------------------------- Section 5 conversion

TEST(Convert, Blosum62ProducesPositiveWeights)
{
    auto form = bio::toShortestPathForm(ScoreMatrix::blosum62());
    EXPECT_EQ(form.costs.kind(), ScoreKind::Cost);
    EXPECT_GE(form.costs.minFinite(), 1);
    EXPECT_FALSE(form.costs.hasForbiddenPairs());
    // W-W is the best pairing, so it must carry the smallest
    // diagonal weight ("the scores along the diagonal being the
    // smallest").
    const Alphabet &aa = form.costs.alphabet();
    Score ww = form.costs.pair(aa.encode('W'), aa.encode('W'));
    for (Symbol a = 0; a < 20; ++a)
        for (Symbol b = 0; b < 20; ++b)
            EXPECT_GE(form.costs.pair(a, b), ww);
}

TEST(Convert, BiasIsMinimal)
{
    // For BLOSUM62 (max pair +11, gap -4): pair constraint needs
    // b >= ceil((1 + 11) / 2) = 6; gap needs b >= 1 + (-4) = -3.
    auto form = bio::toShortestPathForm(ScoreMatrix::blosum62());
    EXPECT_EQ(form.bias, 6);
    // Indel weight = b - g = 6 + 4 = 10; worst pair = 2b + 4 = 16.
    const Alphabet &aa = form.costs.alphabet();
    EXPECT_EQ(form.costs.gap(aa.encode('A')), 10);
    EXPECT_EQ(form.costs.dynamicRange(), 16);
    EXPECT_EQ(form.costs.pair(aa.encode('W'), aa.encode('W')),
              2 * 6 - 11);
}

/**
 * The affine-path property that makes the conversion sound: for any
 * full alignment path, converted cost = bias*(N+M) - lambda*score,
 * so the optimum is preserved and recoverable.  Verified through the
 * DP on random protein strings.
 */
TEST(Convert, AffineOnOptimalScores)
{
    util::Rng rng(7);
    ScoreMatrix blosum = ScoreMatrix::blosum62();
    auto form = bio::toShortestPathForm(blosum);
    for (int trial = 0; trial < 20; ++trial) {
        size_t n = 1 + rng.index(16);
        size_t m = 1 + rng.index(16);
        Sequence a = Sequence::random(rng, Alphabet::protein(), n);
        Sequence b = Sequence::random(rng, Alphabet::protein(), m);
        Score best_sim = bio::globalScore(a, b, blosum);
        Score best_cost = bio::globalScore(a, b, form.costs);
        EXPECT_EQ(best_cost, form.convertScore(best_sim, n, m));
        EXPECT_EQ(form.recoverScore(best_cost, n, m), best_sim);
    }
}

TEST(Convert, LambdaScalingStretchesDynamicRange)
{
    auto f1 = bio::toShortestPathForm(ScoreMatrix::blosum62(), 1);
    auto f2 = bio::toShortestPathForm(ScoreMatrix::blosum62(), 2);
    EXPECT_GT(f2.costs.dynamicRange(), f1.costs.dynamicRange());
    EXPECT_EQ(f2.lambda, 2);
    // Score recovery still exact under scaling.
    util::Rng rng(8);
    Sequence a = Sequence::random(rng, Alphabet::protein(), 10);
    Sequence b = Sequence::random(rng, Alphabet::protein(), 12);
    Score sim = bio::globalScore(a, b, ScoreMatrix::blosum62());
    Score cost = bio::globalScore(a, b, f2.costs);
    EXPECT_EQ(f2.recoverScore(cost, 10, 12), sim);
}

TEST(Convert, Fig2aConversion)
{
    // The longest-path DNA matrix converts to a valid cost matrix
    // too (bias handles max score +1, zero gaps).
    auto form = bio::toShortestPathForm(ScoreMatrix::dnaLongestPath());
    EXPECT_GE(form.costs.minFinite(), 1);
    EXPECT_EQ(form.bias, 1);
    const Alphabet &dna = form.costs.alphabet();
    EXPECT_EQ(form.costs.pair(dna.encode('A'), dna.encode('A')), 1);
    EXPECT_EQ(form.costs.pair(dna.encode('A'), dna.encode('C')), 2);
    EXPECT_EQ(form.costs.gap(dna.encode('A')), 1);
}

TEST(ConvertDeath, RejectsCostMatrices)
{
    EXPECT_DEATH(bio::toShortestPathForm(ScoreMatrix::dnaShortestPath()),
                 "similarity");
}

// ------------------------------------------------------ Eq. 8 log-odds

TEST(LogOdds, RecoversKnownScores)
{
    // Construct joint probabilities whose log-odds are exactly
    // +2/-1 at lambda = 1, then check fromLogOdds reproduces them.
    const Alphabet &bin = Alphabet::binary();
    std::vector<double> freqs{0.5, 0.5};
    util::Grid<double> joint(2, 2, 0.0);
    joint.at(0, 0) = 0.25 * std::exp(2.0);
    joint.at(1, 1) = 0.25 * std::exp(2.0);
    joint.at(0, 1) = 0.25 * std::exp(-1.0);
    joint.at(1, 0) = 0.25 * std::exp(-1.0);
    ScoreMatrix m = bio::fromLogOdds(bin, joint, freqs, 1.0, -3);
    EXPECT_EQ(m.pair(0, 0), 2);
    EXPECT_EQ(m.pair(1, 1), 2);
    EXPECT_EQ(m.pair(0, 1), -1);
    EXPECT_EQ(m.gap(0), -3);
}

TEST(LogOdds, LambdaRescalesScores)
{
    const Alphabet &bin = Alphabet::binary();
    std::vector<double> freqs{0.5, 0.5};
    util::Grid<double> joint(2, 2, 0.0);
    joint.at(0, 0) = 0.25 * std::exp(4.0);
    joint.at(1, 1) = 0.25 * std::exp(4.0);
    joint.at(0, 1) = 0.25 * std::exp(-2.0);
    joint.at(1, 0) = 0.25 * std::exp(-2.0);
    ScoreMatrix m = bio::fromLogOdds(bin, joint, freqs, 2.0, -1);
    EXPECT_EQ(m.pair(0, 0), 2);
    EXPECT_EQ(m.pair(0, 1), -1);
}

TEST(LogOdds, PipelineIntoRaceForm)
{
    // Eq. 8 matrix -> Section 5 conversion -> race-ready weights.
    const Alphabet &bin = Alphabet::binary();
    std::vector<double> freqs{0.5, 0.5};
    util::Grid<double> joint(2, 2, 0.0);
    joint.at(0, 0) = 0.25 * std::exp(3.0);
    joint.at(1, 1) = 0.25 * std::exp(3.0);
    joint.at(0, 1) = 0.25 * std::exp(-2.0);
    joint.at(1, 0) = 0.25 * std::exp(-2.0);
    ScoreMatrix sim = bio::fromLogOdds(bin, joint, freqs, 1.0, -4);
    auto form = bio::toShortestPathForm(sim);
    EXPECT_GE(form.costs.minFinite(), 1);
    EXPECT_EQ(form.costs.kind(), ScoreKind::Cost);
}

} // namespace
