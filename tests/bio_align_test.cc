/**
 * @file
 * Tests for the reference DP aligners, including the paper's running
 * example (P = ACTGAGA vs Q = GATTCGA, Figs. 1 and 4) and the
 * structural identities the reproduction leans on.
 */

#include <gtest/gtest.h>

#include "rl/bio/align_dp.h"
#include "rl/bio/score_matrix.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::Score;
using bio::ScoreMatrix;
using bio::Sequence;

Sequence
dna(const std::string &text)
{
    return Sequence(Alphabet::dna(), text);
}

// --------------------------------------------------- paper's example

TEST(PaperExample, Fig4cScoreIsTen)
{
    // Fig. 4c: best alignment score between ACTGAGA and GATTCGA
    // under the Fig. 2b matrix (mismatch raised to infinity) is 10.
    Sequence p = dna("ACTGAGA");
    Sequence q = dna("GATTCGA");
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    EXPECT_EQ(bio::globalScore(q, p, m), 10);
}

TEST(PaperExample, LcsIdentity)
{
    // With mismatch = infinity, cost = N + M - LCS: the Fig. 1
    // strings share a length-4 common subsequence (e.g. A T G A).
    Sequence p = dna("ACTGAGA");
    Sequence q = dna("GATTCGA");
    EXPECT_EQ(bio::lcsLength(p, q), 4u);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    EXPECT_EQ(bio::globalScore(q, p, m),
              Score(p.size() + q.size() - bio::lcsLength(p, q)));
}

TEST(PaperExample, Fig4cFullDpTable)
{
    // The cycle-count table printed inside Fig. 4c, verified cell by
    // cell (rows = GATTCGA, columns = ACTGAGA).
    Sequence p = dna("ACTGAGA");
    Sequence q = dna("GATTCGA");
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    util::Grid<Score> t = bio::dpTable(q, p, m);
    const Score expect[8][8] = {
        {0, 1, 2, 3, 4, 5, 6, 7},
        {1, 2, 3, 4, 4, 5, 6, 7},
        {2, 2, 3, 4, 5, 5, 6, 7},
        {3, 3, 4, 4, 5, 6, 7, 8},
        {4, 4, 5, 5, 6, 7, 8, 9},
        {5, 5, 5, 6, 7, 8, 9, 10},
        {6, 6, 6, 7, 7, 8, 9, 10},
        {7, 7, 7, 8, 8, 8, 9, 10},
    };
    for (size_t i = 0; i < 8; ++i)
        for (size_t j = 0; j < 8; ++j)
            EXPECT_EQ(t(i, j), expect[i][j])
                << "cell (" << i << "," << j << ")";
}

TEST(PaperExample, Fig1AlignmentBounds)
{
    // "the number of matches plus the number of mismatches plus the
    // number of indels ... can never exceed N + M".
    Sequence p = dna("ACTGAGA");
    Sequence q = dna("GATTCGA");
    auto a = bio::globalAlign(p, q, ScoreMatrix::dnaShortestPath());
    EXPECT_LE(a.matches + a.mismatches + a.indels,
              p.size() + q.size());
    EXPECT_EQ(bio::checkAlignment(p, q, ScoreMatrix::dnaShortestPath(),
                                  a),
              "");
}

// ----------------------------------------------------- basic corners

TEST(GlobalAlign, IdenticalStrings)
{
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    Sequence s = dna("ACGTACGT");
    EXPECT_EQ(bio::globalScore(s, s, m), Score(s.size()));
    auto a = bio::globalAlign(s, s, m);
    EXPECT_EQ(a.matches, s.size());
    EXPECT_EQ(a.mismatches, 0u);
    EXPECT_EQ(a.indels, 0u);
}

TEST(GlobalAlign, EmptyStrings)
{
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    Sequence e(Alphabet::dna());
    Sequence s = dna("ACGT");
    EXPECT_EQ(bio::globalScore(e, e, m), 0);
    EXPECT_EQ(bio::globalScore(e, s, m), 4);
    EXPECT_EQ(bio::globalScore(s, e, m), 4);
}

TEST(GlobalAlign, CompleteMismatchCostsAllIndels)
{
    // With mismatch = infinity, fully-disjoint strings can only be
    // aligned by deleting one and inserting the other: cost N + M.
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    EXPECT_EQ(bio::globalScore(dna("AAAA"), dna("CCCC"), m), 8);
}

TEST(GlobalAlign, SimilarityKindMaximizes)
{
    ScoreMatrix m = ScoreMatrix::dnaLongestPath();
    EXPECT_EQ(bio::globalScore(dna("ACGT"), dna("ACGT"), m), 4);
    EXPECT_EQ(bio::globalScore(dna("AAAA"), dna("CCCC"), m), 0);
    // One shared letter -> best score 1.
    EXPECT_EQ(bio::globalScore(dna("AAAA"), dna("CCAC"), m), 1);
}

TEST(GlobalAlign, TracebackValidOnRandomPairs)
{
    util::Rng rng(11);
    ScoreMatrix cost = ScoreMatrix::dnaShortestPath();
    ScoreMatrix inf = ScoreMatrix::dnaShortestPathInfMismatch();
    ScoreMatrix sim = ScoreMatrix::blosum62();
    for (int trial = 0; trial < 30; ++trial) {
        size_t n = 1 + rng.index(20);
        size_t m = 1 + rng.index(20);
        Sequence a = Sequence::random(rng, Alphabet::dna(), n);
        Sequence b = Sequence::random(rng, Alphabet::dna(), m);
        EXPECT_EQ(bio::checkAlignment(a, b, cost,
                                      bio::globalAlign(a, b, cost)),
                  "");
        EXPECT_EQ(bio::checkAlignment(a, b, inf,
                                      bio::globalAlign(a, b, inf)),
                  "");
        Sequence pa = Sequence::random(rng, Alphabet::protein(), n);
        Sequence pb = Sequence::random(rng, Alphabet::protein(), m);
        EXPECT_EQ(bio::checkAlignment(pa, pb, sim,
                                      bio::globalAlign(pa, pb, sim)),
                  "");
    }
}

TEST(GlobalAlign, TwoRowScoreMatchesFullTable)
{
    util::Rng rng(12);
    ScoreMatrix m = ScoreMatrix::blosum62();
    for (int trial = 0; trial < 15; ++trial) {
        Sequence a = Sequence::random(rng, Alphabet::protein(),
                                      1 + rng.index(25));
        Sequence b = Sequence::random(rng, Alphabet::protein(),
                                      1 + rng.index(25));
        auto table = bio::dpTable(a, b, m);
        EXPECT_EQ(bio::globalScore(a, b, m),
                  table(a.size(), b.size()));
    }
}

// -------------------------------------------------------- Levenshtein

TEST(Levenshtein, KnownDistances)
{
    EXPECT_EQ(bio::levenshtein(dna("ACGT"), dna("ACGT")), 0);
    EXPECT_EQ(bio::levenshtein(dna("ACGT"), dna("AGT")), 1);
    EXPECT_EQ(bio::levenshtein(dna("AC"), dna("CA")), 2);
    EXPECT_EQ(bio::levenshtein(dna(""), dna("ACGT")), 4);
}

TEST(Levenshtein, MatchesUnitEditMatrixDp)
{
    util::Rng rng(13);
    ScoreMatrix unit = ScoreMatrix::unitEdit(Alphabet::dna());
    for (int trial = 0; trial < 25; ++trial) {
        Sequence a = Sequence::random(rng, Alphabet::dna(),
                                      rng.index(18));
        Sequence b = Sequence::random(rng, Alphabet::dna(),
                                      rng.index(18));
        EXPECT_EQ(bio::levenshtein(a, b),
                  bio::globalScore(a, b, unit));
    }
}

TEST(Levenshtein, MetricProperties)
{
    util::Rng rng(14);
    for (int trial = 0; trial < 15; ++trial) {
        Sequence a = Sequence::random(rng, Alphabet::dna(),
                                      1 + rng.index(12));
        Sequence b = Sequence::random(rng, Alphabet::dna(),
                                      1 + rng.index(12));
        Sequence c = Sequence::random(rng, Alphabet::dna(),
                                      1 + rng.index(12));
        Score ab = bio::levenshtein(a, b);
        Score ba = bio::levenshtein(b, a);
        Score bc = bio::levenshtein(b, c);
        Score ac = bio::levenshtein(a, c);
        EXPECT_EQ(ab, ba);                  // symmetry
        EXPECT_LE(ac, ab + bc);             // triangle inequality
        EXPECT_EQ(bio::levenshtein(a, a), 0);
    }
}

// ---------------------------------------------------------------- LCS

TEST(Lcs, KnownValues)
{
    EXPECT_EQ(bio::lcsLength(dna("ACGT"), dna("ACGT")), 4u);
    EXPECT_EQ(bio::lcsLength(dna("AAAA"), dna("CCCC")), 0u);
    EXPECT_EQ(bio::lcsLength(dna("ACGT"), dna("AGT")), 3u);
}

TEST(Lcs, InfMismatchCostIdentityOnRandomPairs)
{
    util::Rng rng(15);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    for (int trial = 0; trial < 30; ++trial) {
        Sequence a = Sequence::random(rng, Alphabet::dna(),
                                      1 + rng.index(24));
        Sequence b = Sequence::random(rng, Alphabet::dna(),
                                      1 + rng.index(24));
        EXPECT_EQ(bio::globalScore(a, b, m),
                  Score(a.size() + b.size() -
                        2 * bio::lcsLength(a, b)) +
                      Score(bio::lcsLength(a, b)));
    }
}

// -------------------------------------------------- checkAlignment

TEST(CheckAlignment, DetectsCorruptedScore)
{
    Sequence a = dna("ACGT");
    Sequence b = dna("AGT");
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    auto al = bio::globalAlign(a, b, m);
    al.score += 1;
    EXPECT_NE(bio::checkAlignment(a, b, m, al), "");
}

TEST(CheckAlignment, DetectsBrokenPath)
{
    Sequence a = dna("ACGT");
    Sequence b = dna("AGT");
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    auto al = bio::globalAlign(a, b, m);
    al.path.pop_back();
    EXPECT_NE(bio::checkAlignment(a, b, m, al), "");
}

} // namespace
