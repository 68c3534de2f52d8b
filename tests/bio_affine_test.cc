/**
 * @file
 * Tests for affine-gap alignment: the Gotoh reference DP and the
 * 3-layer race lattice -- Race Logic generalizing past the paper's
 * linear-gap case study.  The raced lattice is checked against
 * affineGlobalScore() in api_differential_test.cc.
 */

#include <gtest/gtest.h>

#include "rl/bio/affine.h"
#include "rl/bio/align_dp.h"
#include "rl/graph/paths.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::AffineGapCosts;
using bio::Alphabet;
using bio::Score;
using bio::ScoreMatrix;
using bio::Sequence;

Sequence
dna(const std::string &text)
{
    return Sequence(Alphabet::dna(), text);
}

/** Fig. 2b pair costs without using its gap column. */
ScoreMatrix
pairCosts(Score match, Score mismatch)
{
    ScoreMatrix m(Alphabet::dna(), bio::ScoreKind::Cost);
    for (bio::Symbol s = 0; s < 4; ++s)
        for (bio::Symbol t = 0; t < 4; ++t)
            m.setPair(s, t, s == t ? match : mismatch);
    return m;
}

// ------------------------------------------------------- reference DP

TEST(AffineDp, IdenticalStringsPayOnlyMatches)
{
    ScoreMatrix m = pairCosts(1, 2);
    AffineGapCosts gaps{3, 1};
    Sequence s = dna("ACGTACGT");
    EXPECT_EQ(bio::affineGlobalScore(s, s, m, gaps), 8);
}

TEST(AffineDp, SingleLongGapBeatsScatteredGaps)
{
    // Aligning ACGT against ACGTTTTT: one gap of length 4.
    ScoreMatrix m = pairCosts(1, 10);
    AffineGapCosts gaps{5, 1};
    Sequence a = dna("ACGT");
    Sequence b = dna("ACGTTTTT");
    // 4 matches (4) + open (5) + 3 extends (3) = 12.
    EXPECT_EQ(bio::affineGlobalScore(a, b, m, gaps), 12);
}

TEST(AffineDp, ForbiddenPairsForceAdjacentOppositeGaps)
{
    // No mismatches allowed: AAAA/CCCC must delete all of one and
    // insert all of the other -- two gap openings.
    ScoreMatrix m = pairCosts(1, bio::kScoreInfinity);
    AffineGapCosts gaps{4, 1};
    Sequence a = dna("AAAA");
    Sequence b = dna("CCCC");
    // 2 * (open + 3 * extend) = 2 * 7 = 14.
    EXPECT_EQ(bio::affineGlobalScore(a, b, m, gaps), 14);
}

TEST(AffineDp, OpenEqualsExtendReducesToLinearGaps)
{
    util::Rng rng(41);
    ScoreMatrix pairs = pairCosts(1, 2);
    ScoreMatrix linear = pairs;
    linear.setAllGaps(2);
    AffineGapCosts gaps{2, 2};
    for (int trial = 0; trial < 20; ++trial) {
        Sequence a = Sequence::random(rng, Alphabet::dna(),
                                      1 + rng.index(16));
        Sequence b = Sequence::random(rng, Alphabet::dna(),
                                      1 + rng.index(16));
        EXPECT_EQ(bio::affineGlobalScore(a, b, pairs, gaps),
                  bio::globalScore(a, b, linear));
    }
}

TEST(AffineDp, CostMonotoneInGapParameters)
{
    util::Rng rng(42);
    ScoreMatrix m = pairCosts(1, 3);
    Sequence a = Sequence::random(rng, Alphabet::dna(), 12);
    Sequence b = Sequence::random(rng, Alphabet::dna(), 9);
    Score cheap =
        bio::affineGlobalScore(a, b, m, AffineGapCosts{2, 1});
    Score pricey =
        bio::affineGlobalScore(a, b, m, AffineGapCosts{6, 2});
    EXPECT_LE(cheap, pricey);
}

// ------------------------------------------------------ the lattice

TEST(AffineRace, LatticeShape)
{
    ScoreMatrix m = pairCosts(1, 2);
    auto g = bio::makeAffineEditGraph(dna("ACG"), dna("AC"), m,
                                      AffineGapCosts{3, 1});
    // 3 layers of 4 x 3 nodes + the sink.
    EXPECT_EQ(g.dag.nodeCount(), 3u * 4 * 3 + 1);
    // The DP solution over the lattice agrees with Gotoh directly.
    auto dp = graph::solveDag(g.dag, {g.source},
                              graph::Objective::Shortest);
    EXPECT_EQ(dp.distance[g.sink],
              bio::affineGlobalScore(dna("ACG"), dna("AC"), m,
                                     AffineGapCosts{3, 1}));
}

TEST(AffineRaceDeath, RejectsZeroExtend)
{
    ScoreMatrix m = pairCosts(1, 2);
    EXPECT_DEATH(bio::affineGlobalScore(dna("A"), dna("A"), m,
                                        AffineGapCosts{2, 0}),
                 "open/extend");
}

TEST(AffineRaceDeath, RejectsSimilarityMatrix)
{
    EXPECT_DEATH(bio::affineGlobalScore(
                     Sequence(Alphabet::protein(), "AR"),
                     Sequence(Alphabet::protein(), "AR"),
                     ScoreMatrix::blosum62(), AffineGapCosts{2, 1}),
                 "minimizes");
}

} // namespace
