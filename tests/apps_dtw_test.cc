/**
 * @file
 * Tests for dynamic time warping on Race Logic: the reference DP and
 * the lattice construction -- the second "beyond sequence alignment"
 * dynamic program in the library.  The raced DTW is checked against
 * dtwDistance() in api_differential_test.cc.
 */

#include <gtest/gtest.h>

#include "rl/apps/dtw.h"
#include "rl/graph/paths.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using apps::Sample;

TEST(DtwDp, IdenticalSignalsAreDistanceZero)
{
    std::vector<Sample> x{1, 5, 3, 2, 8};
    EXPECT_EQ(apps::dtwDistance(x, x), 0);
}

TEST(DtwDp, KnownSmallCase)
{
    // Classic example: warping absorbs the stretched plateau.
    std::vector<Sample> x{0, 2, 4, 4, 0};
    std::vector<Sample> y{0, 2, 4, 0};
    EXPECT_EQ(apps::dtwDistance(x, y), 0);
    std::vector<Sample> z{1, 2, 4, 0};
    EXPECT_EQ(apps::dtwDistance(x, z), 1);
}

TEST(DtwDp, SingleSamples)
{
    EXPECT_EQ(apps::dtwDistance({3}, {8}), 5);
    EXPECT_EQ(apps::dtwDistance({3}, {3}), 0);
}

TEST(DtwDp, SymmetricInArguments)
{
    util::Rng rng(51);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<Sample> x(1 + rng.index(12));
        std::vector<Sample> y(1 + rng.index(12));
        for (auto &v : x)
            v = rng.uniformInt(-10, 10);
        for (auto &v : y)
            v = rng.uniformInt(-10, 10);
        EXPECT_EQ(apps::dtwDistance(x, y), apps::dtwDistance(y, x));
    }
}

TEST(DtwDp, TimeShiftCostsLittleEuclideanCostsMuch)
{
    util::Rng rng(52);
    auto base = apps::quantizedSine(rng, 48, 2.0, 40.0);
    auto shifted = apps::quantizedSine(rng, 48, 2.0, 40.0, 0.6);
    int64_t dtw = apps::dtwDistance(base, shifted);
    int64_t euclid = 0;
    for (size_t t = 0; t < base.size(); ++t)
        euclid += std::abs(base[t] - shifted[t]);
    EXPECT_LT(dtw, euclid / 3)
        << "warping should absorb most of a phase shift";
}

TEST(DtwGraph, LatticeShape)
{
    std::vector<Sample> x{1, 2, 3};
    std::vector<Sample> y{1, 2};
    auto g = apps::makeDtwGraph(x, y);
    EXPECT_EQ(g.dag.nodeCount(), 3u * 2 + 1); // cells + source
    auto dp = graph::solveDag(g.dag, {g.source},
                              graph::Objective::Shortest);
    EXPECT_EQ(dp.distance[g.sink], apps::dtwDistance(x, y));
}

TEST(QuantizedSine, ShapeAndDeterminism)
{
    util::Rng a(7), b(7);
    auto s1 = apps::quantizedSine(a, 32, 1.0, 20.0, 0.0, 2.0);
    auto s2 = apps::quantizedSine(b, 32, 1.0, 20.0, 0.0, 2.0);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1.size(), 32u);
    Sample peak = 0;
    for (Sample v : s1)
        peak = std::max(peak, std::abs(v));
    EXPECT_GT(peak, 15);
    EXPECT_LE(peak, 23);
}

} // namespace
