/**
 * @file
 * Unit tests for rl/sim: the monomial fit that regenerates Eq. 5.
 */

#include <gtest/gtest.h>

#include <vector>

#include "rl/sim/stats.h"

namespace {

using namespace racelogic;

// -------------------------------------------------------- monomialFit

TEST(MonomialFit, MatchesPaperModelFamily)
{
    // The paper fits energy to a*N^3 + b*N^2 with no lower terms.
    std::vector<double> xs, ys;
    for (double x = 2; x <= 40; x += 2) {
        xs.push_back(x);
        ys.push_back(2.65 * x * x * x + 6.41 * x * x);
    }
    auto c = sim::monomialFit(xs, ys, {3, 2});
    ASSERT_EQ(c.size(), 4u);
    EXPECT_NEAR(c[3], 2.65, 1e-6);
    EXPECT_NEAR(c[2], 6.41, 1e-6);
    EXPECT_NEAR(c[1], 0.0, 1e-9);
    EXPECT_NEAR(c[0], 0.0, 1e-9);
}

TEST(MonomialFitDeath, NeedsEnoughPoints)
{
    EXPECT_DEATH(sim::monomialFit({1.0}, {1.0}, {3, 2}),
                 "at least as many");
}

} // namespace
