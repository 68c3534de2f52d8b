/**
 * @file
 * Tests for the fabric pool behind RaceEngine::screen(): the
 * list-scheduling invariants of core::scheduleBatch on raced screens,
 * busy time as the threshold-clamped oracle cost, throughput pricing,
 * and the empty database.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/core/batch.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::EngineConfig;
using api::RaceEngine;
using bio::Alphabet;
using bio::Score;
using bio::ScoreMatrix;
using bio::Sequence;

bio::ScreeningWorkload
screeningWorkload(uint64_t seed, size_t length, size_t entries)
{
    util::Rng rng(seed);
    return bio::makeScreeningWorkload(rng, Alphabet::dna(), length,
                                      entries, 0.25,
                                      bio::MutationModel::uniform(0.1));
}

/** RaceEngine::screen() on `fabrics` fabrics over Fig. 2b costs. */
api::BatchOutcome
screenOnPool(const bio::ScreeningWorkload &wl, size_t fabrics,
             Score threshold, bool earlyTerminate = true)
{
    EngineConfig config;
    config.fabricCount = fabrics;
    config.earlyTerminate = earlyTerminate;
    config.withEstimates = false;
    RaceEngine engine(config);
    return engine.screen(ScoreMatrix::dnaShortestPathInfMismatch(),
                         threshold, wl.query, wl.database);
}

TEST(FabricPool, SingleFabricMakespanIsBusyTime)
{
    const api::BatchOutcome out =
        screenOnPool(screeningWorkload(1, 16, 40), 1, 20);
    ASSERT_TRUE(out.schedule.has_value());
    EXPECT_EQ(out.schedule->makespanCycles, out.schedule->busyCycles);
    EXPECT_DOUBLE_EQ(out.schedule->utilization, 1.0);
}

TEST(FabricPool, MakespanObeysListSchedulingBounds)
{
    const bio::ScreeningWorkload wl = screeningWorkload(2, 16, 60);
    for (size_t fabrics : {2u, 4u, 8u}) {
        const api::BatchOutcome out = screenOnPool(wl, fabrics, 24);
        ASSERT_TRUE(out.schedule.has_value());
        // No pool beats a perfect division of the work.
        EXPECT_GE(out.schedule->makespanCycles * fabrics,
                  out.schedule->busyCycles);
        EXPECT_GT(out.schedule->utilization, 0.0);
        EXPECT_LE(out.schedule->utilization, 1.0);
    }
}

TEST(FabricPool, MoreFabricsNeverSlowTheBatch)
{
    const bio::ScreeningWorkload wl = screeningWorkload(3, 20, 80);
    uint64_t previous = ~0ull;
    for (size_t fabrics : {1u, 2u, 4u, 8u, 16u}) {
        const uint64_t makespan =
            screenOnPool(wl, fabrics, 26).schedule->makespanCycles;
        EXPECT_LE(makespan, previous) << fabrics << " fabrics";
        previous = makespan;
    }
}

TEST(FabricPool, BusyTimeIsTheThresholdClampedOracleCost)
{
    // A comparison holds its fabric until its sink fires or the
    // threshold cycle aborts it -- min(DP cost, threshold) -- plus the
    // reset cycle, whether the kernel stops at the threshold (early
    // termination) or races on and clamps afterwards.
    const bio::ScreeningWorkload wl = screeningWorkload(51, 18, 40);
    const ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    const Score threshold = 22;
    const EngineConfig defaults;
    uint64_t clamped = 0;
    for (const Sequence &candidate : wl.database)
        clamped += static_cast<uint64_t>(
                       std::min(bio::globalScore(wl.query, candidate, m),
                                threshold)) +
                   defaults.resetCycles;
    for (bool early : {true, false}) {
        const api::BatchOutcome out = screenOnPool(wl, 1, threshold, early);
        ASSERT_TRUE(out.schedule.has_value());
        EXPECT_EQ(out.schedule->busyCycles, clamped) << "early " << early;
        for (size_t i = 0; i < wl.database.size(); ++i) {
            const bool similar =
                bio::globalScore(wl.query, wl.database[i], m) <= threshold;
            EXPECT_EQ(out.results[i].accepted, similar) << i;
            EXPECT_EQ(out.schedule->accepted[i], similar) << i;
        }
        EXPECT_EQ(out.schedule->acceptedCount, out.acceptedCount());
    }
}

TEST(FabricPool, ThroughputPricing)
{
    const api::BatchOutcome out =
        screenOnPool(screeningWorkload(6, 16, 30), 4, 20);
    ASSERT_TRUE(out.schedule.has_value());
    const tech::CellLibrary &lib = tech::CellLibrary::amis();
    EXPECT_GT(out.schedule->wallTimeNs(lib), 0.0);
    // 30 comparisons in makespan cycles of the race clock.
    EXPECT_NEAR(out.schedule->comparisonsPerSecond(lib),
                30.0 * 1e9 /
                    (double(out.schedule->makespanCycles) *
                     lib.racePeriodNs),
                1.0);
}

TEST(FabricPool, EmptyDatabase)
{
    const api::BatchOutcome out =
        screenOnPool(screeningWorkload(7, 8, 0), 4, 20);
    EXPECT_TRUE(out.results.empty());
    EXPECT_EQ(out.busyCycles(), 0u);
    EXPECT_DOUBLE_EQ(out.speedup(), 1.0);
    // Nothing to schedule; the pool scheduler reports an idle pool.
    EXPECT_FALSE(out.schedule.has_value());
    const core::BatchReport idle = core::scheduleBatch({}, {});
    EXPECT_EQ(idle.comparisons, 0u);
    EXPECT_EQ(idle.makespanCycles, 0u);
    EXPECT_EQ(idle.utilization, 0.0);
}

} // namespace
