/**
 * @file
 * Equivalence suite for the race kernels.  core::raceDag must match
 * the DAG DP oracle node for node on randomized DAGs -- Or and And
 * races, zero-weight edges, with and without an early-termination
 * horizon -- with the event count and the latest firing the DP
 * determines in closed form.  The grid-direct kernel must reproduce
 * raceDag's race of the materialized edit graph exactly (arrival grids
 * and event counts included), and its skewed band must reproduce its
 * row sweep field for field and counter for counter wherever it keeps
 * a race, and give back exactly the races its 16-bit lanes cannot
 * hold.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <tuple>

#include "rl/bio/align_dp.h"
#include "rl/bio/edit_graph.h"
#include "rl/bio/score_convert.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_network.h"
#include "rl/core/wavefront.h"
#include "rl/core/wavefront_band.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/util/random.h"
#include "rl/util/thread_pool.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using core::RaceOutcome;
using core::RaceType;
using graph::Dag;
using graph::NodeId;
using graph::Objective;

// ------------------------------------------------ raceDag vs DP oracle

/** The largest DP value of a reached node: the full race's latest
 *  firing. */
sim::Tick
latestDp(const graph::PathResult &dp)
{
    sim::Tick latest = 0;
    for (NodeId n = 0; n < dp.distance.size(); ++n)
        if (dp.reached(n))
            latest =
                std::max(latest, static_cast<sim::Tick>(dp.distance[n]));
    return latest;
}

graph::PathResult
dpOf(const Dag &d, const std::vector<NodeId> &sources, RaceType type)
{
    return graph::solveDag(d, sources,
                           type == RaceType::Or ? Objective::Shortest
                                                : Objective::Longest);
}

/**
 * Race `sources` over `d` under `horizon` on core::raceDag and
 * check it against the DAG DP `dp` and the closed form that follows
 * from it: a node fires at its DP value iff that value is within the
 * horizon; each fired node schedules exactly those out-edges that land
 * within the horizon (one event each, first to its target or not);
 * and the race lasts until the latest firing.
 */
void
expectRaceMatchesDp(const Dag &d, const std::vector<NodeId> &sources,
                    RaceType type, const graph::PathResult &dp,
                    sim::Tick horizon)
{
    SCOPED_TRACE(testing::Message() << "horizon=" << horizon);
    RaceOutcome got = core::raceDag(d, sources, type, horizon);
    ASSERT_EQ(got.firing.size(), d.nodeCount());
    uint64_t events = 0;
    sim::Tick latest = 0;
    for (NodeId n = 0; n < d.nodeCount(); ++n) {
        const sim::Tick t = static_cast<sim::Tick>(dp.distance[n]);
        if (!dp.reached(n) || t > horizon) {
            EXPECT_FALSE(got.at(n).fired()) << "node " << n;
            continue;
        }
        ASSERT_TRUE(got.at(n).fired()) << "node " << n;
        EXPECT_EQ(got.at(n).time(), t) << "node " << n;
        latest = std::max(latest, t);
        for (uint32_t idx : d.outEdges(n)) {
            const auto w = static_cast<sim::Tick>(d.edges()[idx].weight);
            if (t + w <= horizon)
                ++events;
        }
    }
    EXPECT_EQ(got.events, events);
    EXPECT_EQ(got.horizon, latest);
}

class WavefrontVsReference : public ::testing::TestWithParam<int> {};

TEST_P(WavefrontVsReference, OrRaceMatchesDp)
{
    util::Rng rng(3100 + GetParam());
    // Zero weights included: wire edges must propagate same-tick.
    Dag d = graph::randomDag(rng, 50, 0.15, {0, 9});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    (void)sink;
    expectRaceMatchesDp(d, {source}, RaceType::Or,
                        dpOf(d, {source}, RaceType::Or),
                        sim::kTickInfinity);
}

TEST_P(WavefrontVsReference, AndRaceMatchesDp)
{
    util::Rng rng(3500 + GetParam());
    // Zero weights included: an And node whose last arrival comes over
    // a wire fires on its latest predecessor's tick.
    Dag d = graph::layeredDag(rng, 6, 5, 0.5, {0, 9});
    std::vector<NodeId> sources{0, 1, 2, 3, 4};
    ASSERT_TRUE(core::andRaceMatchesDp(d, sources));

    graph::PathResult dp = dpOf(d, sources, RaceType::And);
    const sim::Tick latest = latestDp(dp);
    for (sim::Tick horizon : {sim::Tick(0), sim::Tick(5), latest - 1,
                              latest, sim::kTickInfinity})
        expectRaceMatchesDp(d, sources, RaceType::And, dp, horizon);
}

TEST_P(WavefrontVsReference, OrRaceUnderHorizonMatchesDp)
{
    util::Rng rng(3900 + GetParam());
    Dag d = graph::randomDag(rng, 40, 0.2, {1, 6});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    (void)sink;

    graph::PathResult dp = dpOf(d, {source}, RaceType::Or);
    const sim::Tick latest = latestDp(dp);
    for (sim::Tick horizon :
         {sim::Tick(0), sim::Tick(3), latest - 1, latest})
        expectRaceMatchesDp(d, {source}, RaceType::Or, dp, horizon);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WavefrontVsReference,
                         ::testing::Range(0, 15));

TEST(Wavefront, RaceDagDispatchesAndAgreesOnFig3)
{
    Dag d = graph::makeFig3ExampleDag();
    RaceOutcome out = core::raceDag(d, {0, 1}, RaceType::Or);
    EXPECT_EQ(out.at(4).time(), 2u);
    // The seed quirk, fixed: the AND race (longest path) gives 4.
    RaceOutcome longest = core::raceDag(d, {0, 1}, RaceType::And);
    EXPECT_EQ(longest.at(4).time(), 4u);
}

TEST(WavefrontDeath, RaceDagAssertsOnOverCapWeight)
{
    // One delay above the cap: raceDag asserts it, so an unvalidated
    // over-cap graph aborts (the engine rejects such problems with a
    // typed error before this point).
    Dag d(3);
    d.addEdge(0, 1, core::kMaxWavefrontWeight + 5);
    d.addEdge(1, 2, 2);
    EXPECT_DEATH(core::raceDag(d, {0}, RaceType::Or),
                 "wavefront kernel weight");
}

// --------------------------------------------- grid-direct kernel

class GridKernel : public ::testing::TestWithParam<int> {};

/**
 * Race (a, b) on the grid kernel and on core::raceDag over the
 * materialized edit graph under `horizon`, and assert the outcomes are
 * identical: arrival grid, events, cells fired, completion, latency --
 * and the kernel counters the sweep exports.  A score-only race of the
 * same case must match in everything but the (empty) arrival grid.
 */
void
expectGridMatchesMaterialized(const Sequence &a, const Sequence &b,
                              const ScoreMatrix &m, sim::Tick horizon)
{
    SCOPED_TRACE(testing::Message() << "a=" << a.str() << " b=" << b.str()
                                    << " horizon=" << horizon);
    core::RaceGridScratch scratch;
    core::KernelCounters counters;
    core::RaceGridResult grid = core::raceEditGrid(
        a, b, m, horizon, scratch, nullptr, &counters);

    bio::EditGraph eg = bio::makeEditGraph(a, b, m);
    RaceOutcome reference =
        core::raceDag(eg.dag, {eg.source}, RaceType::Or, horizon);

    EXPECT_EQ(grid.events, reference.events);
    size_t fired = 0;
    for (size_t i = 0; i <= eg.rows; ++i) {
        for (size_t j = 0; j <= eg.cols; ++j) {
            core::TemporalValue v = reference.at(eg.node(i, j));
            fired += v.fired();
            EXPECT_EQ(grid.arrival.at(i, j), v.rawTime())
                << "(" << i << "," << j << ")";
        }
    }
    EXPECT_EQ(grid.cellsFired, fired);
    const core::TemporalValue sink = reference.at(eg.sink);
    EXPECT_EQ(grid.completed, sink.fired());
    EXPECT_EQ(grid.latencyCycles, sink.fired() ? sink.time() : horizon);
    EXPECT_FALSE(grid.cancelled);

    EXPECT_EQ(counters.events, grid.events);
    EXPECT_EQ(counters.lanesOccupied, grid.cellsFired);
    EXPECT_EQ(counters.horizonAborts, grid.completed ? 0u : 1u);
    EXPECT_EQ(counters.cancels, 0u);

    // Score-only: no arrival grid, every other field and counter equal.
    core::KernelCounters bareCounters;
    core::RaceGridResult bare = core::raceEditGrid(
        a, b, m, horizon, scratch, nullptr, &bareCounters,
        /*arrivals=*/false);
    EXPECT_EQ(bare.arrival.rows(), 0u);
    EXPECT_EQ(bare.arrival.cols(), 0u);
    EXPECT_EQ(bare.score, grid.score);
    EXPECT_EQ(bare.completed, grid.completed);
    EXPECT_EQ(bare.cancelled, grid.cancelled);
    EXPECT_EQ(bare.latencyCycles, grid.latencyCycles);
    EXPECT_EQ(bare.cellsFired, grid.cellsFired);
    EXPECT_EQ(bare.events, grid.events);
    EXPECT_EQ(bareCounters.events, counters.events);
    EXPECT_EQ(bareCounters.bucketsDrained, counters.bucketsDrained);
    EXPECT_EQ(bareCounters.scratchHighWater, counters.scratchHighWater);
    EXPECT_EQ(bareCounters.lanesOccupied, counters.lanesOccupied);
    EXPECT_EQ(bareCounters.cancels, counters.cancels);
    EXPECT_EQ(bareCounters.horizonAborts, counters.horizonAborts);
}

TEST_P(GridKernel, MatchesMaterializedEditGraphRaceExactly)
{
    util::Rng rng(4300 + GetParam());
    for (const ScoreMatrix &m : {ScoreMatrix::dnaShortestPathInfMismatch(),
                                 ScoreMatrix::dnaShortestPath()}) {
        // Lengths from 0: an empty a and/or b races a single row or
        // column of gap edges.
        Sequence a = Sequence::random(rng, Alphabet::dna(),
                                      rng.index(13));
        Sequence b = Sequence::random(rng, Alphabet::dna(),
                                      rng.index(13));
        const Sequence empty(Alphabet::dna(), "");
        const bio::Score score = bio::globalScore(a, b, m);
        EXPECT_EQ(core::raceEditGrid(a, b, m).score, score);

        // Unbounded, the Section 6 edge cases around the exact score,
        // and a random horizon.
        for (sim::Tick horizon :
             {sim::kTickInfinity, sim::Tick(0), sim::Tick(1),
              sim::Tick(score), sim::Tick(score > 0 ? score - 1 : 0),
              sim::Tick(rng.index(2 * score + 2))}) {
            expectGridMatchesMaterialized(a, b, m, horizon);
            expectGridMatchesMaterialized(empty, b, m, horizon);
            expectGridMatchesMaterialized(a, empty, m, horizon);
        }
        expectGridMatchesMaterialized(empty, empty, m, sim::kTickInfinity);
    }
}

TEST_P(GridKernel, HorizonMatchesFullRacePrefix)
{
    util::Rng rng(4700 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    Sequence a = Sequence::random(rng, Alphabet::dna(), 10);
    Sequence b = Sequence::random(rng, Alphabet::dna(), 10);

    core::RaceGridResult full = core::raceEditGrid(a, b, m);
    for (sim::Tick horizon :
         {sim::Tick(0), sim::Tick(4), sim::Tick(full.latencyCycles)}) {
        core::RaceGridResult bounded =
            core::raceEditGrid(a, b, m, horizon);
        for (size_t i = 0; i < full.arrival.rows(); ++i) {
            for (size_t j = 0; j < full.arrival.cols(); ++j) {
                sim::Tick t = full.arrival.at(i, j);
                EXPECT_EQ(bounded.arrival.at(i, j),
                          t <= horizon ? t : sim::kTickInfinity);
            }
        }
        bool sinkIn = full.latencyCycles <= horizon;
        EXPECT_EQ(bounded.completed, sinkIn);
        if (sinkIn) {
            EXPECT_EQ(bounded.score, full.score);
        } else {
            EXPECT_EQ(bounded.score, bio::kScoreInfinity);
            EXPECT_EQ(bounded.latencyCycles, horizon);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridKernel, ::testing::Range(0, 10));

// ------------------------------------------- the skewed band vs row sweep

using EditGridSweep = decltype(&core::detail::raceEditGridRows);

constexpr size_t kLanes = core::detail::kBandLanes;
constexpr sim::Tick kBound = core::detail::kBandUnfired; // 2^14

const char *const kNoBand =
    "host has no AVX-512BW: raceEditGrid runs the row sweep alone";

/**
 * raceEditGrid's band, which must keep the race: one it gives back to
 * the row sweep fails the test and reads as a default result.
 */
core::RaceGridResult
keptBand(const Sequence &a, const Sequence &b, const ScoreMatrix &m,
         sim::Tick horizon, core::RaceGridScratch &scratch,
         const core::CancelToken *cancel, core::KernelCounters *counters,
         bool arrivals)
{
    std::optional<core::RaceGridResult> raced =
        core::detail::raceEditGridBand(a, b, m, horizon, scratch, cancel,
                                       counters, arrivals);
    EXPECT_TRUE(raced.has_value())
        << "the band gave the race back to the row sweep";
    return raced ? std::move(*raced) : core::RaceGridResult();
}

/**
 * Race (a, b) on the row sweep and on `subject` and assert the
 * outcomes are identical: every RaceGridResult field, the arrival grid
 * included, and every KernelCounters field.
 */
void
expectBandMatchesRows(const Sequence &a, const Sequence &b,
                      const ScoreMatrix &m, sim::Tick horizon,
                      bool arrivals, const core::CancelToken *cancel,
                      EditGridSweep subject)
{
    SCOPED_TRACE(testing::Message()
                 << "|a|=" << a.size() << " |b|=" << b.size()
                 << " horizon=" << horizon << " arrivals=" << arrivals
                 << " cancel=" << (cancel ? cancel->cancelled() : -1));
    core::RaceGridScratch rowScratch, bandScratch;
    core::KernelCounters rowCounters, bandCounters;
    const core::RaceGridResult rows = core::detail::raceEditGridRows(
        a, b, m, horizon, rowScratch, cancel, &rowCounters, arrivals);
    const core::RaceGridResult band = subject(
        a, b, m, horizon, bandScratch, cancel, &bandCounters, arrivals);

    EXPECT_EQ(band.score, rows.score);
    EXPECT_EQ(band.completed, rows.completed);
    EXPECT_EQ(band.cancelled, rows.cancelled);
    EXPECT_EQ(band.latencyCycles, rows.latencyCycles);
    EXPECT_EQ(band.cellsFired, rows.cellsFired);
    EXPECT_EQ(band.events, rows.events);
    EXPECT_EQ(band.arrival.rows(), rows.arrival.rows());
    EXPECT_EQ(band.arrival.cols(), rows.arrival.cols());
    EXPECT_TRUE(band.arrival == rows.arrival);

    EXPECT_EQ(bandCounters.events, rowCounters.events);
    EXPECT_EQ(bandCounters.bucketsDrained, rowCounters.bucketsDrained);
    EXPECT_EQ(bandCounters.scratchHighWater, rowCounters.scratchHighWater);
    EXPECT_EQ(bandCounters.lanesOccupied, rowCounters.lanesOccupied);
    EXPECT_EQ(bandCounters.cancels, rowCounters.cancels);
    EXPECT_EQ(bandCounters.horizonAborts, rowCounters.horizonAborts);
}

/**
 * Race (a, b) under `horizon` on the band where the host has it, and
 * assert it keeps the race exactly when its lanes hold it -- the
 * horizon is below 2^14, or the row sweep's latest arrival plus the
 * largest weight is -- and then matches the row sweep; and that
 * raceEditGrid, which races the row sweep again for a race the band
 * gives back, matches it either way.  Returns whether the band kept
 * the race (false on a host without the band).
 */
bool
expectBandKeepsWhatItsLanesHold(const Sequence &a, const Sequence &b,
                                const ScoreMatrix &m, sim::Tick horizon,
                                bool arrivals)
{
    SCOPED_TRACE(testing::Message() << "|a|=" << a.size() << " |b|="
                                    << b.size() << " horizon=" << horizon
                                    << " arrivals=" << arrivals);
    expectBandMatchesRows(a, b, m, horizon, arrivals, nullptr,
                          &core::raceEditGrid);
    if (!core::detail::hostRunsBand())
        return false;
    core::RaceGridScratch rowScratch, bandScratch;
    core::KernelCounters rowCounters, bandCounters;
    (void)core::detail::raceEditGridRows(a, b, m, horizon, rowScratch,
                                         nullptr, &rowCounters, false);
    const sim::Tick latest = rowCounters.bucketsDrained - 1;
    const bool holds = horizon < kBound ||
                       latest + static_cast<sim::Tick>(m.maxFinite()) < kBound;
    const std::optional<core::RaceGridResult> band =
        core::detail::raceEditGridBand(a, b, m, horizon, bandScratch,
                                       nullptr, &bandCounters, arrivals);
    EXPECT_EQ(band.has_value(), holds) << "latest arrival " << latest;
    if (band)
        expectBandMatchesRows(a, b, m, horizon, arrivals, nullptr,
                              &keptBand);
    else
        EXPECT_EQ(bandCounters.events + bandCounters.bucketsDrained +
                      bandCounters.scratchHighWater +
                      bandCounters.lanesOccupied + bandCounters.cancels +
                      bandCounters.horizonAborts,
                  0u)
            << "a race the band gave back touched the counters";
    return band.has_value();
}

class BandSweep : public ::testing::TestWithParam<int>
{
  protected:
    void
    SetUp() override
    {
        if (!core::detail::hostRunsBand())
            GTEST_SKIP() << kNoBand;
    }
};

TEST_P(BandSweep, MatchesRowSweepOnEveryFieldAndCounter)
{
    util::Rng rng(5100 + GetParam());
    const ScoreMatrix protein =
        bio::toShortestPathForm(ScoreMatrix::blosum62()).costs;
    const core::CancelToken never;
    core::CancelToken already;
    already.cancel();
    for (const ScoreMatrix &m : {ScoreMatrix::dnaShortestPath(),
                                 ScoreMatrix::dnaShortestPathInfMismatch(),
                                 protein}) {
        for (int trial = 0; trial < 3; ++trial) {
            // Empty sequences on the first two trials; otherwise any
            // length up to 200, so the last band is mostly partial.
            // DNA takes the pair table, protein's 20 letters the
            // gather, and the band keeps every race.
            const size_t rows = trial == 0 ? 0 : rng.index(201);
            const size_t cols = trial == 1 ? 0 : rng.index(201);
            const Sequence a = Sequence::random(rng, m.alphabet(), rows);
            const Sequence b = Sequence::random(rng, m.alphabet(), cols);
            const sim::Tick opt =
                static_cast<sim::Tick>(bio::globalScore(a, b, m));
            for (sim::Tick horizon :
                 {sim::kTickInfinity, sim::Tick(0), opt > 0 ? opt - 1 : 0,
                  opt, sim::Tick(rng.index(2 * opt + 2))}) {
                for (bool arrivals : {true, false}) {
                    expectBandMatchesRows(a, b, m, horizon, arrivals,
                                          nullptr, &keptBand);
                    expectBandMatchesRows(a, b, m, horizon, arrivals,
                                          &never, &keptBand);
                    expectBandMatchesRows(a, b, m, horizon, arrivals,
                                          &already, &keptBand);
                }
            }
        }
    }
}

TEST_P(BandSweep, EveryBandShapeAroundTheLaneCount)
{
    // Row and column counts on both sides of each band boundary, with
    // horizons that stop the sweep inside a band.
    util::Rng rng(5300 + GetParam());
    const ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    const size_t rows = static_cast<size_t>(GetParam()) + 1; // 1..3 bands
    for (size_t cols : {size_t(0), size_t(1), kLanes - 1, kLanes,
                        kLanes + 1, 2 * kLanes + 1}) {
        const Sequence a = Sequence::random(rng, Alphabet::dna(), rows);
        const Sequence b = Sequence::random(rng, Alphabet::dna(), cols);
        for (sim::Tick horizon : {sim::kTickInfinity, sim::Tick(rows / 2),
                                  sim::Tick(rows + 3)})
            expectBandMatchesRows(a, b, m, horizon, true, nullptr,
                                  &keptBand);
    }
}

// One seed per row count of EveryBandShapeAroundTheLaneCount.
INSTANTIATE_TEST_SUITE_P(Seeds, BandSweep,
                         ::testing::Range(0, static_cast<int>(3 * kLanes)));

// -------------------------------------------------- the band's bound

/**
 * DNA costs of `w` for every match and every gap, with mismatches
 * forbidden: a grid of two sequences with no symbol in common races
 * gap chains alone, so its costs climb to (|a| + |b|) x w, and every
 * arrival is at most that.
 */
ScoreMatrix
gapChainCosts(bio::Score w)
{
    ScoreMatrix m =
        ScoreMatrix::uniform(Alphabet::dna(), bio::ScoreKind::Cost, w);
    for (bio::Symbol x = 0; x < 4; ++x)
        for (bio::Symbol y = 0; y < 4; ++y)
            if (x != y)
                m.setPair(x, y, bio::kScoreInfinity);
    return m;
}

/** |a| letters over {A, C} and |b| over {G, T}: no symbol in common,
 *  so under gapChainCosts(w) the sink fires at (|a| + |b|) w. */
std::pair<Sequence, Sequence>
gapChainPair(util::Rng &rng, size_t rows, size_t cols)
{
    std::string left, right;
    for (size_t i = 0; i < rows; ++i)
        left += rng.bernoulli(0.5) ? 'A' : 'C';
    for (size_t j = 0; j < cols; ++j)
        right += rng.bernoulli(0.5) ? 'G' : 'T';
    return {Sequence(Alphabet::dna(), left),
            Sequence(Alphabet::dna(), right)};
}

TEST(BandBound, TheBandRacesBelowTheBoundAndTheRowSweepFromIt)
{
    // |a| + |b| = 63, so the sink fires at 63 w and the latest arrival
    // is the sink's.  At w = 255 that plus w is 64 x 255 < 2^14: the
    // band keeps the race under every horizon.  At w = 256 it is 2^14
    // exactly, and at 512 the sink itself is past 2^14: the band keeps
    // those races only under horizons below 2^14, and gives the rest
    // back to the row sweep.  The horizons: the sink less one, the
    // sink, 2^14, and 2^40, past every lane value.
    util::Rng rng(5800);
    const auto [a, b] = gapChainPair(rng, 31, 32);
    for (bio::Score w : {255, 256, 512}) {
        SCOPED_TRACE(testing::Message() << "w=" << w);
        const ScoreMatrix m = gapChainCosts(w);
        const auto sink = static_cast<sim::Tick>(63 * w);
        EXPECT_EQ(core::raceEditGrid(a, b, m).score, 63 * w);
        for (sim::Tick horizon : {sim::kTickInfinity, sink - 1, sink, kBound,
                                  sim::Tick(1) << 40}) {
            for (bool arrivals : {true, false}) {
                const bool kept = expectBandKeepsWhatItsLanesHold(
                    a, b, m, horizon, arrivals);
                if (core::detail::hostRunsBand())
                    EXPECT_EQ(kept, w == 255 || horizon < kBound);
            }
        }
    }
}

TEST(BandBound, LatestArrivalPlusTheLargestWeightDecides)
{
    // Unbounded gap-chain races whose latest arrival is the sink's,
    // (|a| + |b|) w: 128 x 127 + 127 = 2^14 - 1 is kept, and
    // 127 x 128 + 128 = 2^14 is raced again on the row sweep.
    util::Rng rng(5810);
    for (const auto &[rows, w] : {std::pair<size_t, bio::Score>{64, 127},
                                  std::pair<size_t, bio::Score>{63, 128}}) {
        SCOPED_TRACE(testing::Message() << "w=" << w);
        const auto [a, b] = gapChainPair(rng, rows, 64);
        const ScoreMatrix m = gapChainCosts(w);
        EXPECT_EQ((rows + 64 + 1) * sim::Tick(w), w == 127 ? kBound - 1
                                                           : kBound);
        for (bool arrivals : {true, false}) {
            const bool kept = expectBandKeepsWhatItsLanesHold(
                a, b, m, sim::kTickInfinity, arrivals);
            if (core::detail::hostRunsBand())
                EXPECT_EQ(kept, w == 127);
        }
    }
}

TEST(BandBound, RacesGoBackInTheirFirstBandOrTheirLast)
{
    // Heavy weights: 600 per gap, so row 0's 20 columns stay clear of
    // 2^14 and the first band's rows pass it.  Then 128 per gap over
    // 70 rows: the first two bands' arrivals reach 124 x 128, 128 below
    // 2^14, and only the last band's six rows pass it.  Both go back to
    // the row sweep, unbounded; under a horizon below 2^14 the band
    // keeps them.
    util::Rng rng(5820);
    for (const auto &[rows, cols, w] :
         {std::tuple<size_t, size_t, bio::Score>{40, 20, 600},
          std::tuple<size_t, size_t, bio::Score>{70, 60, 128}}) {
        SCOPED_TRACE(testing::Message() << "w=" << w);
        const auto [a, b] = gapChainPair(rng, rows, cols);
        const ScoreMatrix m = gapChainCosts(w);
        for (bool arrivals : {true, false}) {
            for (sim::Tick horizon : {sim::kTickInfinity, kBound - 1}) {
                const bool kept = expectBandKeepsWhatItsLanesHold(
                    a, b, m, horizon, arrivals);
                if (core::detail::hostRunsBand())
                    EXPECT_EQ(kept, horizon < kBound);
            }
        }
    }
}

TEST(BandBound, RacesPastTheWorstCasePathBoundStayOnTheBand)
{
    // 8200 x 100 DNA: the longest path's 8300 edges of up to weight 2
    // pass 2^14, the bound the band once took races by, but every
    // arrival of the race stays far below it, so the band keeps it.
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << kNoBand;
    util::Rng rng(5830);
    const ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    const Sequence a = Sequence::random(rng, Alphabet::dna(), 8200);
    const Sequence b = Sequence::random(rng, Alphabet::dna(), 100);
    EXPECT_GE((a.size() + b.size() + 1) * sim::Tick(m.maxFinite()), kBound);
    EXPECT_TRUE(expectBandKeepsWhatItsLanesHold(a, b, m, sim::kTickInfinity,
                                                false));
}

TEST(BandBound, HorizonJustBelowTheBoundOnAChainPastItsTallies)
{
    // 22000 columns under a horizon of 2^14 - 1: a lane that counted
    // three arrivals into every column would pass 2^16, but an arrival
    // into column j is at least j, so it counts none past column 2^14
    // and its 16-bit tallies never wrap.
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << kNoBand;
    util::Rng rng(5840);
    const ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    const Sequence a = Sequence::random(rng, Alphabet::dna(), 40);
    const Sequence b = Sequence::random(rng, Alphabet::dna(), 22000);
    EXPECT_GT(3 * b.size(), size_t(UINT16_MAX));
    for (bool arrivals : {true, false})
        expectBandMatchesRows(a, b, m, kBound - 1, arrivals, nullptr,
                              &keptBand);
}

/**
 * Costs over the first `letters` letters of a 64-letter alphabet,
 * drawn from 1..9: pairs forbidden at random, gaps finite.
 */
ScoreMatrix
lettersCosts(util::Rng &rng, size_t letters)
{
    const Alphabet alphabet(
        std::string("ACDEFGHIKLMNPQRSTVWYBJOUXZabcdefghijklmnopqrstuvwxyz"
                    "0123456789+/")
            .substr(0, letters));
    ScoreMatrix m(alphabet, bio::ScoreKind::Cost);
    for (size_t x = 0; x < letters; ++x) {
        m.setGap(bio::Symbol(x), rng.uniformInt(1, 9));
        for (size_t y = 0; y < letters; ++y)
            m.setPair(bio::Symbol(x), bio::Symbol(y),
                      x != y && rng.index(4) == 0 ? bio::kScoreInfinity
                                                  : rng.uniformInt(1, 9));
    }
    return m;
}

TEST(BandAlphabet, EveryAlphabetUpToSixtyFourLettersRacesTheBand)
{
    // The pair table has 8 codes per axis: 7 letters and the unfired
    // code.  From 8 letters the band gathers its substitution weights.
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << kNoBand;
    util::Rng rng(5900);
    for (size_t letters : {size_t(7), size_t(8), size_t(20), size_t(64)}) {
        SCOPED_TRACE(testing::Message() << letters << " letters");
        const ScoreMatrix m = lettersCosts(rng, letters);
        EXPECT_EQ(core::detail::bandGathers(letters), letters >= 8);
        const Sequence a = Sequence::random(rng, m.alphabet(), 90);
        const Sequence b = Sequence::random(rng, m.alphabet(), 70);
        const sim::Tick opt =
            static_cast<sim::Tick>(bio::globalScore(a, b, m));
        for (sim::Tick horizon : {sim::kTickInfinity, opt - 1, opt})
            for (bool arrivals : {true, false})
                expectBandMatchesRows(a, b, m, horizon, arrivals, nullptr,
                                      &keptBand);
    }
}

/**
 * Cancel 2047 x 2047 races from a second thread: the sweep must come
 * back with the typed abort, having counted exactly the arrivals into
 * the rows it swept.  dnaShortestPath has no forbidden pair, so an
 * unbounded race fires every cell of each swept row and counts every
 * edge into it: |b| horizontal ones into row 0, then 3|b| + 1 into
 * each later row.
 */
void
expectCancelledFromAnotherThread(EditGridSweep sweep)
{
    util::Rng rng(5700);
    const ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    const size_t n = 2047;
    const Sequence a = Sequence::random(rng, Alphabet::dna(), n);
    const Sequence b = Sequence::random(rng, Alphabet::dna(), n);

    // The cancel lands whenever the scheduler runs the canceller: at
    // once on an idle multi-core host, after a time slice on a busy or
    // single-core one.  Race until it has landed; the race in flight
    // then stops mid-sweep, or the next one before its first row.
    core::CancelToken token;
    std::thread canceller([&token] { token.cancel(); });
    core::RaceGridResult r;
    core::KernelCounters counters;
    for (int race = 0; race < 2000; ++race) {
        core::RaceGridScratch scratch;
        counters = core::KernelCounters();
        r = sweep(a, b, m, sim::kTickInfinity, scratch, &token, &counters,
                  false);
        if (!r.completed)
            break;
    }
    canceller.join();

    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.score, bio::kScoreInfinity);
    EXPECT_EQ(counters.cancels, 1u);
    EXPECT_EQ(counters.horizonAborts, 0u);
    ASSERT_EQ(r.cellsFired % (n + 1), 0u);
    const uint64_t swept = r.cellsFired / (n + 1);
    EXPECT_LE(swept, n) << "the last row was swept: the sink fired";
    EXPECT_EQ(r.events, swept == 0 ? 0 : n + (swept - 1) * (3 * n + 1));
    EXPECT_EQ(counters.events, r.events);
}

TEST(BandSweepCancel, RowSweepStopsWithTheTypedAbort)
{
    expectCancelledFromAnotherThread(&core::detail::raceEditGridRows);
}

TEST(BandSweepCancel, BandStopsWithTheTypedAbort)
{
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << kNoBand;
    expectCancelledFromAnotherThread(&keptBand);
}

// ------------------------------- horizon-true screening accounting

TEST(ScreeningHorizon, ScreenerStopsRacingAtThreshold)
{
    // The aborted race never fires cells past the threshold cycle --
    // visible through the aligner's bounded overload.
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    core::RaceGridAligner racer(m);
    Sequence a(Alphabet::dna(), "AAAAAAAA");
    Sequence b(Alphabet::dna(), "CCCCCCCC");
    core::RaceGridResult bounded = racer.align(a, b, 5);
    EXPECT_FALSE(bounded.completed);
    for (sim::Tick t : bounded.arrival.flat())
        EXPECT_TRUE(t == sim::kTickInfinity || t <= 5u);

    core::RaceGridResult full = racer.align(a, b);
    EXPECT_GT(full.events, bounded.events)
        << "the horizon should prune simulated arrivals";
}

// ------------------------------------------------------ thread pool

TEST(ThreadPool, CoversEveryIndexExactlyOnceAcrossBatches)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    for (size_t round = 0; round < 3; ++round) {
        const size_t n = 257 + round;
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // Degenerate sizes.
    pool.parallelFor(0, [](size_t) { FAIL(); });
    std::atomic<int> one{0};
    pool.parallelFor(1, [&](size_t) { ++one; });
    EXPECT_EQ(one.load(), 1);
}

} // namespace
