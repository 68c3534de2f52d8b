/**
 * @file
 * Tests for the extension modules: race-native traceback, the
 * asynchronous/analog race (Fig. 3d), and the gate-level clock-gated
 * fabric (§4.3 realized in real enable logic).
 */

#include <gtest/gtest.h>

#include "rl/bio/align_dp.h"
#include "rl/core/async_race.h"
#include "rl/core/clock_gating.h"
#include "rl/core/grid_fabric.h"
#include "rl/core/race_grid.h"
#include "rl/core/traceback.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using circuit::CompiledSim;
using core::GridFabric;
using core::raceFabricPair;

// ---------------------------------------------------------- traceback

class RaceTraceback : public ::testing::TestWithParam<int> {};

TEST_P(RaceTraceback, RecoversAValidOptimalAlignment)
{
    util::Rng rng(14000 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    core::RaceGridAligner racer(m);
    size_t n = 1 + rng.index(20);
    size_t k = 1 + rng.index(20);
    Sequence a = Sequence::random(rng, Alphabet::dna(), n);
    Sequence b = Sequence::random(rng, Alphabet::dna(), k);
    core::RaceGridResult raced = racer.align(a, b);
    bio::Alignment alignment =
        core::tracebackFromRace(raced, a, b, m);
    EXPECT_EQ(alignment.score, raced.score);
    EXPECT_EQ(bio::checkAlignment(a, b, m, alignment), "");
}

TEST_P(RaceTraceback, AgreesWithDpTracebackExactly)
{
    // Same tie-breaking policy => byte-identical alignments.
    util::Rng rng(15000 + GetParam());
    ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    core::RaceGridAligner racer(m);
    Sequence a = Sequence::random(rng, Alphabet::dna(),
                                  1 + rng.index(15));
    Sequence b = Sequence::random(rng, Alphabet::dna(),
                                  1 + rng.index(15));
    bio::Alignment from_race =
        core::tracebackFromRace(racer.align(a, b), a, b, m);
    bio::Alignment from_dp = bio::globalAlign(a, b, m);
    EXPECT_EQ(from_race.alignedA, from_dp.alignedA);
    EXPECT_EQ(from_race.alignedB, from_dp.alignedB);
    EXPECT_EQ(from_race.path, from_dp.path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaceTraceback, ::testing::Range(0, 12));

TEST(RaceTraceback, PaperExampleAlignment)
{
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    core::RaceGridAligner racer(m);
    Sequence q(Alphabet::dna(), "GATTCGA");
    Sequence p(Alphabet::dna(), "ACTGAGA");
    auto raced = racer.align(q, p);
    auto alignment = core::tracebackFromRace(raced, q, p, m);
    EXPECT_EQ(alignment.score, 10);
    EXPECT_EQ(alignment.matches, 4u); // N + M - score = 14 - 10
    EXPECT_EQ(alignment.mismatches, 0u);
    EXPECT_EQ(alignment.indels, 6u);
}

// -------------------------------------------------------- analog race

TEST(AsyncRace, ZeroSigmaEqualsDigitalRace)
{
    util::Rng rng(21);
    graph::Dag d = graph::randomDag(rng, 40, 0.15, {1, 6});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    core::AnalogDelayModel ideal{2.5, 0.0};
    auto analog = core::raceDagAnalog(d, {source}, core::RaceType::Or,
                                      ideal, rng);
    auto dp = graph::solveDag(d, {source}, graph::Objective::Shortest);
    for (graph::NodeId node = 0; node < d.nodeCount(); ++node) {
        if (!dp.reached(node))
            continue;
        EXPECT_NEAR(analog.arrivalNs[node],
                    double(dp.distance[node]) * 2.5, 1e-9)
            << "node " << node;
    }
    (void)sink;
}

TEST(AsyncRace, AndTypeZeroSigmaEqualsLongestPath)
{
    util::Rng rng(22);
    graph::Dag d = graph::layeredDag(rng, 5, 4, 0.6, {1, 5});
    std::vector<graph::NodeId> sources{0, 1, 2, 3};
    core::AnalogDelayModel ideal{1.0, 0.0};
    auto analog = core::raceDagAnalog(d, sources, core::RaceType::And,
                                      ideal, rng);
    auto dp = graph::solveDag(d, sources, graph::Objective::Longest);
    for (graph::NodeId node = 0; node < d.nodeCount(); ++node) {
        if (!dp.reached(node))
            continue;
        EXPECT_NEAR(analog.arrivalNs[node], double(dp.distance[node]),
                    1e-9);
    }
}

TEST(AsyncRace, VariationPerturbsButStaysPositive)
{
    util::Rng rng(23);
    graph::Dag d = graph::randomDag(rng, 30, 0.2, {1, 4});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    core::AnalogDelayModel noisy{1.0, 0.2};
    auto analog = core::raceDagAnalog(d, {source}, core::RaceType::Or,
                                      noisy, rng);
    for (double delay : analog.edgeDelaysNs)
        EXPECT_GT(delay, 0.0);
    EXPECT_TRUE(analog.fired(sink));
}

TEST(AsyncRace, RobustnessPerfectAtZeroSigma)
{
    util::Rng rng(24);
    graph::Dag d = graph::randomDag(rng, 25, 0.25, {1, 5});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    core::AnalogDelayModel ideal{1.0, 0.0};
    auto report = core::analyzeVariationRobustness(d, {source}, sink,
                                                   ideal, 20, rng);
    EXPECT_EQ(report.decisionCorrect, 20u);
    EXPECT_EQ(report.readoutExact, 20u);
    EXPECT_NEAR(report.maxRelativeError, 0.0, 1e-12);
}

TEST(AsyncRace, RobustnessDegradesMonotonicallyWithSigma)
{
    util::Rng rng(25);
    graph::Dag d = graph::randomDag(rng, 30, 0.2, {1, 6});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    core::AnalogDelayModel small_sigma{1.0, 0.02};
    core::AnalogDelayModel large_sigma{1.0, 0.5};
    auto small_report = core::analyzeVariationRobustness(
        d, {source}, sink, small_sigma, 60, rng);
    auto large_report = core::analyzeVariationRobustness(
        d, {source}, sink, large_sigma, 60, rng);
    EXPECT_GE(small_report.readoutRate(), large_report.readoutRate());
    EXPECT_LT(small_report.meanRelativeError,
              large_report.meanRelativeError);
    EXPECT_GT(small_report.readoutRate(), 0.9)
        << "2% device variation should rarely flip a readout";
}

// ------------------------------------------------- gated fabric (HW)

class GatedFabric
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{};

TEST_P(GatedFabric, ScoresIdenticalToUngatedFabric)
{
    auto [n, m_side] = GetParam();
    if (m_side > n)
        GTEST_SKIP();
    util::Rng rng(16000 + n * 13 + m_side);
    const GridFabric plain = GridFabric::unitCells(Alphabet::dna(), n, n);
    const GridFabric gated =
        GridFabric::gated(Alphabet::dna(), n, n, m_side);
    CompiledSim plain_sim(plain.compiled());
    CompiledSim gated_sim(gated.compiled());
    for (int trial = 0; trial < 3; ++trial) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), n);
        Sequence b = Sequence::random(rng, Alphabet::dna(), n);
        auto r_plain = raceFabricPair(plain_sim, plain, a, b);
        auto r_gated = raceFabricPair(gated_sim, gated, a, b);
        ASSERT_TRUE(r_plain.completed && r_gated.completed);
        EXPECT_EQ(r_gated.score, r_plain.score)
            << a.str() << " vs " << b.str();
    }
}

TEST_P(GatedFabric, ClockActivityReducedVsUngated)
{
    auto [n, m_side] = GetParam();
    if (m_side >= n)
        GTEST_SKIP();
    util::Rng rng(17000 + n * 13 + m_side);
    const GridFabric plain = GridFabric::unitCells(Alphabet::dna(), n, n);
    const GridFabric gated =
        GridFabric::gated(Alphabet::dna(), n, n, m_side);
    CompiledSim plain_sim(plain.compiled());
    CompiledSim gated_sim(gated.compiled());
    auto [a, b] = bio::worstCasePair(rng, Alphabet::dna(), n);
    raceFabricPair(plain_sim, plain, a, b);
    raceFabricPair(gated_sim, gated, a, b);
    EXPECT_LT(gated_sim.activity().clockedDffCycles,
              plain_sim.activity().clockedDffCycles);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndGranularities, GatedFabric,
    ::testing::Combine(::testing::Values<size_t>(4, 6, 8, 12),
                       ::testing::Values<size_t>(1, 2, 4)));

TEST(GatedFabric, MatchesBehavioralGatingAnalysisClosely)
{
    // The gate-level enable network and the behavioral window
    // analysis model the same §4.3 scheme; their cell-DFF clock
    // activities should agree within the wake/latch edge slack.
    const size_t n = 8, m_side = 2;
    util::Rng rng(31);
    auto [a, b] = bio::worstCasePair(rng, Alphabet::dna(), n);

    const GridFabric gated =
        GridFabric::gated(Alphabet::dna(), n, n, m_side);
    CompiledSim sim(gated.compiled());
    auto run = raceFabricPair(sim, gated, a, b);
    ASSERT_TRUE(run.completed);
    // Strip the un-gated boundary frame; only the cell array is the
    // gated C_clk term the behavioral analysis models.
    uint64_t gate_level =
        core::splitGatedClockActivity(sim.activity(), n, n)
            .cellDffCycles;

    core::RaceGridAligner model(
        ScoreMatrix::dnaShortestPathInfMismatch());
    core::GatingAnalysis analysis =
        core::analyzeClockGating(model.align(a, b), m_side);

    double ratio = double(gate_level) /
                   double(analysis.gatedDffCycles);
    EXPECT_GT(ratio, 0.5) << gate_level << " vs "
                          << analysis.gatedDffCycles;
    EXPECT_LT(ratio, 2.0) << gate_level << " vs "
                          << analysis.gatedDffCycles;
}

TEST(GatedFabric, GatingOverheadIsCounted)
{
    // The gated builder runs the plain datapath, then adds one gating
    // leaf per region, each with the fabric's only NOT gate.
    const GridFabric plain = GridFabric::unitCells(Alphabet::dna(), 8, 8);
    const GridFabric gated = GridFabric::gated(Alphabet::dna(), 8, 8, 4);
    const size_t regions =
        gated.netlist().typeCounts()[size_t(circuit::GateType::Not)];
    EXPECT_EQ(regions, 4u);
    const size_t gating_gates =
        gated.netlist().gateCount() - plain.netlist().gateCount();
    EXPECT_GT(gating_gates, 0u);
    // A few gates per region (wake OR, done AND, NOT, enable AND).
    EXPECT_LE(gating_gates, regions * 6);
}

} // namespace
