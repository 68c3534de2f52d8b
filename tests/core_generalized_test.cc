/**
 * @file
 * Tests for the generalized architecture (Section 5 / Fig. 8):
 * weight applicators under both delay encodings, the gate-level
 * generalized grid, and race latency tracking similarity.  End-to-end
 * BLOSUM62/PAM250 score recovery through api::RaceEngine is checked
 * against the DP in api_differential_test.cc.
 */

#include <gtest/gtest.h>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/bio/score_convert.h"
#include "rl/core/generalized.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using core::DelayEncoding;
using core::GeneralizedCellSpec;
using core::GeneralizedGridCircuit;

// --------------------------------------------------------- cell spec

TEST(CellSpec, Blosum62Sizing)
{
    auto form = bio::toShortestPathForm(ScoreMatrix::blosum62());
    auto spec = GeneralizedCellSpec::fromMatrix(form.costs);
    EXPECT_EQ(spec.dynamicRange, 16);
    EXPECT_EQ(spec.counterBits, 5u); // counts 0..16 -> 5 bits
    EXPECT_EQ(spec.symbolBits, 5u);
    EXPECT_FALSE(spec.hasForbiddenPairs);
    EXPECT_EQ(spec.distinctGapWeights.size(), 1u);
    EXPECT_EQ(spec.distinctGapWeights[0], 10);
    // BLOSUM62 pair scores span -4..11 -> costs 1..16, many distinct.
    EXPECT_GT(spec.distinctPairWeights.size(), 10u);
    EXPECT_EQ(spec.distinctPairWeights.front(), 1);
    EXPECT_EQ(spec.distinctPairWeights.back(), 16);
}

TEST(CellSpec, InfMismatchDna)
{
    auto spec = GeneralizedCellSpec::fromMatrix(
        ScoreMatrix::dnaShortestPathInfMismatch());
    EXPECT_EQ(spec.dynamicRange, 1);
    EXPECT_TRUE(spec.hasForbiddenPairs);
    EXPECT_EQ(spec.distinctPairWeights,
              (std::vector<bio::Score>{1}));
}

// -------------------------------------------------- weight applicator

class ApplicatorTiming
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(ApplicatorTiming, DelaysBySelectedWeight)
{
    auto [weight, encoding_int] = GetParam();
    DelayEncoding encoding = encoding_int
                                 ? DelayEncoding::Binary
                                 : DelayEncoding::OneHot;
    // Build an applicator with weights {1..6} indexed by a 3-bit
    // select, dynamic range 6.
    GeneralizedCellSpec spec;
    spec.dynamicRange = 6;
    spec.counterBits = 3;
    spec.symbolBits = 3;
    std::vector<bio::Score> weights{1, 2, 3, 4, 5, 6};

    circuit::Netlist net;
    circuit::NetId pred = net.input("pred");
    circuit::Bus sel = circuit::buildInputBus(net, "s", 3);
    circuit::NetId out = core::buildWeightApplicator(
        net, pred, sel, weights, spec, encoding);
    net.validate();
    circuit::SyncSim sim(net);

    size_t index = static_cast<size_t>(weight - 1);
    for (unsigned b = 0; b < 3; ++b)
        sim.setInput(sel[b], (index >> b) & 1);

    // Fire the predecessor after 2 idle cycles; output must rise
    // exactly `weight` cycles later and stay high.
    sim.tickMany(2);
    EXPECT_FALSE(sim.value(out));
    sim.setInput(pred, true);
    auto fired = sim.runUntil(out, true, 20);
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(*fired - 2, static_cast<uint64_t>(weight));
    sim.tickMany(4);
    EXPECT_TRUE(sim.value(out)) << "set-on-arrival holds the level";
}

INSTANTIATE_TEST_SUITE_P(
    WeightsAndEncodings, ApplicatorTiming,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(0, 1)));

TEST(Applicator, ForbiddenCodeNeverFires)
{
    GeneralizedCellSpec spec;
    spec.dynamicRange = 3;
    spec.counterBits = 2;
    spec.symbolBits = 1;
    std::vector<bio::Score> weights{2, bio::kScoreInfinity};

    for (DelayEncoding enc :
         {DelayEncoding::OneHot, DelayEncoding::Binary}) {
        circuit::Netlist net;
        circuit::NetId pred = net.input("pred");
        circuit::Bus sel = circuit::buildInputBus(net, "s", 1);
        circuit::NetId out = core::buildWeightApplicator(
            net, pred, sel, weights, spec, enc);
        circuit::SyncSim sim(net);
        sim.setInput(sel[0], true); // select the forbidden code
        sim.setInput(pred, true);
        EXPECT_FALSE(sim.runUntil(out, true, 30).has_value());
    }
}

// ------------------------------------------------- gate-level fabric

class GeneralizedFabric : public ::testing::TestWithParam<int> {};

TEST_P(GeneralizedFabric, MatchesDpUnderRandomCostMatrix)
{
    util::Rng rng(4200 + GetParam());
    // Random race-ready cost matrix over DNA with weights in 1..5.
    ScoreMatrix costs(Alphabet::dna(), bio::ScoreKind::Cost);
    for (bio::Symbol s = 0; s < 4; ++s) {
        costs.setGap(s, rng.uniformInt(1, 5));
        for (bio::Symbol t = 0; t < 4; ++t)
            costs.setPair(s, t, rng.uniformInt(1, 5));
    }
    size_t n = 1 + rng.index(4);
    size_t m = 1 + rng.index(4);
    DelayEncoding enc = GetParam() % 2 ? DelayEncoding::Binary
                                       : DelayEncoding::OneHot;
    GeneralizedGridCircuit fabric(costs, n, m, enc);
    for (int pair = 0; pair < 2; ++pair) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), n);
        Sequence b = Sequence::random(rng, Alphabet::dna(), m);
        auto run = fabric.align(a, b);
        ASSERT_TRUE(run.completed);
        EXPECT_EQ(run.score, bio::globalScore(a, b, costs));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralizedFabric,
                         ::testing::Range(0, 12));

TEST(GeneralizedFabric, BothEncodingsAgree)
{
    util::Rng rng(9);
    ScoreMatrix costs(Alphabet::dna(), bio::ScoreKind::Cost);
    for (bio::Symbol s = 0; s < 4; ++s) {
        costs.setGap(s, 2);
        for (bio::Symbol t = 0; t < 4; ++t)
            costs.setPair(s, t, s == t ? 1 : 4);
    }
    GeneralizedGridCircuit onehot(costs, 3, 3, DelayEncoding::OneHot);
    GeneralizedGridCircuit binary(costs, 3, 3, DelayEncoding::Binary);
    for (int trial = 0; trial < 4; ++trial) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 3);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 3);
        auto r1 = onehot.align(a, b);
        auto r2 = binary.align(a, b);
        ASSERT_TRUE(r1.completed && r2.completed);
        EXPECT_EQ(r1.score, r2.score);
    }
}

TEST(GeneralizedFabric, CellInventoryTradeoff)
{
    // Section 5: one-hot cells carry N_DR flip-flops per edge while
    // binary cells carry log2(N_DR) plus comparator logic -- for a
    // large dynamic range the binary encoding must use fewer DFFs.
    ScoreMatrix costs(Alphabet::dna(), bio::ScoreKind::Cost);
    for (bio::Symbol s = 0; s < 4; ++s) {
        costs.setGap(s, 30);
        for (bio::Symbol t = 0; t < 4; ++t)
            costs.setPair(s, t, s == t ? 1 : 31);
    }
    auto onehot = GeneralizedGridCircuit::cellInventory(
        costs, DelayEncoding::OneHot);
    auto binary = GeneralizedGridCircuit::cellInventory(
        costs, DelayEncoding::Binary);
    size_t dff = size_t(circuit::GateType::Dff);
    EXPECT_GT(onehot[dff], binary[dff] * 3);
}

// ------------------------------------------------- behavioral race

TEST(GeneralizedRace, LatencyTracksSimilarity)
{
    // Higher similarity -> smaller converted cost -> lower latency:
    // "we must ensure that the highest similarity corresponds to the
    // smallest score and hence the lowest latency".
    util::Rng rng(31);
    api::RaceEngine engine;
    auto align = [&](const Sequence &a, const Sequence &b) {
        return engine.solve(api::RaceProblem::generalizedAlignment(
            ScoreMatrix::blosum62(), a, b));
    };
    Sequence a = Sequence::random(rng, Alphabet::protein(), 12);
    auto same = align(a, a);
    Sequence noisy = mutate(rng, a, bio::MutationModel{0.3, 0.0, 0.0});
    auto near_result = align(a, noisy);
    Sequence other = Sequence::random(rng, Alphabet::protein(), 12);
    auto far = align(a, other);
    EXPECT_LE(same.latencyCycles, near_result.latencyCycles);
    EXPECT_LE(same.latencyCycles, far.latencyCycles);
}

} // namespace
