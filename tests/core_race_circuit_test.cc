/**
 * @file
 * Gate-level race grid (Fig. 4a/4b): the synthesizable fabric must
 * agree with the behavioral model and the DP oracle, reuse cleanly
 * across comparisons, expose the activity the energy model expects,
 * and -- immutable, with caller-owned simulators -- race correctly
 * after a move and from many threads at once.
 */

#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "rl/bio/align_dp.h"
#include "rl/core/grid_fabric.h"
#include "rl/core/race_grid.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using circuit::CompiledSim;
using core::GridFabric;
using core::raceFabricPair;

Sequence
dna(const std::string &text)
{
    return Sequence(Alphabet::dna(), text);
}

TEST(GridFabric, PaperExampleScores)
{
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), 7, 7);
    CompiledSim sim(fabric.compiled());
    auto run = raceFabricPair(sim, fabric, dna("GATTCGA"), dna("ACTGAGA"));
    ASSERT_TRUE(run.completed);
    EXPECT_EQ(run.score, 10);
}

TEST(GridFabric, FabricIsReusedAcrossComparisons)
{
    // The same hardware races different strings ("efficient reuse of
    // the same Race Logic hardware").
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), 5, 5);
    CompiledSim sim(fabric.compiled());
    auto r1 = raceFabricPair(sim, fabric, dna("ACGTA"), dna("ACGTA"));
    ASSERT_TRUE(r1.completed);
    EXPECT_EQ(r1.score, 5);
    auto r2 = raceFabricPair(sim, fabric, dna("AAAAA"), dna("CCCCC"));
    ASSERT_TRUE(r2.completed);
    EXPECT_EQ(r2.score, 10);
    auto r3 = raceFabricPair(sim, fabric, dna("ACGTA"), dna("ACGTA"));
    ASSERT_TRUE(r3.completed);
    EXPECT_EQ(r3.score, 5) << "state fully cleared between runs";
}

class CircuitVsBehavioral : public ::testing::TestWithParam<int> {};

TEST_P(CircuitVsBehavioral, ScoresAgreeWithModelAndDp)
{
    util::Rng rng(2100 + GetParam());
    size_t n = 1 + rng.index(8);
    size_t m = 1 + rng.index(8);
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), n, m);
    CompiledSim sim(fabric.compiled());
    core::RaceGridAligner model(
        ScoreMatrix::dnaShortestPathInfMismatch());
    for (int pair = 0; pair < 3; ++pair) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), n);
        Sequence b = Sequence::random(rng, Alphabet::dna(), m);
        auto run = raceFabricPair(sim, fabric, a, b);
        ASSERT_TRUE(run.completed);
        EXPECT_EQ(run.score, model.align(a, b).score);
        EXPECT_EQ(run.score,
                  bio::globalScore(
                      a, b, ScoreMatrix::dnaShortestPathInfMismatch()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitVsBehavioral,
                         ::testing::Range(0, 15));

TEST(GridFabric, BinaryAlphabetFabric)
{
    const GridFabric fabric =
        GridFabric::unitCells(Alphabet::binary(), 4, 4);
    CompiledSim sim(fabric.compiled());
    Sequence a(Alphabet::binary(), "0110");
    Sequence b(Alphabet::binary(), "0110");
    auto run = raceFabricPair(sim, fabric, a, b);
    ASSERT_TRUE(run.completed);
    EXPECT_EQ(run.score, 4);
}

TEST(GridFabric, CycleBudgetActsAsThreshold)
{
    // Section 6 at gate level: a run capped below the true score
    // reports "not similar" instead of completing.
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), 4, 4);
    CompiledSim sim(fabric.compiled());
    auto run = raceFabricPair(sim, fabric, dna("AAAA"), dna("CCCC"),
                              /*max_cycles=*/5);
    EXPECT_FALSE(run.completed);
    EXPECT_EQ(run.score, bio::kScoreInfinity);
    EXPECT_EQ(run.cyclesRun, 5u);
    auto full = raceFabricPair(sim, fabric, dna("AAAA"), dna("CCCC"));
    ASSERT_TRUE(full.completed);
    EXPECT_EQ(full.score, 8);
}

TEST(GridFabric, ClockActivityIsUngatedFabric)
{
    // Without gating, every DFF receives every clock: the C_clk * t
    // term of Eq. 3.
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), 3, 3);
    size_t dffs = fabric.netlist().dffCount();
    // 3 per unit cell + boundary chains.
    EXPECT_EQ(dffs, 3u * 3u * 3u + 6u);
    CompiledSim sim(fabric.compiled());
    Sequence a = dna("ACG");
    auto run = raceFabricPair(sim, fabric, a, a);
    ASSERT_TRUE(run.completed);
    const auto &activity = sim.activity();
    EXPECT_EQ(activity.clockedDffCycles,
              dffs * activity.cycles);
}

TEST(GridFabric, MonotoneNetsToggleAtMostTwicePerRun)
{
    // Race signals rise once per comparison; with the reset excluded
    // from counting, per-net toggles stay bounded by small constants
    // (symbol lines may fall and rise between runs).
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), 4, 4);
    CompiledSim sim(fabric.compiled());
    Sequence a = dna("ACGT");
    raceFabricPair(sim, fabric, a, a);
    sim.clearActivity();
    raceFabricPair(sim, fabric, a, dna("TGCA"));
    const auto &activity = sim.activity();
    for (uint64_t per_net : activity.perNet)
        EXPECT_LE(per_net, 2u);
}

TEST(GridFabric, UnitCellInventoryMatchesConstruction)
{
    // The inventory handed to the area model must equal what the
    // builder actually instantiates per cell.
    auto inv = core::unitCellInventory(2);
    const GridFabric one = GridFabric::unitCells(Alphabet::dna(), 1, 1);
    auto counts = one.netlist().typeCounts();
    // One cell + 2 boundary DFFs; inputs don't count as cell area.
    EXPECT_EQ(counts[size_t(circuit::GateType::Dff)],
              inv[size_t(circuit::GateType::Dff)] + 2);
    EXPECT_EQ(counts[size_t(circuit::GateType::Or)],
              inv[size_t(circuit::GateType::Or)]);
    EXPECT_EQ(counts[size_t(circuit::GateType::And)],
              inv[size_t(circuit::GateType::And)]);
    EXPECT_EQ(counts[size_t(circuit::GateType::Xnor)],
              inv[size_t(circuit::GateType::Xnor)]);
}

TEST(GridFabricDeath, WrongSizeRejected)
{
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), 3, 3);
    CompiledSim sim(fabric.compiled());
    EXPECT_DEATH(raceFabricPair(sim, fabric, dna("ACGT"), dna("ACG")),
                 "exactly");
}

// ------------------------------------- immutable, caller-owned sims

/** One fabric of each builder, over DNA, `rows` x `cols`. */
std::vector<GridFabric>
everyBuilder(size_t rows, size_t cols)
{
    std::vector<GridFabric> fabrics;
    fabrics.push_back(GridFabric::unitCells(Alphabet::dna(), rows, cols));
    fabrics.push_back(GridFabric::gated(Alphabet::dna(), rows, cols, 2));
    fabrics.push_back(GridFabric::generalized(
        ScoreMatrix::dnaShortestPath(), rows, cols));
    return fabrics;
}

TEST(GridFabric, MovedFabricStillRaces)
{
    // The netlist and its compile live on the heap, so neither a move
    // nor the end of the builder's scope leaves a simulator -- or the
    // compile's reset -- pointing at a dead netlist.
    const Sequence a = dna("GATTC");
    const Sequence b = dna("ACTG");
    for (size_t k = 0; k < 3; ++k) {
        std::optional<GridFabric> moved;
        std::optional<CompiledSim> early;
        bio::Score expected = bio::kScoreInfinity;
        {
            std::vector<GridFabric> built = everyBuilder(5, 4);
            early.emplace(built[k].compiled());
            expected = raceFabricPair(*early, built[k], a, b).score;
            moved.emplace(std::move(built[k]));
        }
        // A simulator built before the move races the moved fabric.
        EXPECT_EQ(raceFabricPair(*early, *moved, a, b).score, expected)
            << k;
        CompiledSim sim(moved->compiled());
        auto run = raceFabricPair(sim, *moved, a, b);
        ASSERT_TRUE(run.completed) << k;
        EXPECT_EQ(run.score, expected) << k;
        circuit::SyncSim reference(moved->netlist());
        EXPECT_EQ(raceFabricPair(reference, *moved, a, b).score, expected)
            << k;
        core::LaneBatchResult lanes = moved->alignLanes({{&a, &b}});
        ASSERT_TRUE(lanes.lanes[0].completed) << k;
        EXPECT_EQ(lanes.lanes[0].score, expected) << k;
    }
}

void
expectSameActivity(const circuit::Activity &got,
                   const circuit::Activity &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.netToggles, want.netToggles);
    EXPECT_EQ(got.togglesByType, want.togglesByType);
    EXPECT_EQ(got.clockedDffCycles, want.clockedDffCycles);
    EXPECT_EQ(got.perNet, want.perNet);
}

TEST(GridFabric, OneFabricRacesFromManyThreads)
{
    // Four threads race one fabric at once, each on its own simulator
    // and through alignLanes(): every thread must see the serial
    // scores and switching activity.
    constexpr size_t kThreads = 4;
    constexpr size_t kPairs = 6;
    const size_t n = 6;
    util::Rng rng(2024);
    std::vector<Sequence> as, bs;
    std::vector<core::LanePair> lanes;
    for (size_t p = 0; p < kPairs; ++p) {
        as.push_back(Sequence::random(rng, Alphabet::dna(), n));
        bs.push_back(Sequence::random(rng, Alphabet::dna(), n));
    }
    for (size_t p = 0; p < kPairs; ++p)
        lanes.push_back({&as[p], &bs[p]});

    for (const GridFabric &fabric : everyBuilder(n, n)) {
        struct Run {
            std::vector<bio::Score> scores;
            circuit::Activity activity;
            core::LaneBatchResult packed;
        };
        auto race = [&]() {
            Run run;
            CompiledSim sim(fabric.compiled());
            for (size_t p = 0; p < kPairs; ++p)
                run.scores.push_back(
                    raceFabricPair(sim, fabric, as[p], bs[p]).score);
            run.activity = sim.activity();
            run.packed = fabric.alignLanes(lanes);
            return run;
        };
        const Run serial = race();
        std::vector<Run> runs(kThreads);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] { runs[t] = race(); });
        for (std::thread &thread : threads)
            thread.join();

        for (const Run &run : runs) {
            EXPECT_EQ(run.scores, serial.scores);
            expectSameActivity(run.activity, serial.activity);
            ASSERT_EQ(run.packed.lanes.size(), kPairs);
            for (size_t p = 0; p < kPairs; ++p)
                EXPECT_EQ(run.packed.lanes[p].score, serial.scores[p]);
            EXPECT_EQ(run.packed.cyclesRun, serial.packed.cyclesRun);
            expectSameActivity(run.packed.activity,
                               serial.packed.activity);
        }
    }
}

} // namespace
