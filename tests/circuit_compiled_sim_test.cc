/**
 * @file
 * Equivalence suite for the compiled levelized bit-parallel kernel
 * (rl/circuit/compiled_sim.h) against the interpretive SyncSim
 * reference: settled values every cycle, final arrivals, and every
 * Activity field bit-identical -- on random netlists and on the race
 * fabrics, for 1-lane and 64-lane runs.
 */

#include <gtest/gtest.h>

#include "rl/bio/score_convert.h"
#include "rl/circuit/compiled_sim.h"
#include "rl/circuit/sim_sync.h"
#include "rl/core/clock_gating.h"
#include "rl/core/grid_fabric.h"
#include "rl/core/race_grid.h"
#include "rl/util/random.h"
#include "rl/util/strings.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using circuit::CompiledSim;
using circuit::Netlist;
using circuit::NetId;
using circuit::SyncSim;
using core::GridFabric;
using core::raceFabricPair;

// --------------------------------------------------- random netlists

struct RandomCircuit {
    Netlist net;
    std::vector<NetId> inputs;
};

/**
 * A random, structurally valid netlist: every gate type, DFFs with
 * and without enables, and register feedback loops through deferred
 * DFFs (set-on-arrival style) -- the shapes the race fabrics use,
 * plus non-monotone logic the fabrics never build.
 */
RandomCircuit
randomCircuit(util::Rng &rng, size_t n_inputs, size_t n_gates)
{
    RandomCircuit c;
    std::vector<NetId> nets;
    nets.push_back(c.net.constant(false));
    nets.push_back(c.net.constant(true));
    for (size_t i = 0; i < n_inputs; ++i) {
        NetId in = c.net.input(util::format("in%zu", i));
        c.inputs.push_back(in);
        nets.push_back(in);
    }
    // Deferred registers whose D closes a feedback loop at the end.
    std::vector<NetId> deferred;
    for (size_t i = 0; i < 3; ++i) {
        NetId d = c.net.dffDeferred(rng.bernoulli(0.5));
        deferred.push_back(d);
        nets.push_back(d);
    }

    auto pick = [&] { return nets[rng.index(nets.size())]; };
    for (size_t g = 0; g < n_gates; ++g) {
        NetId id = circuit::kNoNet;
        switch (rng.index(10)) {
          case 0: id = c.net.bufGate(pick()); break;
          case 1: id = c.net.notGate(pick()); break;
          case 2: id = c.net.andGate({pick(), pick(), pick()}); break;
          case 3: id = c.net.orGate({pick(), pick(), pick()}); break;
          case 4: id = c.net.nandGate({pick(), pick()}); break;
          case 5: id = c.net.norGate({pick(), pick()}); break;
          case 6: id = c.net.xorGate(pick(), pick()); break;
          case 7: id = c.net.xnorGate(pick(), pick()); break;
          case 8: id = c.net.mux(pick(), pick(), pick()); break;
          case 9: {
            NetId enable =
                rng.bernoulli(0.5) ? pick() : circuit::kNoNet;
            id = c.net.dff(pick(), rng.bernoulli(0.3), enable);
            break;
          }
        }
        nets.push_back(id);
    }
    for (NetId d : deferred)
        c.net.bindDff(d, nets[rng.index(nets.size())]);
    c.net.validate();
    return c;
}

void
expectActivityEqual(const circuit::Activity &got,
                    const circuit::Activity &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.netToggles, want.netToggles);
    EXPECT_EQ(got.clockedDffCycles, want.clockedDffCycles);
    for (size_t t = 0; t < circuit::kGateTypeCount; ++t)
        EXPECT_EQ(got.togglesByType[t], want.togglesByType[t])
            << "gate type "
            << circuit::gateTypeName(static_cast<circuit::GateType>(t));
    EXPECT_EQ(got.perNet, want.perNet);
}

/** Element-wise sum of per-lane reference activities. */
circuit::Activity
sumActivities(const std::vector<std::unique_ptr<SyncSim>> &refs)
{
    circuit::Activity total;
    total.perNet.assign(refs.front()->activity().perNet.size(), 0);
    for (const auto &ref : refs) {
        const circuit::Activity &a = ref->activity();
        total.cycles += a.cycles;
        total.netToggles += a.netToggles;
        total.clockedDffCycles += a.clockedDffCycles;
        for (size_t t = 0; t < circuit::kGateTypeCount; ++t)
            total.togglesByType[t] += a.togglesByType[t];
        for (size_t n = 0; n < a.perNet.size(); ++n)
            total.perNet[n] += a.perNet[n];
    }
    return total;
}

TEST(CompiledSim, RandomNetlistsMatchSyncSimEveryCycle)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        util::Rng rng(seed);
        RandomCircuit c = randomCircuit(rng, 5, 60);
        CompiledSim fast(c.net);
        SyncSim ref(c.net);

        // perNet is pre-sized at construction in both kernels.
        ASSERT_EQ(fast.activity().perNet.size(), c.net.gateCount());
        ASSERT_EQ(ref.activity().perNet.size(), c.net.gateCount());

        for (uint64_t cycle = 0; cycle < 40; ++cycle) {
            for (NetId in : c.inputs) {
                bool v = rng.bernoulli(0.5);
                fast.setInput(in, v);
                ref.setInput(in, v);
            }
            for (NetId net = 0; net < c.net.gateCount(); ++net)
                ASSERT_EQ(fast.value(net), ref.value(net))
                    << "seed " << seed << " cycle " << cycle
                    << " net " << net;
            fast.tick();
            ref.tick();
        }
        expectActivityEqual(fast.activity(), ref.activity());
    }
}

TEST(CompiledSim, RandomNetlists64LaneMatchesPerLaneSyncSim)
{
    util::Rng rng(99);
    RandomCircuit c = randomCircuit(rng, 4, 50);
    constexpr unsigned kLanes = 64;
    CompiledSim fast(c.net, kLanes);
    std::vector<std::unique_ptr<SyncSim>> refs;
    refs.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l)
        refs.push_back(std::make_unique<SyncSim>(c.net));

    for (uint64_t cycle = 0; cycle < 24; ++cycle) {
        for (NetId in : c.inputs)
            for (unsigned l = 0; l < kLanes; ++l) {
                bool v = rng.bernoulli(0.5);
                fast.setInputLane(in, l, v);
                refs[l]->setInput(in, v);
            }
        for (NetId net = 0; net < c.net.gateCount(); ++net) {
            uint64_t word = fast.word(net);
            for (unsigned l = 0; l < kLanes; ++l)
                ASSERT_EQ((word >> l) & 1,
                          uint64_t(refs[l]->value(net)))
                    << "cycle " << cycle << " net " << net << " lane "
                    << l;
        }
        fast.tick();
        for (auto &ref : refs)
            ref->tick();
    }
    // Lane-summed activity == the sum of 64 lock-step references.
    expectActivityEqual(fast.activity(), sumActivities(refs));
}

TEST(CompiledSim, ResetMatchesSyncSimAndPreservesActivity)
{
    util::Rng rng(7);
    RandomCircuit c = randomCircuit(rng, 4, 40);
    CompiledSim fast(c.net);
    SyncSim ref(c.net);
    for (uint64_t cycle = 0; cycle < 10; ++cycle) {
        for (NetId in : c.inputs) {
            bool v = rng.bernoulli(0.5);
            fast.setInput(in, v);
            ref.setInput(in, v);
        }
        fast.tick();
        ref.tick();
    }
    fast.reset();
    ref.reset();
    EXPECT_EQ(fast.cycle(), 0u);
    for (NetId net = 0; net < c.net.gateCount(); ++net)
        ASSERT_EQ(fast.value(net), ref.value(net)) << "net " << net;
    expectActivityEqual(fast.activity(), ref.activity());

    // And the machines still agree after running on from reset.
    for (uint64_t cycle = 0; cycle < 10; ++cycle) {
        for (NetId in : c.inputs) {
            bool v = rng.bernoulli(0.5);
            fast.setInput(in, v);
            ref.setInput(in, v);
        }
        fast.tick();
        ref.tick();
        for (NetId net = 0; net < c.net.gateCount(); ++net)
            ASSERT_EQ(fast.value(net), ref.value(net)) << "net " << net;
    }
    expectActivityEqual(fast.activity(), ref.activity());
}

// --------------------------------------------------- race fabrics

TEST(CompiledSim, RaceGridFabricMatchesReferencePath)
{
    util::Rng rng(2014);
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), 6, 7);
    CompiledSim sim(fabric.compiled());
    SyncSim reference(fabric.netlist());
    for (int round = 0; round < 4; ++round) {
        Sequence a = Sequence::random(rng, Alphabet::dna(), 6);
        Sequence b = Sequence::random(rng, Alphabet::dna(), 7);
        auto fast = raceFabricPair(sim, fabric, a, b);
        auto ref = raceFabricPair(reference, fabric, a, b);
        ASSERT_TRUE(fast.completed && ref.completed);
        EXPECT_EQ(fast.score, ref.score);
        EXPECT_EQ(fast.cyclesRun, ref.cyclesRun);
    }
    // Same race history on both kernels since construction -> the
    // whole Activity must match field for field.
    expectActivityEqual(sim.activity(), reference.activity());
}

TEST(CompiledSim, GatedFabricMatchesReferencePathAndSplitsClocks)
{
    util::Rng rng(77);
    const size_t n = 6;
    const GridFabric fabric = GridFabric::gated(Alphabet::dna(), n, n, 2);
    CompiledSim sim(fabric.compiled());
    SyncSim reference(fabric.netlist());
    auto [a, b] = bio::worstCasePair(rng, Alphabet::dna(), n);
    auto fast = raceFabricPair(sim, fabric, a, b);
    auto ref = raceFabricPair(reference, fabric, a, b);
    ASSERT_TRUE(fast.completed && ref.completed);
    EXPECT_EQ(fast.score, ref.score);
    expectActivityEqual(sim.activity(), reference.activity());

    // The measured activity splits into the un-gated boundary frame
    // plus a gated cell array that beats the ungated fabric.
    const circuit::Activity &activity = sim.activity();
    core::MeasuredGatedClocks split =
        core::splitGatedClockActivity(activity, n, n);
    EXPECT_EQ(split.boundaryDffCycles + split.cellDffCycles,
              activity.clockedDffCycles);
    EXPECT_LT(split.cellDffCycles,
              3 * n * n * activity.cycles); // < every-cell-every-cycle
}

TEST(CompiledSim, GeneralizedFabricMatchesReferenceBothEncodings)
{
    const ScoreMatrix costs =
        bio::toShortestPathForm(ScoreMatrix::blosum62()).costs;
    Sequence a(Alphabet::protein(), "HEAG");
    Sequence b(Alphabet::protein(), "PAW");
    for (core::DelayEncoding encoding :
         {core::DelayEncoding::Binary, core::DelayEncoding::OneHot}) {
        const GridFabric fabric =
            GridFabric::generalized(costs, 4, 3, encoding);
        CompiledSim sim(fabric.compiled());
        SyncSim reference(fabric.netlist());
        auto fast = raceFabricPair(sim, fabric, a, b);
        auto ref = raceFabricPair(reference, fabric, a, b);
        ASSERT_TRUE(fast.completed && ref.completed);
        EXPECT_EQ(fast.score, ref.score);
        expectActivityEqual(sim.activity(), reference.activity());
    }
}

// ----------------------------------------------- lane-packed races

TEST(CompiledSim, LanePackedGridRacesMatchSerialArrivals)
{
    util::Rng rng(4242);
    const size_t n = 8;
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), n, n);
    CompiledSim sim(fabric.compiled());
    std::vector<Sequence> as, bs;
    for (unsigned l = 0; l < 64; ++l) {
        as.push_back(Sequence::random(rng, Alphabet::dna(), n));
        bs.push_back(Sequence::random(rng, Alphabet::dna(), n));
    }
    std::vector<core::LanePair> lanes;
    for (unsigned l = 0; l < 64; ++l)
        lanes.push_back({&as[l], &bs[l]});

    core::LaneBatchResult packed = fabric.alignLanes(lanes);
    ASSERT_EQ(packed.lanes.size(), 64u);
    uint64_t slowest = 0;
    for (unsigned l = 0; l < 64; ++l) {
        auto serial = raceFabricPair(sim, fabric, as[l], bs[l]);
        ASSERT_TRUE(serial.completed);
        ASSERT_TRUE(packed.lanes[l].completed) << "lane " << l;
        EXPECT_EQ(packed.lanes[l].score, serial.score) << "lane " << l;
        slowest = std::max(slowest,
                           static_cast<uint64_t>(serial.score));
    }
    // The lock-step word runs exactly to the slowest lane's arrival,
    // and the un-gated fabric clocks every DFF lane every cycle.
    EXPECT_EQ(packed.cyclesRun, slowest);
    EXPECT_EQ(packed.activity.cycles, 64 * packed.cyclesRun);
    EXPECT_EQ(packed.activity.clockedDffCycles,
              fabric.netlist().dffCount() * packed.activity.cycles);
}

TEST(CompiledSim, LanePackedBudgetActsAsThresholdPerLane)
{
    // One near-identical and one hopeless candidate under a shared
    // lock-step budget: the near lane fires within it, the far lane
    // does not (Section 6 screening on the packed word).
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), 4, 4);
    Sequence query(Alphabet::dna(), "ACTG");
    Sequence near_seq(Alphabet::dna(), "ACTG"); // 4 matches: score 4
    Sequence far(Alphabet::dna(), "TTTT"); // 1 match + 6 indels: 7
    std::vector<core::LanePair> lanes{{&query, &near_seq},
                                      {&query, &far}};
    core::LaneBatchResult packed = fabric.alignLanes(lanes, 5);
    ASSERT_EQ(packed.lanes.size(), 2u);
    EXPECT_TRUE(packed.lanes[0].completed);
    EXPECT_EQ(packed.lanes[0].score, 4);
    EXPECT_FALSE(packed.lanes[1].completed);
    EXPECT_EQ(packed.cyclesRun, 5u);
}

TEST(CompiledSim, LanePackedMatchesLockstepSyncSimActivity)
{
    // The strongest cross-check: an 8-lane packed race against eight
    // SyncSims driven by name in lock-step for exactly the same
    // cycles -- values, arrivals, and summed activity all equal.
    util::Rng rng(31);
    const size_t n = 5;
    const GridFabric fabric = GridFabric::unitCells(Alphabet::dna(), n, n);
    const Netlist &net = fabric.netlist();
    constexpr unsigned kLanes = 8;
    std::vector<Sequence> as, bs;
    for (unsigned l = 0; l < kLanes; ++l) {
        as.push_back(Sequence::random(rng, Alphabet::dna(), n));
        bs.push_back(Sequence::random(rng, Alphabet::dna(), n));
    }
    std::vector<core::LanePair> lanes;
    for (unsigned l = 0; l < kLanes; ++l)
        lanes.push_back({&as[l], &bs[l]});
    core::LaneBatchResult packed = fabric.alignLanes(lanes);

    const unsigned bits = Alphabet::dna().bitsPerSymbol();
    std::vector<std::unique_ptr<SyncSim>> refs;
    refs.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l) {
        refs.push_back(std::make_unique<SyncSim>(net));
        SyncSim &ref = *refs.back();
        for (size_t i = 0; i < n; ++i)
            for (unsigned bit = 0; bit < bits; ++bit) {
                ref.setInput(util::format("a%zu_%u", i, bit),
                             (as[l][i] >> bit) & 1);
                ref.setInput(util::format("b%zu_%u", i, bit),
                             (bs[l][i] >> bit) & 1);
            }
        ref.setInput("go", true);
        ref.tickMany(packed.cyclesRun); // lock-step to the word end
    }
    expectActivityEqual(packed.activity, sumActivities(refs));
}

} // namespace
