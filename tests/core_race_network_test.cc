/**
 * @file
 * The central equivalence of the paper, tested both ways: an OR-type
 * race equals shortest-path DP and an AND-type race equals
 * longest-path DP, for the event-driven backend and for compiled
 * gate-level circuits.
 */

#include <gtest/gtest.h>

#include "rl/circuit/sim_sync.h"
#include "rl/core/race_network.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/graph/topo.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using core::RaceOutcome;
using core::RaceType;
using graph::Dag;
using graph::NodeId;
using graph::Objective;

// ------------------------------------------------------ event backend

TEST(RaceDag, Fig3OrRaceTakesTwoCycles)
{
    Dag d = graph::makeFig3ExampleDag();
    RaceOutcome out = core::raceDag(d, {0, 1}, RaceType::Or);
    // "it takes two cycles for the '1' signal to propagate to the
    // output node".
    EXPECT_EQ(out.at(4).time(), 2u);
}

TEST(RaceDag, Fig3AndRaceComputesLongestPath)
{
    Dag d = graph::makeFig3ExampleDag();
    RaceOutcome out = core::raceDag(d, {0, 1}, RaceType::And);
    auto dp = graph::solveDag(d, {0, 1}, Objective::Longest);
    ASSERT_TRUE(core::andRaceMatchesDp(d, {0, 1}));
    EXPECT_EQ(out.at(4).time(),
              static_cast<sim::Tick>(dp.distance[4]));
}

TEST(RaceDag, UnreachableNodesNeverFire)
{
    Dag d(3);
    d.addEdge(0, 1, 2);
    RaceOutcome out = core::raceDag(d, {0}, RaceType::Or);
    EXPECT_TRUE(out.at(1).fired());
    EXPECT_FALSE(out.at(2).fired());
}

TEST(RaceDag, ZeroWeightEdgesPropagateSameTick)
{
    Dag d(3);
    d.addEdge(0, 1, 0);
    d.addEdge(1, 2, 0);
    RaceOutcome out = core::raceDag(d, {0}, RaceType::Or);
    EXPECT_EQ(out.at(2).time(), 0u);
}

TEST(RaceDag, AndNodeWithDeadInputStallsForever)
{
    // Node 2 has an in-edge from unreachable node 1: the AND gate
    // waits forever -- the hardware semantics the docs call out.
    Dag d(4);
    d.addEdge(0, 2, 1);
    d.addEdge(1, 2, 1);
    d.addEdge(2, 3, 1);
    EXPECT_FALSE(core::andRaceMatchesDp(d, {0}));
    RaceOutcome out = core::raceDag(d, {0}, RaceType::And);
    EXPECT_FALSE(out.at(2).fired());
    EXPECT_FALSE(out.at(3).fired());
}

TEST(RaceDag, SourceWithInEdgesFiresAtTickZero)
{
    // Source 1 has an in-edge from source 0.  Both inputs are driven
    // high at tick 0, so 1 fires at 0 whatever reaches it -- the
    // longest-path DP would put it at 3 -- and the arrival over
    // 0 -> 1 still counts as one event.  Listing a source twice
    // changes nothing.
    Dag d(2);
    d.addEdge(0, 1, 3);
    for (RaceType type : {RaceType::Or, RaceType::And}) {
        for (const std::vector<NodeId> &sources :
             {std::vector<NodeId>{0, 1}, std::vector<NodeId>{1, 0, 1}}) {
            RaceOutcome out = core::raceDag(d, sources, type);
            EXPECT_EQ(out.at(0).time(), 0u);
            EXPECT_EQ(out.at(1).time(), 0u);
            EXPECT_EQ(out.events, 1u);
            EXPECT_EQ(out.horizon, 0u);
        }
    }
}

TEST(RaceDag, InhibitedNodeNeitherFiresCountsNorSends)
{
    // 0 -> 1 (w 2), 0 -> 2 (w 5), 1 -> 2 (w 1), 2 -> 3 (w 1): node 2
    // fires at 3 over 1.  Inhibited at 2, none of its arrivals (3 and
    // 5) is delivered: it does not fire, its in-edges are not counted
    // and 3 is never reached.  At 3 it keeps the arrival at 3 alone.
    Dag d(4);
    d.addEdge(0, 1, 2);
    d.addEdge(0, 2, 5);
    d.addEdge(1, 2, 1);
    d.addEdge(2, 3, 1);
    const RaceOutcome plain = core::raceDag(d, {0}, RaceType::Or);
    EXPECT_EQ(plain.at(2).time(), 3u);
    EXPECT_EQ(plain.events, 4u);

    const sim::Tick never = sim::kTickInfinity;
    const std::vector<sim::Tick> shut = {never, never, 2, never};
    const RaceOutcome cut =
        core::raceDag(d, {0}, RaceType::Or, sim::kTickInfinity, shut);
    EXPECT_EQ(cut.at(1).time(), 2u);
    EXPECT_FALSE(cut.at(2).fired());
    EXPECT_FALSE(cut.at(3).fired());
    EXPECT_EQ(cut.events, 1u);
    EXPECT_EQ(cut.horizon, 2u);

    const std::vector<sim::Tick> tight = {never, never, 3, never};
    const RaceOutcome kept =
        core::raceDag(d, {0}, RaceType::Or, sim::kTickInfinity, tight);
    EXPECT_EQ(kept.at(2).time(), 3u);
    EXPECT_EQ(kept.at(3).time(), 4u);
    EXPECT_EQ(kept.events, 3u); // 0 -> 2 arrives at 5, past 3

    // A source fires at tick 0 whatever its inhibit time.
    const std::vector<sim::Tick> source = {0, 0, 0, 0};
    const RaceOutcome alone =
        core::raceDag(d, {0}, RaceType::Or, sim::kTickInfinity, source);
    EXPECT_EQ(alone.at(0).time(), 0u);
    EXPECT_FALSE(alone.at(1).fired());
    EXPECT_EQ(alone.events, 0u);
}

TEST(RaceDag, InfiniteInhibitTimesAreThePlainRace)
{
    util::Rng rng(1300);
    for (int round = 0; round < 8; ++round) {
        Dag d = graph::randomDag(rng, 60, 0.12, {0, 7});
        auto [source, sink] = graph::addSuperEndpoints(d, 1);
        const std::vector<sim::Tick> open(d.nodeCount(), sim::kTickInfinity);
        for (RaceType type : {RaceType::Or, RaceType::And}) {
            for (sim::Tick horizon :
                 {sim::kTickInfinity, sim::Tick(rng.index(30))}) {
                const RaceOutcome plain =
                    core::raceDag(d, {source}, type, horizon);
                const RaceOutcome inhibited =
                    core::raceDag(d, {source}, type, horizon, open);
                EXPECT_EQ(inhibited.events, plain.events);
                EXPECT_EQ(inhibited.horizon, plain.horizon);
                ASSERT_EQ(inhibited.firing.size(), plain.firing.size());
                for (NodeId n = 0; n < d.nodeCount(); ++n)
                    EXPECT_EQ(inhibited.at(n).rawTime(), plain.at(n).rawTime())
                        << "node " << n;
            }
        }
        (void)sink;
    }
}

TEST(RaceDagDeath, NegativeWeightsRejected)
{
    Dag d(2);
    d.addEdge(0, 1, -1);
    EXPECT_EXIT(core::raceDag(d, {0}, RaceType::Or),
                ::testing::ExitedWithCode(1), "negative");
}

TEST(RaceDagDeath, CyclesRejected)
{
    Dag d(2);
    d.addEdge(0, 1, 1);
    d.addEdge(1, 0, 1);
    EXPECT_EXIT(core::raceDag(d, {0}, RaceType::Or),
                ::testing::ExitedWithCode(1), "cycle");
}

class RaceVsDp : public ::testing::TestWithParam<int> {};

TEST_P(RaceVsDp, OrRaceEqualsShortestPathEverywhere)
{
    util::Rng rng(500 + GetParam());
    Dag d = graph::randomDag(rng, 60, 0.12, {1, 7});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    RaceOutcome out = core::raceDag(d, {source}, RaceType::Or);
    auto dp = graph::solveDag(d, {source}, Objective::Shortest);
    for (NodeId node = 0; node < d.nodeCount(); ++node) {
        if (dp.reached(node)) {
            ASSERT_TRUE(out.at(node).fired()) << "node " << node;
            EXPECT_EQ(out.at(node).time(),
                      static_cast<sim::Tick>(dp.distance[node]))
                << "node " << node;
        } else {
            EXPECT_FALSE(out.at(node).fired()) << "node " << node;
        }
    }
    (void)sink;
}

TEST_P(RaceVsDp, AndRaceEqualsLongestPathEverywhere)
{
    util::Rng rng(900 + GetParam());
    // Layered DAGs guarantee every node's predecessors are reachable
    // from the sources, which is the condition for AND-race == DP.
    Dag d = graph::layeredDag(rng, 6, 5, 0.5, {1, 9});
    std::vector<NodeId> sources;
    for (NodeId n = 0; n < 5; ++n)
        sources.push_back(n);
    ASSERT_TRUE(core::andRaceMatchesDp(d, sources));
    RaceOutcome out = core::raceDag(d, sources, RaceType::And);
    auto dp = graph::solveDag(d, sources, Objective::Longest);
    for (NodeId node = 0; node < d.nodeCount(); ++node) {
        if (!dp.reached(node))
            continue;
        ASSERT_TRUE(out.at(node).fired()) << "node " << node;
        EXPECT_EQ(out.at(node).time(),
                  static_cast<sim::Tick>(dp.distance[node]))
            << "node " << node;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaceVsDp, ::testing::Range(0, 20));

// -------------------------------------------------- compiled circuits

class CompiledRace : public ::testing::TestWithParam<int> {};

TEST_P(CompiledRace, GateLevelOrRaceMatchesEventBackend)
{
    util::Rng rng(1300 + GetParam());
    Dag d = graph::randomDag(rng, 24, 0.2, {0, 5});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    RaceOutcome event = core::raceDag(d, {source}, RaceType::Or);

    core::RaceCircuit rc =
        core::compileRaceCircuit(d, {source}, RaceType::Or);
    const uint64_t budget = 24ull * 6 + 10;

    // Check the sink arrival cycle, then spot-check every node's
    // level at a mid-race cycle against the event backend.
    circuit::SyncSim sim(rc.netlist);
    for (circuit::NetId in : rc.sourceInputs)
        sim.setInput(in, true);
    auto arrival = sim.runUntil(rc.nodeNets[sink], true, budget);
    ASSERT_TRUE(arrival.has_value());
    EXPECT_EQ(*arrival, event.at(sink).time());

    circuit::SyncSim fresh(rc.netlist);
    for (circuit::NetId in : rc.sourceInputs)
        fresh.setInput(in, true);
    sim::Tick mid = event.at(sink).time() / 2;
    for (sim::Tick c = 0; c < mid; ++c)
        fresh.tick();
    for (NodeId node = 0; node < d.nodeCount(); ++node) {
        bool fired_by_mid =
            event.at(node).fired() && event.at(node).time() <= mid;
        EXPECT_EQ(fresh.value(rc.nodeNets[node]), fired_by_mid)
            << "node " << node << " at cycle " << mid;
    }
}

TEST_P(CompiledRace, GateLevelAndRaceMatchesEventBackend)
{
    util::Rng rng(1700 + GetParam());
    Dag d = graph::layeredDag(rng, 5, 4, 0.5, {1, 4});
    std::vector<NodeId> sources{0, 1, 2, 3};
    RaceOutcome event = core::raceDag(d, sources, RaceType::And);

    core::RaceCircuit rc =
        core::compileRaceCircuit(d, sources, RaceType::And);
    circuit::SyncSim sim(rc.netlist);
    for (circuit::NetId in : rc.sourceInputs)
        sim.setInput(in, true);
    NodeId deepest = 0;
    sim::Tick latest = 0;
    for (NodeId node = 0; node < d.nodeCount(); ++node) {
        if (event.at(node).fired() && event.at(node).time() >= latest) {
            latest = event.at(node).time();
            deepest = node;
        }
    }
    auto arrival = sim.runUntil(rc.nodeNets[deepest], true, latest + 4);
    ASSERT_TRUE(arrival.has_value());
    EXPECT_EQ(*arrival, latest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledRace, ::testing::Range(0, 12));

TEST(CompiledRace, CircuitShapeMatchesConstruction)
{
    Dag d = graph::makeFig3ExampleDag();
    core::RaceCircuit rc =
        core::compileRaceCircuit(d, {0, 1}, RaceType::Or);
    auto counts = rc.netlist.typeCounts();
    // Total delay stages equal the sum of edge weights.
    graph::Weight total = 0;
    for (const auto &e : d.edges())
        total += e.weight;
    EXPECT_EQ(counts[size_t(circuit::GateType::Dff)],
              static_cast<size_t>(total));
    EXPECT_EQ(rc.sourceInputs.size(), 2u);
}

TEST(CompiledRaceDeath, CyclesRejected)
{
    Dag d(2);
    d.addEdge(0, 1, 1);
    d.addEdge(1, 0, 1);
    EXPECT_EXIT(core::compileRaceCircuit(d, {0}, RaceType::Or),
                ::testing::ExitedWithCode(1), "cycle");
}

TEST(CompiledRaceDeath, NegativeWeightsRejected)
{
    // The weight becomes a DFF chain length; a negative one must stop
    // the compile before it is cast to a size.
    Dag d(2);
    d.addEdge(0, 1, -1);
    EXPECT_EXIT(core::compileRaceCircuit(d, {0}, RaceType::Or),
                ::testing::ExitedWithCode(1), "negative");
}

} // namespace
