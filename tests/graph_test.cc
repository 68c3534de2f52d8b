/**
 * @file
 * Unit and property tests for rl/graph: DAG structure, topological
 * order, the DP path oracles, and the random generators.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "rl/graph/dag.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/graph/topo.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using graph::Dag;
using graph::NodeId;
using graph::Objective;
using graph::Weight;

Dag
diamond()
{
    // 0 -> 1 (1), 0 -> 2 (5), 1 -> 3 (1), 2 -> 3 (1)
    Dag d(4);
    d.addEdge(0, 1, 1);
    d.addEdge(0, 2, 5);
    d.addEdge(1, 3, 1);
    d.addEdge(2, 3, 1);
    return d;
}

// ----------------------------------------------------------- structure

TEST(Dag, NodeAndEdgeCounting)
{
    Dag d = diamond();
    EXPECT_EQ(d.nodeCount(), 4u);
    EXPECT_EQ(d.edgeCount(), 4u);
    EXPECT_EQ(d.inDegree(3), 2u);
    EXPECT_EQ(d.outDegree(0), 2u);
    EXPECT_EQ(d.sources(), (std::vector<NodeId>{0}));
    EXPECT_EQ(d.sinks(), (std::vector<NodeId>{3}));
}

TEST(Dag, WeightsExtremes)
{
    Dag d = diamond();
    EXPECT_EQ(d.minWeight(), 1);
    EXPECT_EQ(d.maxWeight(), 5);
}

TEST(Dag, Labels)
{
    Dag d;
    NodeId a = d.addNode("root");
    EXPECT_EQ(d.label(a), "root");
    NodeId b = d.addNode();
    EXPECT_EQ(d.label(b), "");
}

TEST(Dag, AcyclicDetection)
{
    Dag d = diamond();
    EXPECT_TRUE(d.isAcyclic());
    d.addEdge(3, 0, 1); // close the loop
    EXPECT_FALSE(d.isAcyclic());
}

TEST(DagDeath, SelfLoopRejected)
{
    Dag d(2);
    EXPECT_EXIT(d.addEdge(1, 1, 1), ::testing::ExitedWithCode(1),
                "self-loop");
}

TEST(DagDeath, TopologicalOrderOnCycle)
{
    Dag d(2);
    d.addEdge(0, 1, 1);
    d.addEdge(1, 0, 1);
    EXPECT_EXIT(graph::topologicalOrder(d), ::testing::ExitedWithCode(1),
                "cycle");
}

// ----------------------------------------------------------- topology

TEST(Topo, OrderRespectsEdges)
{
    util::Rng rng(1);
    Dag d = graph::randomDag(rng, 40, 0.15, {1, 5});
    auto order = graph::topologicalOrder(d);
    std::vector<size_t> position(d.nodeCount());
    for (size_t i = 0; i < order.size(); ++i)
        position[order[i]] = i;
    for (const auto &e : d.edges())
        EXPECT_LT(position[e.from], position[e.to]);
}

TEST(Topo, OrderIsDeterministicSmallestFirst)
{
    Dag d(3); // no edges: expect 0, 1, 2
    auto order = graph::topologicalOrder(d);
    EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 2}));
}

TEST(Topo, Reachability)
{
    Dag d = diamond();
    auto from0 = graph::reachableFrom(d, 0);
    EXPECT_TRUE(from0[0] && from0[1] && from0[2] && from0[3]);
    auto from1 = graph::reachableFrom(d, 1);
    EXPECT_FALSE(from1[0]);
    EXPECT_FALSE(from1[2]);
    EXPECT_TRUE(from1[3]);
    auto to3 = graph::canReach(d, 3);
    EXPECT_TRUE(to3[0] && to3[1] && to3[2] && to3[3]);
    auto to1 = graph::canReach(d, 1);
    EXPECT_TRUE(to1[0]);
    EXPECT_FALSE(to1[2]);
}

TEST(Topo, Depth)
{
    Dag d = diamond();
    EXPECT_EQ(graph::depth(d), 2u);
    Dag chain(5);
    for (NodeId i = 0; i + 1 < 5; ++i)
        chain.addEdge(i, i + 1, 1);
    EXPECT_EQ(graph::depth(chain), 4u);
}

// ------------------------------------------------------------- paths

TEST(Paths, DiamondShortestAndLongest)
{
    Dag d = diamond();
    auto s = graph::solveDag(d, {0}, Objective::Shortest);
    EXPECT_EQ(s.distance[3], 2);
    auto l = graph::solveDag(d, {0}, Objective::Longest);
    EXPECT_EQ(l.distance[3], 6);
}

TEST(Paths, ExtractPathIsConsistent)
{
    Dag d = diamond();
    auto s = graph::solveDag(d, {0}, Objective::Shortest);
    auto path = graph::extractPath(s, 3);
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), 3u);
    EXPECT_EQ(graph::pathWeight(d, path), s.distance[3]);
}

TEST(Paths, UnreachableNodes)
{
    Dag d(3);
    d.addEdge(0, 1, 1); // node 2 isolated
    auto s = graph::solveDag(d, {0}, Objective::Shortest);
    EXPECT_TRUE(s.reached(1));
    EXPECT_FALSE(s.reached(2));
    EXPECT_TRUE(graph::extractPath(s, 2).empty());
}

TEST(Paths, MultipleSources)
{
    Dag d(4);
    d.addEdge(0, 2, 10);
    d.addEdge(1, 2, 1);
    d.addEdge(2, 3, 1);
    auto s = graph::solveDag(d, {0, 1}, Objective::Shortest);
    EXPECT_EQ(s.distance[2], 1);
    EXPECT_EQ(s.distance[3], 2);
    auto l = graph::solveDag(d, {0, 1}, Objective::Longest);
    EXPECT_EQ(l.distance[3], 11);
}

TEST(Paths, CountPaths)
{
    Dag d = diamond();
    EXPECT_EQ(graph::countPaths(d, 0, 3), 2u);
    // An k-stage ladder has 2^k paths.
    Dag ladder(2 * 6);
    for (int k = 0; k + 2 < 12; k += 2) {
        ladder.addEdge(k, k + 2, 1);
        ladder.addEdge(k, k + 3, 1);
        ladder.addEdge(k + 1, k + 2, 1);
        ladder.addEdge(k + 1, k + 3, 1);
    }
    EXPECT_EQ(graph::countPaths(ladder, 0, 10), 16u);
}

TEST(Paths, CountPathsSaturatesAtCap)
{
    Dag d = diamond();
    EXPECT_EQ(graph::countPaths(d, 0, 3, 1), 1u);
}

/** Brute-force path enumeration oracle for small graphs. */
void
allPathWeights(const Dag &d, NodeId node, NodeId sink, Weight acc,
               std::vector<Weight> &out)
{
    if (node == sink) {
        out.push_back(acc);
        return;
    }
    for (uint32_t idx : d.outEdges(node)) {
        const auto &e = d.edges()[idx];
        allPathWeights(d, e.to, sink, acc + e.weight, out);
    }
}

class RandomDagOracle : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagOracle, DpMatchesBruteForceEnumeration)
{
    util::Rng rng(1000 + GetParam());
    Dag d = graph::randomDag(rng, 9, 0.35, {1, 6});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    std::vector<Weight> weights;
    allPathWeights(d, source, sink, 0, weights);
    ASSERT_FALSE(weights.empty());
    auto s = graph::solveDag(d, {source}, Objective::Shortest);
    auto l = graph::solveDag(d, {source}, Objective::Longest);
    EXPECT_EQ(s.distance[sink],
              *std::min_element(weights.begin(), weights.end()));
    EXPECT_EQ(l.distance[sink],
              *std::max_element(weights.begin(), weights.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagOracle,
                         ::testing::Range(0, 25));

// --------------------------------------------------------- generators

TEST(Generate, LayeredDagShape)
{
    util::Rng rng(5);
    Dag d = graph::layeredDag(rng, 4, 5, 0.4, {1, 3});
    EXPECT_EQ(d.nodeCount(), 20u);
    EXPECT_TRUE(d.isAcyclic());
    // Everything in layer 0 reaches something; everything in the last
    // layer is reachable.
    auto reach = graph::reachableFromAny(
        d, {0, 1, 2, 3, 4});
    for (NodeId n = 15; n < 20; ++n)
        EXPECT_TRUE(reach[n]) << "node " << n;
}

TEST(Generate, GridDagShape)
{
    util::Rng rng(6);
    Dag d = graph::gridDag(rng, 3, 4, {1, 2}, true);
    EXPECT_EQ(d.nodeCount(), 20u);
    // Edges: horizontal 4*(3+1)=16, vertical 3*(4+1)=15, diag 12.
    EXPECT_EQ(d.edgeCount(), 16u + 15u + 12u);
    EXPECT_TRUE(d.isAcyclic());
}

TEST(Generate, GridDagWithoutDiagonals)
{
    util::Rng rng(7);
    Dag d = graph::gridDag(rng, 2, 2, {1, 1}, false);
    EXPECT_EQ(d.edgeCount(), 2u * 3u + 2u * 3u);
}

TEST(Generate, RandomDagAcyclicAcrossSeeds)
{
    for (uint64_t seed = 0; seed < 10; ++seed) {
        util::Rng rng(seed);
        Dag d = graph::randomDag(rng, 30, 0.2, {1, 9});
        EXPECT_TRUE(d.isAcyclic()) << "seed " << seed;
        for (const auto &e : d.edges()) {
            EXPECT_GE(e.weight, 1);
            EXPECT_LE(e.weight, 9);
        }
    }
}

TEST(Generate, SuperEndpoints)
{
    util::Rng rng(8);
    Dag d = graph::randomDag(rng, 12, 0.2, {1, 4});
    auto [source, sink] = graph::addSuperEndpoints(d, 1);
    EXPECT_EQ(d.sources(), (std::vector<NodeId>{source}));
    EXPECT_EQ(d.sinks(), (std::vector<NodeId>{sink}));
}

// ------------------------------------------------------- Fig. 3 graph

TEST(Fig3, ShortestPathIsTwoAsInPaper)
{
    Dag d = graph::makeFig3ExampleDag();
    auto s = graph::solveDag(d, {0, 1}, Objective::Shortest);
    // "it takes two cycles for the '1' signal to propagate to the
    // output node and ... this corresponds to the shortest path"
    EXPECT_EQ(s.distance[4], 2);
}

TEST(Fig3, LongestPath)
{
    Dag d = graph::makeFig3ExampleDag();
    auto l = graph::solveDag(d, {0, 1}, Objective::Longest);
    EXPECT_EQ(l.distance[4], 4); // A -> C -> D -> E = 2 + 1 + 1
}

} // namespace
