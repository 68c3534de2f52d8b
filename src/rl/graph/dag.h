/**
 * @file
 * Weighted directed-acyclic-graph substrate.
 *
 * The paper frames every dynamic-programming problem it accelerates as
 * a shortest/longest-path query on a weighted DAG (the edit graph
 * being the flagship instance).  This module is the in-memory graph
 * the rest of the library computes on: the reference DP solvers
 * (rl/graph/paths.h) act as the correctness oracle and the race-logic
 * mapper (rl/core/race_network.h) compiles the same structure into a
 * temporal circuit.
 */

#ifndef RACELOGIC_GRAPH_DAG_H
#define RACELOGIC_GRAPH_DAG_H

#include <cstdint>
#include <string>
#include <vector>

namespace racelogic::graph {

/** Dense node identifier (index into the DAG's node arrays). */
using NodeId = uint32_t;

/** Sentinel for "no node". */
constexpr NodeId kNoNode = ~NodeId(0);

/** Edge weight. Race Logic realizes weights as delays, so >= 0. */
using Weight = int64_t;

/** A weighted directed edge. */
struct Edge {
    NodeId from;
    NodeId to;
    Weight weight;

    bool
    operator==(const Edge &other) const
    {
        return from == other.from && to == other.to &&
               weight == other.weight;
    }
};

/**
 * A mutable weighted digraph intended to be acyclic.
 *
 * Nodes are created densely; edges may be added in any order.
 * Acyclicity is checked on demand, not on every insertion, so
 * construction stays O(V + E): isAcyclic() asks, and
 * graph::topologicalOrder() -- the one Kahn pass both run -- exits on
 * a cycle.
 */
class Dag
{
  public:
    Dag() = default;

    /** Create a graph with `count` initial unnamed nodes. */
    explicit Dag(size_t count) { addNodes(count); }

    /** Add a single node; returns its id. */
    NodeId addNode(std::string label = "");

    /** Add `count` nodes; returns the id of the first. */
    NodeId addNodes(size_t count);

    /**
     * Add a directed weighted edge.
     *
     * Infinite weights are represented by *omitting* the edge (the
     * paper: "truly infinite [weight] ... can be implemented as a
     * missing edge"), so no sentinel weight exists.
     */
    void addEdge(NodeId from, NodeId to, Weight weight);

    size_t nodeCount() const { return outAdjacency.size(); }
    size_t edgeCount() const { return edges_.size(); }

    /** All edges in insertion order. */
    const std::vector<Edge> &edges() const { return edges_; }

    /** Out-edge indices (into edges()) of a node. */
    const std::vector<uint32_t> &outEdges(NodeId node) const;

    /** In-edge indices (into edges()) of a node. */
    const std::vector<uint32_t> &inEdges(NodeId node) const;

    /** Number of edges entering `node`. */
    size_t inDegree(NodeId node) const { return inEdges(node).size(); }

    /** Number of edges leaving `node`. */
    size_t outDegree(NodeId node) const { return outEdges(node).size(); }

    /** Nodes with no incoming edges. */
    std::vector<NodeId> sources() const;

    /** Nodes with no outgoing edges. */
    std::vector<NodeId> sinks() const;

    /** Optional human-readable node label ("" if unset). */
    const std::string &label(NodeId node) const;

    /** Smallest edge weight (fatal on an edgeless graph). */
    Weight minWeight() const;

    /** Largest edge weight (fatal on an edgeless graph). */
    Weight maxWeight() const;

    /** True iff the graph currently contains no directed cycle:
     *  graph::kahnOrder() (rl/graph/topo.h) reaches every node. */
    bool isAcyclic() const;

  private:
    void checkNode(NodeId node) const;

    std::vector<Edge> edges_;
    std::vector<std::vector<uint32_t>> outAdjacency;
    std::vector<std::vector<uint32_t>> inAdjacency;
    std::vector<std::string> labels;
};

/**
 * Build the paper's Fig. 3a example DAG.
 *
 * Two input nodes, one output node, and the internal structure whose
 * shortest path is 2 and longest path is 4 under OR-/AND-type Race
 * Logic respectively (longest: inA ->(3) mid1 ->(1) out, tied by
 * inA ->(2) mid0 ->(1) mid1 ->(1) out; both DP and the AND-race
 * report 4).  Returned ids: sources = {0, 1}, sink = last.
 */
Dag makeFig3ExampleDag();

} // namespace racelogic::graph

#endif // RACELOGIC_GRAPH_DAG_H
