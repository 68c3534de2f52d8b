/**
 * @file
 * Topological ordering and reachability queries over a Dag.
 */

#ifndef RACELOGIC_GRAPH_TOPO_H
#define RACELOGIC_GRAPH_TOPO_H

#include <vector>

#include "rl/graph/dag.h"

namespace racelogic::graph {

/**
 * Kahn's algorithm, smallest node id first among ready nodes: every
 * node the pass reaches, in topological order.  It comes up short of
 * nodeCount() iff the graph has a cycle (Dag::isAcyclic()).
 */
std::vector<NodeId> kahnOrder(const Dag &dag);

/**
 * Deterministic topological order: kahnOrder(), which solveDag()'s
 * tie-breaking and compileRaceCircuit()'s net numbering rely on.
 * fatal() if the graph has a cycle.
 */
std::vector<NodeId> topologicalOrder(const Dag &dag);

/** Set of nodes reachable from `start` (including `start`). */
std::vector<bool> reachableFrom(const Dag &dag, NodeId start);

/** Set of nodes reachable from any of `starts`. */
std::vector<bool> reachableFromAny(const Dag &dag,
                                   const std::vector<NodeId> &starts);

/** Set of nodes that can reach `target` (including `target`). */
std::vector<bool> canReach(const Dag &dag, NodeId target);

/**
 * Length of the longest edge-count path in the graph (its depth); the
 * number of anti-diagonal "waves" a dynamic-programming evaluation of
 * the graph requires.
 */
size_t depth(const Dag &dag);

} // namespace racelogic::graph

#endif // RACELOGIC_GRAPH_TOPO_H
