#include "rl/graph/dag.h"

#include <algorithm>

#include "rl/graph/topo.h"
#include "rl/util/logging.h"

namespace racelogic::graph {

NodeId
Dag::addNode(std::string label)
{
    NodeId id = static_cast<NodeId>(outAdjacency.size());
    outAdjacency.emplace_back();
    inAdjacency.emplace_back();
    labels.push_back(std::move(label));
    return id;
}

NodeId
Dag::addNodes(size_t count)
{
    NodeId first = static_cast<NodeId>(outAdjacency.size());
    for (size_t i = 0; i < count; ++i)
        addNode();
    return first;
}

void
Dag::addEdge(NodeId from, NodeId to, Weight weight)
{
    checkNode(from);
    checkNode(to);
    if (from == to)
        rl_fatal("self-loop on node ", from, " would create a cycle");
    uint32_t index = static_cast<uint32_t>(edges_.size());
    edges_.push_back(Edge{from, to, weight});
    outAdjacency[from].push_back(index);
    inAdjacency[to].push_back(index);
}

const std::vector<uint32_t> &
Dag::outEdges(NodeId node) const
{
    checkNode(node);
    return outAdjacency[node];
}

const std::vector<uint32_t> &
Dag::inEdges(NodeId node) const
{
    checkNode(node);
    return inAdjacency[node];
}

std::vector<NodeId>
Dag::sources() const
{
    std::vector<NodeId> result;
    for (NodeId n = 0; n < nodeCount(); ++n)
        if (inAdjacency[n].empty())
            result.push_back(n);
    return result;
}

std::vector<NodeId>
Dag::sinks() const
{
    std::vector<NodeId> result;
    for (NodeId n = 0; n < nodeCount(); ++n)
        if (outAdjacency[n].empty())
            result.push_back(n);
    return result;
}

const std::string &
Dag::label(NodeId node) const
{
    checkNode(node);
    return labels[node];
}

Weight
Dag::minWeight() const
{
    if (edges_.empty())
        rl_fatal("minWeight of an edgeless graph");
    Weight best = edges_.front().weight;
    for (const Edge &e : edges_)
        best = std::min(best, e.weight);
    return best;
}

Weight
Dag::maxWeight() const
{
    if (edges_.empty())
        rl_fatal("maxWeight of an edgeless graph");
    Weight best = edges_.front().weight;
    for (const Edge &e : edges_)
        best = std::max(best, e.weight);
    return best;
}

bool
Dag::isAcyclic() const
{
    return kahnOrder(*this).size() == nodeCount();
}

void
Dag::checkNode(NodeId node) const
{
    rl_assert(node < outAdjacency.size(), "node ", node,
              " out of range (", outAdjacency.size(), " nodes)");
}

Dag
makeFig3ExampleDag()
{
    // Reconstruction of the paper's Fig. 3a: two input nodes, one
    // output node, and unit/small weights {2, 3, 1, 1, 1, 1, 1}.  The
    // paper states the OR-type (shortest-path) race completes in two
    // cycles; this graph reproduces that.
    Dag dag;
    NodeId a = dag.addNode("inA");
    NodeId b = dag.addNode("inB");
    NodeId c = dag.addNode("mid0");
    NodeId d = dag.addNode("mid1");
    NodeId e = dag.addNode("out");
    dag.addEdge(a, c, 2);
    dag.addEdge(a, d, 3);
    dag.addEdge(b, c, 1);
    dag.addEdge(b, d, 1);
    dag.addEdge(c, d, 1);
    dag.addEdge(c, e, 1);
    dag.addEdge(d, e, 1);
    return dag;
}

} // namespace racelogic::graph
