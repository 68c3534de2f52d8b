#include "rl/graph/topo.h"

#include <algorithm>
#include <queue>

#include "rl/util/logging.h"

namespace racelogic::graph {

std::vector<NodeId>
kahnOrder(const Dag &dag)
{
    const size_t n = dag.nodeCount();
    std::vector<size_t> remaining(n);
    // min-heap => deterministic smallest-id-first order
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
    for (NodeId node = 0; node < n; ++node) {
        remaining[node] = dag.inDegree(node);
        if (remaining[node] == 0)
            ready.push(node);
    }
    std::vector<NodeId> order;
    order.reserve(n);
    while (!ready.empty()) {
        NodeId node = ready.top();
        ready.pop();
        order.push_back(node);
        for (uint32_t idx : dag.outEdges(node)) {
            NodeId to = dag.edges()[idx].to;
            if (--remaining[to] == 0)
                ready.push(to);
        }
    }
    return order;
}

std::vector<NodeId>
topologicalOrder(const Dag &dag)
{
    std::vector<NodeId> order = kahnOrder(dag);
    if (order.size() != dag.nodeCount())
        rl_fatal("topologicalOrder: graph has a cycle");
    return order;
}

std::vector<bool>
reachableFrom(const Dag &dag, NodeId start)
{
    return reachableFromAny(dag, {start});
}

std::vector<bool>
reachableFromAny(const Dag &dag, const std::vector<NodeId> &starts)
{
    std::vector<bool> seen(dag.nodeCount(), false);
    std::vector<NodeId> stack;
    for (NodeId s : starts) {
        rl_assert(s < dag.nodeCount(), "bad start node ", s);
        if (!seen[s]) {
            seen[s] = true;
            stack.push_back(s);
        }
    }
    while (!stack.empty()) {
        NodeId node = stack.back();
        stack.pop_back();
        for (uint32_t idx : dag.outEdges(node)) {
            NodeId to = dag.edges()[idx].to;
            if (!seen[to]) {
                seen[to] = true;
                stack.push_back(to);
            }
        }
    }
    return seen;
}

std::vector<bool>
canReach(const Dag &dag, NodeId target)
{
    rl_assert(target < dag.nodeCount(), "bad target node ", target);
    std::vector<bool> seen(dag.nodeCount(), false);
    std::vector<NodeId> stack{target};
    seen[target] = true;
    while (!stack.empty()) {
        NodeId node = stack.back();
        stack.pop_back();
        for (uint32_t idx : dag.inEdges(node)) {
            NodeId from = dag.edges()[idx].from;
            if (!seen[from]) {
                seen[from] = true;
                stack.push_back(from);
            }
        }
    }
    return seen;
}

size_t
depth(const Dag &dag)
{
    std::vector<NodeId> order = topologicalOrder(dag);
    std::vector<size_t> level(dag.nodeCount(), 0);
    size_t deepest = 0;
    for (NodeId node : order) {
        for (uint32_t idx : dag.outEdges(node)) {
            NodeId to = dag.edges()[idx].to;
            level[to] = std::max(level[to], level[node] + 1);
            deepest = std::max(deepest, level[to]);
        }
    }
    return deepest;
}

} // namespace racelogic::graph
