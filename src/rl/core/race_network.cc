#include "rl/core/race_network.h"

#include <algorithm>

#include "rl/circuit/builders.h"
#include "rl/core/wavefront.h"
#include "rl/graph/topo.h"
#include "rl/util/logging.h"

namespace racelogic::core {

namespace {

/** fatal() on a delay Race Logic cannot realize. */
void
checkNonNegative(const graph::Edge &e)
{
    if (e.weight < 0)
        rl_fatal("edge ", e.from, "->", e.to, " has negative weight ",
                 e.weight, "; Race Logic cannot realize negative delays "
                 "(convert the matrix first, Section 5)");
}

} // namespace

RaceOutcome
raceDag(const graph::Dag &dag, const std::vector<graph::NodeId> &sources,
        RaceType type, sim::Tick horizon, std::span<const sim::Tick> inhibit)
{
    rl_assert(!sources.empty(), "race needs at least one source");
    rl_assert(inhibit.empty() || inhibit.size() == dag.nodeCount(),
              "one inhibit time per node");
    // Every arrival into a node comes from a node before it, so one
    // pass in this order settles each node before it fires.  Ordering
    // first exits on a cycle, and frees the sort's working arrays
    // before the race allocates its own.
    const std::vector<graph::NodeId> order = graph::topologicalOrder(dag);
    const size_t n = dag.nodeCount();
    const bool andRace = type == RaceType::And;
    std::vector<bool> isSource(n, false);
    for (graph::NodeId s : sources) {
        rl_assert(s < n, "bad source node ", s);
        isSource[s] = true;
    }

    RaceOutcome outcome;
    // Each node's arrivals so far -- the earliest for Or, the latest
    // for And, which also counts down the in-edges yet to deliver --
    // become its firing time when the pass reaches it.
    std::vector<TemporalValue> &firing = outcome.firing;
    firing.assign(n, TemporalValue::never());
    std::vector<uint32_t> waiting;
    if (andRace) {
        waiting.resize(n);
        for (graph::NodeId node = 0; node < n; ++node)
            waiting[node] = static_cast<uint32_t>(dag.inDegree(node));
    }

    const std::vector<graph::Edge> &edges = dag.edges();
    for (graph::NodeId node : order) {
        // A source is tied high at tick 0, whatever reaches it; an And
        // gate waits for its last in-edge.
        if (isSource[node])
            firing[node] = TemporalValue::at(0);
        else if (andRace && waiting[node] > 0)
            firing[node] = TemporalValue::never();
        const TemporalValue t = firing[node];
        if (t.fired())
            outcome.horizon = std::max(outcome.horizon, t.time());
        for (uint32_t idx : dag.outEdges(node)) {
            const graph::Edge &e = edges[idx];
            checkNonNegative(e);
            rl_assert(e.weight <= kMaxWavefrontWeight,
                      "wavefront kernel weight ", e.weight, " outside [0, ",
                      kMaxWavefrontWeight, "]; validate the problem "
                      "(api::RaceEngine::validate()) before racing it");
            const TemporalValue at =
                t.delayed(static_cast<sim::Tick>(e.weight));
            // Unfired, past Section 6's abort counter, or inhibited at
            // the target.
            if (!at.fired() || at.rawTime() > horizon ||
                (!inhibit.empty() && at.rawTime() > inhibit[e.to]))
                continue;
            ++outcome.events;
            TemporalValue &into = firing[e.to];
            if (!andRace) {
                into = firstArrival(into, at);
            } else {
                --waiting[e.to];
                into = into.fired() ? std::max(into, at) : at;
            }
        }
    }
    return outcome;
}

bool
andRaceMatchesDp(const graph::Dag &dag,
                 const std::vector<graph::NodeId> &sources)
{
    std::vector<bool> reach = graph::reachableFromAny(dag, sources);
    for (graph::NodeId id = 0; id < dag.nodeCount(); ++id) {
        if (!reach[id])
            continue;
        bool is_source =
            std::find(sources.begin(), sources.end(), id) != sources.end();
        if (is_source)
            continue;
        for (uint32_t idx : dag.inEdges(id))
            if (!reach[dag.edges()[idx].from])
                return false;
    }
    return true;
}

RaceCircuit
compileRaceCircuit(const graph::Dag &dag,
                   const std::vector<graph::NodeId> &sources,
                   RaceType type)
{
    rl_assert(!sources.empty(), "race needs at least one source");

    RaceCircuit rc;
    const size_t n = dag.nodeCount();
    rc.nodeNets.assign(n, circuit::kNoNet);

    std::vector<bool> is_source(n, false);
    for (graph::NodeId s : sources) {
        rl_assert(s < n, "bad source node ", s);
        is_source[s] = true;
    }

    // Create nets in topological order so edge delay chains always
    // have their driver available; topologicalOrder() exits on a cycle.
    std::vector<std::vector<circuit::NetId>> fanin(n);
    for (graph::NodeId node : graph::topologicalOrder(dag)) {
        circuit::NetId net;
        if (is_source[node]) {
            net = rc.netlist.input("src" + std::to_string(node));
            rc.sourceInputs.push_back(net);
        } else if (fanin[node].empty()) {
            // Unreachable non-source node: never fires (tie low).
            net = rc.netlist.constant(false);
        } else if (fanin[node].size() == 1) {
            // Single in-edge: the gate degenerates to a wire.
            net = fanin[node][0];
        } else if (type == RaceType::Or) {
            net = rc.netlist.orGate(fanin[node]);
        } else {
            net = rc.netlist.andGate(fanin[node]);
        }
        rc.nodeNets[node] = net;
        for (uint32_t idx : dag.outEdges(node)) {
            const graph::Edge &edge = dag.edges()[idx];
            checkNonNegative(edge);
            circuit::NetId delayed = circuit::buildDelayChain(
                rc.netlist, net, static_cast<size_t>(edge.weight));
            fanin[edge.to].push_back(delayed);
        }
    }

    // sourceInputs must follow the order of `sources`, not topo order.
    std::vector<circuit::NetId> ordered;
    ordered.reserve(sources.size());
    for (graph::NodeId s : sources)
        ordered.push_back(rc.nodeNets[s]);
    rc.sourceInputs = std::move(ordered);

    rc.netlist.validate();
    return rc;
}

} // namespace racelogic::core
