#include "rl/core/race_network.h"

#include <algorithm>

#include "rl/circuit/builders.h"
#include "rl/core/wavefront.h"
#include "rl/graph/topo.h"
#include "rl/util/logging.h"

namespace racelogic::core {

namespace {

void
checkRaceable(const graph::Dag &dag)
{
    dag.validateAcyclic();
    for (const graph::Edge &e : dag.edges())
        if (e.weight < 0)
            rl_fatal("edge ", e.from, "->", e.to, " has negative weight ",
                     e.weight, "; Race Logic cannot realize negative "
                     "delays (convert the matrix first, Section 5)");
}

} // namespace

RaceOutcome
raceDag(const graph::Dag &dag, const std::vector<graph::NodeId> &sources,
        RaceType type, sim::Tick horizon)
{
    checkRaceable(dag);
    rl_assert(!sources.empty(), "race needs at least one source");
    return WavefrontRaceKernel(dag).race(sources, type, horizon);
}

RaceOutcome
raceDagEventDriven(const graph::Dag &dag,
                   const std::vector<graph::NodeId> &sources,
                   RaceType type, sim::Tick horizon)
{
    checkRaceable(dag);
    rl_assert(!sources.empty(), "race needs at least one source");
    const size_t n = dag.nodeCount();
    RaceOutcome outcome;
    outcome.firing.assign(n, TemporalValue::never());

    // For AND nodes, count in-edges still waiting; the node fires on
    // the last arrival.  For OR nodes, the first arrival fires it and
    // later arrivals are absorbed (the gate is already high).
    std::vector<size_t> waiting(n);
    for (graph::NodeId id = 0; id < n; ++id)
        waiting[id] = dag.inEdges(id).size();

    sim::EventQueue queue;
    // At most one pending arrival per edge can be in flight.
    queue.reserve(dag.edgeCount());

    // fire() marks a node and schedules the arrivals it causes.
    std::function<void(graph::NodeId)> fire = [&](graph::NodeId node) {
        outcome.firing[node] = TemporalValue::at(queue.now());
        outcome.horizon = std::max(outcome.horizon, queue.now());
        for (uint32_t idx : dag.outEdges(node)) {
            const graph::Edge &edge = dag.edges()[idx];
            queue.scheduleIn(static_cast<sim::Tick>(edge.weight), [&, edge] {
                graph::NodeId to = edge.to;
                if (outcome.firing[to].fired())
                    return; // OR node already high
                if (type == RaceType::Or) {
                    fire(to);
                } else {
                    rl_assert(waiting[to] > 0, "arrival underflow");
                    if (--waiting[to] == 0)
                        fire(to); // last arrival = max
                }
            });
        }
    };

    for (graph::NodeId s : sources) {
        rl_assert(s < n, "bad source node ", s);
        // In AND mode a source with in-edges would double-fire; the
        // injected edge simply dominates (hardware ties the input
        // high), so clear its waiting count.
        waiting[s] = 0;
        if (!outcome.firing[s].fired())
            fire(s);
    }

    outcome.events = horizon == sim::kTickInfinity
                         ? queue.run()
                         : queue.runUntil(horizon);
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
    checkRaceable(dag);
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
    // have their driver available.
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
