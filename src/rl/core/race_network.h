/**
 * @file
 * Compiling a weighted DAG into a race and running it.
 *
 * This is the paper's Section 3 construction: "all nodes are replaced
 * with OR/AND gates while edges [are replaced] with corresponding
 * delays", and the shortest/longest path is read off as the
 * propagation time from the root node(s) to the output node(s).
 *
 * Two execution backends are provided:
 *
 *  - raceDag(): the race on the DAG itself, one pass in topological
 *    order.  Every arrival into a node comes from a node before it,
 *    so when the pass reaches a node it holds all of them, and the
 *    node fires when its gate would rise in hardware; per-node firing
 *    times come out as a by-product (the "wavefront").  O(V log V +
 *    E), the order being graph::topologicalOrder()'s, with delays up
 *    to kMaxWavefrontWeight.  Its oracle is the DAG DP
 *    (graph::solveDag).
 *
 *  - compileRaceCircuit(): an actual gate-level netlist (OR/AND
 *    gates + DFF delay chains) runnable on circuit::SyncSim.  This
 *    is the synthesizable artifact; raceDag() and the DP oracle
 *    validate it.
 */

#ifndef RACELOGIC_CORE_RACE_NETWORK_H
#define RACELOGIC_CORE_RACE_NETWORK_H

#include <span>
#include <vector>

#include "rl/circuit/netlist.h"
#include "rl/core/temporal.h"
#include "rl/graph/dag.h"
#include "rl/sim/tick.h"

namespace racelogic::core {

/** Gate family the nodes become (paper Fig. 3b vs 3c). */
enum class RaceType {
    Or,  ///< first arrival wins: min / shortest path
    And, ///< last arrival wins: max / longest path
};

/** Outcome of a race over a DAG. */
struct RaceOutcome {
    /** Per-node firing time ("never" where the signal can't reach). */
    std::vector<TemporalValue> firing;

    /** Arrivals scheduled: each out-edge of a fired node whose
     *  arrival is within the horizon, first to its target or not. */
    uint64_t events = 0;

    /** Latest firing time among fired nodes (total race duration). */
    sim::Tick horizon = 0;

    TemporalValue
    at(graph::NodeId node) const
    {
        return firing[node];
    }
};

/**
 * Race over `dag` injecting a rising edge at every node in `sources`
 * at tick 0.
 *
 * An Or node fires at its earliest arrival; an And node at its latest,
 * once every in-edge has delivered one; a source at tick 0, whatever
 * reaches it (arrivals into a source still count as events).  A node
 * that no arrival reaches never fires.
 *
 * Requirements checked in the same pass: the graph is acyclic, every
 * edge weight is >= 0 (Race Logic cannot realize negative delays;
 * Section 5) -- both fatal() -- and at most kMaxWavefrontWeight
 * (api::RaceEngine::validate() rejects larger delays with a typed
 * error; here they abort).
 * For RaceType::And the hardware fires a node only after *all*
 * in-edges have fired, so any node with an in-edge that cannot fire
 * stays at never(); callers comparing against a longest-path DP
 * should ensure all predecessors are reachable (see
 * andRaceMatchesDp()).
 *
 * @param horizon  Section 6 early termination: arrivals later than
 *                 this tick are never delivered, so nodes whose
 *                 signal would arrive past the horizon stay at
 *                 never().  Default races to full drain.
 * @param inhibit  Per-node inhibit times, race logic's INHIBIT gate
 *                 (empty: none): an arrival later than its target's
 *                 inhibit time is not delivered either -- not counted,
 *                 and not seen by the target.  An Or node whose every
 *                 arrival comes past its time therefore does not fire
 *                 and sends nothing, and each event counted is an
 *                 arrival into a node that fires.  A source still
 *                 fires at tick 0.  With no inhibit times the race is
 *                 the plain one, field for field.
 */
RaceOutcome raceDag(const graph::Dag &dag,
                    const std::vector<graph::NodeId> &sources,
                    RaceType type,
                    sim::Tick horizon = sim::kTickInfinity,
                    std::span<const sim::Tick> inhibit = {});

/**
 * True iff an AND-type race over this graph/source set computes the
 * same values as the longest-path DP at every node: that is, every
 * node is either unreachable or has all of its predecessors
 * reachable.  (OR-type races always match the shortest-path DP.)
 */
bool andRaceMatchesDp(const graph::Dag &dag,
                      const std::vector<graph::NodeId> &sources);

/** A DAG compiled to gates, with the net bindings needed to run it. */
struct RaceCircuit {
    circuit::Netlist netlist;

    /** Primary-input net of each source node (in `sources` order). */
    std::vector<circuit::NetId> sourceInputs;

    /** Net carrying each DAG node's firing signal. */
    std::vector<circuit::NetId> nodeNets;
};

/**
 * Compile `dag` into a synchronous race circuit (Fig. 3b/3c): each
 * non-source node becomes one OR/AND gate, each weight-w edge a
 * w-deep DFF chain (weight 0 = plain wire).
 *
 * fatal() on negative weights or cyclic graphs.  Run by driving
 * sourceInputs high at cycle 0 and stepping SyncSim until the sink's
 * nodeNets entry rises; the cycle number is the path score.
 */
RaceCircuit compileRaceCircuit(const graph::Dag &dag,
                               const std::vector<graph::NodeId> &sources,
                               RaceType type);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_RACE_NETWORK_H
