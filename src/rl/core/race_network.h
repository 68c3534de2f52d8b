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
 *  - raceDag(): a temporal simulation on the DAG itself.  Arrival
 *    events propagate in time order exactly as edges would in
 *    hardware; per-node firing times come out as a by-product (the
 *    "wavefront").  It runs on the bucketed wavefront kernel
 *    (rl/core/wavefront.h -- Dial's algorithm, O(E + T), no heap and
 *    no per-event allocation), which takes delays up to
 *    kMaxWavefrontWeight; raceDagEventDriven() is the original
 *    heap-scheduled kernel, kept as the reference the wavefront
 *    kernel is tested and benchmarked against.
 *
 *  - compileRaceCircuit(): an actual gate-level netlist (OR/AND
 *    gates + DFF delay chains) runnable on circuit::SyncSim.  This
 *    is the synthesizable artifact; the event backend and the DP
 *    oracle validate it.
 */

#ifndef RACELOGIC_CORE_RACE_NETWORK_H
#define RACELOGIC_CORE_RACE_NETWORK_H

#include <vector>

#include "rl/circuit/netlist.h"
#include "rl/core/temporal.h"
#include "rl/graph/dag.h"
#include "rl/sim/event_queue.h"

namespace racelogic::core {

/** Gate family the nodes become (paper Fig. 3b vs 3c). */
enum class RaceType {
    Or,  ///< first arrival wins: min / shortest path
    And, ///< last arrival wins: max / longest path
};

/** Outcome of an event-driven race. */
struct RaceOutcome {
    /** Per-node firing time ("never" where the signal can't reach). */
    std::vector<TemporalValue> firing;

    /** Events processed by the simulation. */
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
 * Runs on the bucketed wavefront kernel (rl/core/wavefront.h).
 *
 * Requirements checked: the graph is acyclic, every edge weight is
 * >= 0 (Race Logic cannot realize negative delays; Section 5) and at
 * most kMaxWavefrontWeight (api::RaceEngine::validate() rejects
 * larger delays with a typed error; here they abort).
 * For RaceType::And the hardware fires a node only after *all*
 * in-edges have fired, so any node with an in-edge that cannot fire
 * stays at never(); callers comparing against a longest-path DP
 * should ensure all predecessors are reachable (see
 * andRaceMatchesDp()).
 *
 * @param horizon  Section 6 early termination: arrivals later than
 *                 this tick are never simulated, so nodes whose
 *                 signal would arrive past the horizon stay at
 *                 never().  Default races to full drain.
 */
RaceOutcome raceDag(const graph::Dag &dag,
                    const std::vector<graph::NodeId> &sources,
                    RaceType type,
                    sim::Tick horizon = sim::kTickInfinity);

/**
 * The original heap-scheduled kernel: one sim::EventQueue callback
 * per edge arrival.  Same semantics (and same outcome, event counts
 * included) as raceDag() for any delay; kept only as the reference
 * the wavefront kernel is tested and benchmarked against.
 */
RaceOutcome raceDagEventDriven(const graph::Dag &dag,
                               const std::vector<graph::NodeId> &sources,
                               RaceType type,
                               sim::Tick horizon = sim::kTickInfinity);

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
