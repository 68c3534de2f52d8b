/**
 * @file
 * Gate-level race fabric with data-dependent clock gating (§4.3,
 * Fig. 7), realized with real enable logic rather than an analytic
 * model.
 *
 * The fabric is the same Fig. 4 unit-cell grid as RaceGridCircuit,
 * partitioned into m x m multi-cell regions.  Each region's clock
 * enable is derived exactly as the paper describes: the region wakes
 * when a Boolean "1" reaches any net entering it (the "black" cells'
 * inputs arriving) and sleeps once every cell output inside it has
 * latched high (all "grey" cells done) -- after which its state can
 * never change again, so freezing is safe, which the score-equality
 * tests confirm.
 *
 * Because the simulator charges clock energy only to enabled DFFs,
 * the measured clockedDffCycles of this fabric *is* the gated C_clk
 * activity of Eq. 6, now produced by real gates instead of the
 * behavioral window analysis -- the two are cross-checked in tests.
 */

#ifndef RACELOGIC_CORE_GATED_GRID_CIRCUIT_H
#define RACELOGIC_CORE_GATED_GRID_CIRCUIT_H

#include <memory>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/circuit/builders.h"
#include "rl/circuit/netlist.h"
#include "rl/circuit/sim_sync.h"
#include "rl/core/race_grid_circuit.h"
#include "rl/sim/tick.h"
#include "rl/util/grid.h"

namespace racelogic::core {

/** Clock-gated gate-level race aligner. */
class GatedRaceGridCircuit
{
  public:
    /**
     * @param alphabet     Symbol set.
     * @param rows, cols   Fabric dimensions (string lengths).
     * @param region_side  Gating granularity m (Fig. 7a).
     */
    GatedRaceGridCircuit(const bio::Alphabet &alphabet, size_t rows,
                         size_t cols, size_t region_side);

    /** Race one pair (same contract as RaceGridCircuit::align). */
    CircuitRunResult align(const bio::Sequence &a,
                           const bio::Sequence &b,
                           uint64_t max_cycles = 0);

    /** Race up to 64 pairs lock-step on the bit-parallel lanes. */
    LaneBatchResult alignLanes(const std::vector<LanePair> &lanes,
                               uint64_t max_cycles = 0,
                               KernelCounters *counters = nullptr) const;

    /** Replay a race on the interpretive SyncSim reference path. */
    CircuitRunResult alignReference(const bio::Sequence &a,
                                    const bio::Sequence &b,
                                    uint64_t max_cycles = 0);

    size_t regionSide() const { return regionSideLen; }
    size_t regions() const { return regionRows * regionCols; }

    /** Extra gates spent on gating logic (the C_gate overhead). */
    size_t gatingGateCount() const { return gatingGates; }

    const circuit::Netlist &netlist() const { return net; }

    /** The active (compiled) simulator behind align(). */
    circuit::CompiledSim &sim() { return *simulator; }

    /** The lazily created SyncSim behind alignReference(). */
    circuit::SyncSim &referenceSim();

  private:
    detail::GridFabricView view() const;

    size_t numRows;
    size_t numCols;
    size_t regionSideLen;
    size_t regionRows;
    size_t regionCols;
    size_t gatingGates = 0;
    bio::Alphabet alphabet;
    circuit::Netlist net;
    circuit::NetId go = circuit::kNoNet;
    util::Grid<circuit::NetId> nodeNets;
    std::vector<circuit::Bus> rowSymbols;
    std::vector<circuit::Bus> colSymbols;
    std::unique_ptr<circuit::CompiledNetlist> compiled;
    std::unique_ptr<circuit::CompiledSim> simulator;
    std::unique_ptr<circuit::SyncSim> refSim;
};

} // namespace racelogic::core

#endif // RACELOGIC_CORE_GATED_GRID_CIRCUIT_H
