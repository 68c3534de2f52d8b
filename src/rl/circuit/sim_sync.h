/**
 * @file
 * Cycle-accurate synchronous netlist simulator with activity capture.
 *
 * This is the library's stand-in for the paper's ModelSim +
 * PrimeTime methodology: the design is simulated cycle by cycle with
 * representative input vectors while per-net toggle counts and
 * per-DFF clock deliveries are recorded; the technology model then
 * converts activity x capacitance into energy (Eq. 3).
 *
 * Timing convention: "the value at cycle k" is the settled
 * combinational value after k clock edges.  A primary input raised
 * before the first edge is visible at cycle 0; a DFF's output at
 * cycle k equals its D input at cycle k-1.  This makes a race
 * signal's arrival cycle at a net exactly equal to the path score it
 * represents.
 */

#ifndef RACELOGIC_CIRCUIT_SIM_SYNC_H
#define RACELOGIC_CIRCUIT_SIM_SYNC_H

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "rl/circuit/netlist.h"

namespace racelogic::circuit {

/**
 * Switching-activity aggregates accumulated by the gate-level
 * simulators (SyncSim here; CompiledSim in rl/circuit/compiled_sim.h
 * fills the same struct, lane-summed).  perNet is pre-sized to the
 * netlist's gate count at simulator construction and kept sized by
 * clearActivity(), so the hot counting loops never grow it.
 */
struct Activity {
    /** Clock edges simulated. */
    uint64_t cycles = 0;

    /** Total 0<->1 transitions across all nets. */
    uint64_t netToggles = 0;

    /** Net toggles broken down by driving gate type. */
    std::array<uint64_t, kGateTypeCount> togglesByType{};

    /**
     * DFF-cycles in which the clock was delivered (enable true, or
     * un-gated).  This is the C_clk activity term of Eq. 3: an
     * un-gated design accrues dffCount() per cycle regardless of
     * data.
     */
    uint64_t clockedDffCycles = 0;

    /** Per-net toggle counts (index = NetId). */
    std::vector<uint64_t> perNet;
};

/**
 * Cycle-accurate two-phase (settle, clock) netlist simulator: the
 * interpretive reference the compiled kernel is checked against, and
 * the reference path of core::raceFabricPair().
 */
class SyncSim
{
  public:
    /** Bind to a netlist (validated on construction), which must
     *  outlive the simulator. */
    explicit SyncSim(const Netlist &netlist);

    /** Drive a primary input (takes effect at the current cycle). */
    void setInput(NetId input, bool value);

    /** Drive a primary input by name. */
    void setInput(const std::string &name, bool value);

    /** Settled value of any net at the current cycle. */
    bool value(NetId net);

    /** Current cycle (number of clock edges since reset). */
    uint64_t cycle() const { return currentCycle; }

    /** Advance one clock edge (settle, capture DFFs, count activity). */
    void tick();

    /** Advance n clock edges. */
    void tickMany(uint64_t n);

    /**
     * Run until `net` settles to `expected`, at most `max_cycles`
     * edges past the current cycle.
     *
     * @return The cycle index at which the condition first held, or
     *         nullopt if it never did within the budget.
     */
    std::optional<uint64_t> runUntil(NetId net, bool expected,
                                     uint64_t max_cycles);

    /**
     * Restore all DFFs to their init values and drive all primary
     * inputs low; cycle returns to 0.  Activity is preserved so that
     * energy can accumulate across computations; see clearActivity().
     */
    void reset();

    /** Zero the activity aggregates. */
    void clearActivity();

    /** Accumulated switching activity. */
    const Activity &activity() const { return stats; }

  private:
    void settle();

    const Netlist &netlist;
    std::vector<uint8_t> values;   ///< settled net values
    std::vector<uint8_t> state;    ///< DFF outputs (post last edge)
    std::vector<NetId> dffs;       ///< ids of sequential gates
    bool dirty = true;             ///< values[] out of date
    bool counting = true;          ///< record activity during settle
    uint64_t currentCycle = 0;
    Activity stats;
};

} // namespace racelogic::circuit

#endif // RACELOGIC_CIRCUIT_SIM_SYNC_H
