/**
 * @file
 * Compiled gate-level simulation kernel: levelized, event-driven,
 * 64-lane bit-parallel.
 *
 * SyncSim (rl/circuit/sim_sync.h) interprets the netlist: every
 * settle walks every gate through virtual-ish dispatch on a
 * std::vector<Gate> of heap-allocated input lists -- O(gates x
 * cycles) no matter how little actually switches.  Race-logic
 * fabrics are the worst possible customer for that loop: a thin
 * wavefront of activity crosses an otherwise frozen grid, so almost
 * every gate evaluation recomputes a value that cannot have changed.
 *
 * This kernel splits simulation into a one-time *compile* and a
 * cheap *run*:
 *
 *  - CompiledNetlist levelizes the combinational logic (level =
 *    1 + max input level; sources and DFF outputs are level 0) and
 *    lowers the netlist to struct-of-arrays form: flat gate-type and
 *    input-id arrays (CSR), a CSR fanout map from each net to its
 *    combinational consumers, and the DFFs partitioned out with
 *    their D / enable taps resolved.
 *
 *  - CompiledSim settles event-driven: only gates on the dirty
 *    frontier (fanout of nets whose value actually changed) are
 *    re-evaluated, in level order, so each settle costs
 *    O(frontier), not O(gates).  DFF clock accounting is incremental
 *    too: the number of currently-enabled DFF lanes is maintained as
 *    enable nets change, so a tick charges clockedDffCycles in O(1)
 *    plus O(DFFs whose inputs moved).
 *
 *  - Every net holds a uint64_t word: 64 independent simulations
 *    (batch comparisons, Monte-Carlo activity vectors) advance per
 *    gate evaluation.  Lane 0 reproduces SyncSim exactly; activity
 *    is captured per-word via popcount on XOR of old/new values, so
 *    the Activity aggregates of an L-lane run equal the *sum* of L
 *    independent SyncSim runs ticked in lock-step (Activity::cycles
 *    advances by L per tick) -- the Eq. 3 inputs for the whole
 *    packed batch.
 *
 * SyncSim remains the tested reference and the debug/inspection
 * path; tests/circuit_compiled_sim_test.cc checks the two
 * bit-identical (values per cycle, arrivals, every Activity field)
 * on random netlists and on the race fabrics, 1-lane and 64-lane.
 */

#ifndef RACELOGIC_CIRCUIT_COMPILED_SIM_H
#define RACELOGIC_CIRCUIT_COMPILED_SIM_H

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "rl/circuit/netlist.h"
#include "rl/circuit/sim_sync.h"

namespace racelogic::core {
struct KernelCounters; // rl/core/kernel_counters.h
}

namespace racelogic::circuit {

/**
 * The one-time compile pass: a Netlist lowered to flat arrays.
 *
 * Immutable after construction and referenced (not copied) by any
 * number of CompiledSim instances, so one synthesized fabric can be
 * raced concurrently from many threads, each with its own sim state
 * -- compile once, simulate many.  Self-contained: it copies what it
 * needs from the netlist, which may then be moved or destroyed.
 */
class CompiledNetlist
{
  public:
    explicit CompiledNetlist(const Netlist &netlist);

    size_t netCount() const { return types.size(); }
    size_t dffCount() const { return dffIds.size(); }

  private:
    friend class CompiledSim;

    std::vector<uint32_t> inputIds; ///< primary inputs (reset drives them low)

    /** @name Per-net arrays (index = NetId) @{ */
    std::vector<uint8_t> types;    ///< GateType
    std::vector<uint32_t> level;   ///< comb gates >= 1; others 0
    std::vector<uint32_t> inOff;   ///< CSR offsets into inIds
    std::vector<uint32_t> inIds;   ///< flattened gate input nets
    std::vector<uint32_t> fanOff;  ///< CSR offsets into fanIds
    std::vector<uint32_t> fanIds;  ///< combinational consumer gates
    /** @} */

    /** @name DFFs partitioned out (index = dense dff index) @{ */
    std::vector<uint32_t> dffIds;  ///< net id of each DFF
    std::vector<uint32_t> dffD;    ///< D input net
    std::vector<uint32_t> dffEn;   ///< enable net or kNoNet
    std::vector<uint8_t> dffInit;  ///< reset value
    std::vector<uint32_t> dffDFanOff, dffDFanIdx; ///< net -> dffs via D
    std::vector<uint32_t> dffEnFanOff, dffEnFanIdx; ///< net -> dffs via en
    /** @} */

    size_t levels = 1;
};

/** Per-lane arrival sentinel for CompiledSim::raceLanes. */
constexpr uint64_t kLaneNever = ~uint64_t(0);

/**
 * Event-driven bit-parallel simulator over a CompiledNetlist.
 *
 * API-compatible with SyncSim for the 1-lane case (setInput / value /
 * tick / runUntil / reset / clearActivity / activity), plus the
 * lane-parallel surface: construct with `lanes` in [1, 64], drive
 * per-lane inputs with setInputLane()/setInputWord(), and race all
 * lanes to a sink with raceLanes().
 */
class CompiledSim
{
  public:
    /** Share a prebuilt compile (the fabric-reuse hot path). */
    explicit CompiledSim(const CompiledNetlist &compiled,
                         unsigned lanes = 1);

    /** Convenience: compile privately and simulate. */
    explicit CompiledSim(const Netlist &netlist, unsigned lanes = 1);

    unsigned lanes() const { return laneCount; }

    /** Low `lanes()` bits set; all stored words stay inside it. */
    uint64_t laneMask() const { return mask; }

    /** Drive a primary input across every active lane. */
    void setInput(NetId input, bool value);

    /** Drive one lane of a primary input. */
    void setInputLane(NetId input, unsigned lane, bool value);

    /** Drive a primary input with an explicit lane word. */
    void setInputWord(NetId input, uint64_t word);

    /** Settled lane-0 value of any net at the current cycle. */
    bool value(NetId net);

    /** Settled lane word of any net at the current cycle. */
    uint64_t word(NetId net);

    /** Current cycle (number of clock edges since reset). */
    uint64_t cycle() const { return currentCycle; }

    /** Advance one clock edge (settle, capture DFFs, count). */
    void tick();

    /** Advance n clock edges. */
    void tickMany(uint64_t n);

    /**
     * Lane-0 twin of SyncSim::runUntil: run until `net` settles to
     * `expected` in lane 0, at most `max_cycles` edges past now.
     */
    std::optional<uint64_t> runUntil(NetId net, bool expected,
                                     uint64_t max_cycles);

    /**
     * Race every active lane to `net` going high: tick until all
     * lanes have fired or `max_cycles` edges pass, recording each
     * lane's first-high cycle in `arrival` (kLaneNever where the
     * lane never fired).
     *
     * `counters` (nullptr = off) accumulates this race's profiling
     * counts -- net toggles as events, clock edges as buckets, net
     * words as the scratch footprint, fired lanes, and one horizon
     * abort when any lane never fired.  It is derived from the
     * Activity aggregates after the race, so the simulated values
     * are bit-identical either way.
     *
     * @return Mask of lanes that fired.
     */
    uint64_t raceLanes(NetId net, uint64_t max_cycles,
                       std::array<uint64_t, 64> &arrival,
                       core::KernelCounters *counters = nullptr);

    /** Restore DFF init values, drive inputs low, cycle back to 0.
     *  Activity is preserved (see clearActivity), as in SyncSim. */
    void reset();

    /** Zero the activity aggregates (perNet stays pre-sized). */
    void clearActivity();

    /**
     * Accumulated switching activity, lane-summed: equals the sum of
     * the per-lane activities of `lanes()` lock-step SyncSim runs.
     */
    const Activity &activity() const { return stats; }

  private:
    /** Delegation target for the owning-Netlist constructor. */
    CompiledSim(std::unique_ptr<CompiledNetlist> compiled,
                unsigned lanes);

    void seedAllGates(); ///< queue every comb gate (initial settle)
    void settle();
    void commit(uint32_t net, uint64_t word); ///< value change + fanout
    uint64_t evalGate(uint32_t gate) const;
    void markDff(uint32_t dff_index);
    void markAllDffs();

    const CompiledNetlist *code;
    std::unique_ptr<CompiledNetlist> owned; ///< for the Netlist ctor

    unsigned laneCount;
    uint64_t mask;

    std::vector<uint64_t> values; ///< settled words (index = NetId)
    std::vector<uint64_t> state;  ///< DFF words (index = dff index)

    /** @name Dirty frontier @{ */
    std::vector<std::vector<uint32_t>> frontier; ///< per level
    std::vector<uint8_t> queued;                 ///< per net
    std::vector<uint32_t> markedDffs;            ///< capture worklist
    std::vector<uint32_t> captureList;           ///< tick() ping-pong
    std::vector<uint8_t> dffQueued;              ///< per dff index
    bool dirty = true;
    /** @} */

    /** Sum over DFFs of popcount(current enable word), maintained
     *  incrementally; a tick charges it to clockedDffCycles in O(1). */
    uint64_t enabledLanes = 0;

    bool counting = true;
    uint64_t currentCycle = 0;
    Activity stats;
};

} // namespace racelogic::circuit

#endif // RACELOGIC_CIRCUIT_COMPILED_SIM_H
