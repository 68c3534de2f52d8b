#include "rl/circuit/compiled_sim.h"

#include <algorithm>
#include <bit>

#include "rl/core/kernel_counters.h"
#include "rl/util/logging.h"

namespace racelogic::circuit {

namespace {

/** True for gates evaluated in the combinational settle. */
bool
isCombinational(GateType type)
{
    return !isSourceGate(type) && !isSequential(type);
}

} // namespace

CompiledNetlist::CompiledNetlist(const Netlist &netlist)
    : inputIds(netlist.inputs().begin(), netlist.inputs().end())
{
    netlist.validate();
    const size_t n = netlist.gateCount();
    types.resize(n);
    level.assign(n, 0);
    inOff.assign(n + 1, 0);

    size_t total_inputs = 0;
    for (NetId id = 0; id < n; ++id) {
        const Gate &g = netlist.gate(id);
        types[id] = static_cast<uint8_t>(g.type);
        total_inputs += g.inputs.size();
    }
    inIds.reserve(total_inputs);
    for (NetId id = 0; id < n; ++id) {
        inOff[id] = static_cast<uint32_t>(inIds.size());
        for (NetId in : netlist.gate(id).inputs)
            inIds.push_back(in);
    }
    inOff[n] = static_cast<uint32_t>(inIds.size());

    // Levelize along the (validated, acyclic) combinational order.
    for (NetId id : netlist.combOrder()) {
        const Gate &g = netlist.gate(id);
        if (!isCombinational(g.type))
            continue;
        uint32_t lvl = 1;
        for (NetId in : g.inputs)
            lvl = std::max(lvl, level[in] + 1);
        level[id] = lvl;
        levels = std::max(levels, static_cast<size_t>(lvl) + 1);
    }

    // CSR fanout: net -> combinational consumers.
    std::vector<uint32_t> counts(n, 0);
    for (NetId id = 0; id < n; ++id)
        if (isCombinational(netlist.gate(id).type))
            for (NetId in : netlist.gate(id).inputs)
                ++counts[in];
    fanOff.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i)
        fanOff[i + 1] = fanOff[i] + counts[i];
    fanIds.resize(fanOff[n]);
    std::vector<uint32_t> cursor(fanOff.begin(), fanOff.end() - 1);
    for (NetId id = 0; id < n; ++id)
        if (isCombinational(netlist.gate(id).type))
            for (NetId in : netlist.gate(id).inputs)
                fanIds[cursor[in]++] = id;

    // DFFs partitioned out, with net -> dff-consumer CSRs for the D
    // and enable taps (the event-driven capture worklist feeds).
    std::vector<uint32_t> d_counts(n, 0), en_counts(n, 0);
    for (NetId id = 0; id < n; ++id) {
        const Gate &g = netlist.gate(id);
        if (g.type != GateType::Dff)
            continue;
        dffIds.push_back(id);
        dffD.push_back(g.inputs[0]);
        uint32_t en = g.inputs.size() > 1 ? g.inputs[1] : kNoNet;
        dffEn.push_back(en);
        dffInit.push_back(g.init);
        ++d_counts[g.inputs[0]];
        if (en != kNoNet)
            ++en_counts[en];
    }
    dffDFanOff.assign(n + 1, 0);
    dffEnFanOff.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i) {
        dffDFanOff[i + 1] = dffDFanOff[i] + d_counts[i];
        dffEnFanOff[i + 1] = dffEnFanOff[i] + en_counts[i];
    }
    dffDFanIdx.resize(dffDFanOff[n]);
    dffEnFanIdx.resize(dffEnFanOff[n]);
    std::vector<uint32_t> d_cur(dffDFanOff.begin(), dffDFanOff.end() - 1);
    std::vector<uint32_t> en_cur(dffEnFanOff.begin(),
                                 dffEnFanOff.end() - 1);
    for (uint32_t i = 0; i < dffIds.size(); ++i) {
        dffDFanIdx[d_cur[dffD[i]]++] = i;
        if (dffEn[i] != kNoNet)
            dffEnFanIdx[en_cur[dffEn[i]]++] = i;
    }
}

CompiledSim::CompiledSim(const CompiledNetlist &compiled, unsigned lanes)
    : code(&compiled), laneCount(lanes)
{
    rl_assert(lanes >= 1 && lanes <= 64,
              "CompiledSim packs 1..64 lanes per word (got ", lanes, ")");
    mask = lanes == 64 ? ~uint64_t(0) : (uint64_t(1) << lanes) - 1;

    const size_t n = code->netCount();
    values.assign(n, 0);
    queued.assign(n, 0);
    frontier.resize(code->levels);
    stats.perNet.assign(n, 0);

    const size_t dffs = code->dffCount();
    state.resize(dffs);
    dffQueued.assign(dffs, 0);
    for (size_t i = 0; i < dffs; ++i) {
        state[i] = code->dffInit[i] ? mask : 0;
        if (code->dffEn[i] == kNoNet)
            enabledLanes += laneCount; // un-gated: clocked every edge
    }

    // Initial silent settle: every combinational gate is evaluated
    // once (values start all-zero, which is not the fixed point --
    // inverting gates output 1s), constants and DFF outputs are
    // reflected, and enable-net commits establish enabledLanes.
    counting = false;
    for (NetId id = 0; id < n; ++id)
        if (static_cast<GateType>(code->types[id]) == GateType::Const1)
            commit(id, mask);
    for (size_t i = 0; i < dffs; ++i)
        commit(code->dffIds[i], state[i]);
    seedAllGates();
    settle();
    counting = true;
    markAllDffs();
}

CompiledSim::CompiledSim(std::unique_ptr<CompiledNetlist> compiled,
                         unsigned lanes)
    : CompiledSim(*compiled, lanes)
{
    owned = std::move(compiled);
}

CompiledSim::CompiledSim(const Netlist &netlist, unsigned lanes)
    : CompiledSim(std::make_unique<CompiledNetlist>(netlist), lanes)
{}

void
CompiledSim::seedAllGates()
{
    for (uint32_t id = 0; id < code->netCount(); ++id) {
        if (!isCombinational(static_cast<GateType>(code->types[id])))
            continue;
        if (!queued[id]) {
            queued[id] = 1;
            frontier[code->level[id]].push_back(id);
        }
    }
    dirty = true;
}

uint64_t
CompiledSim::evalGate(uint32_t gate) const
{
    const uint32_t begin = code->inOff[gate];
    const uint32_t end = code->inOff[gate + 1];
    const uint32_t *in = code->inIds.data();
    switch (static_cast<GateType>(code->types[gate])) {
      case GateType::Buf:
        return values[in[begin]];
      case GateType::Not:
        return ~values[in[begin]] & mask;
      case GateType::And: {
        uint64_t acc = mask;
        for (uint32_t e = begin; e < end; ++e)
            acc &= values[in[e]];
        return acc;
      }
      case GateType::Or: {
        uint64_t acc = 0;
        for (uint32_t e = begin; e < end; ++e)
            acc |= values[in[e]];
        return acc;
      }
      case GateType::Nand: {
        uint64_t acc = mask;
        for (uint32_t e = begin; e < end; ++e)
            acc &= values[in[e]];
        return ~acc & mask;
      }
      case GateType::Nor: {
        uint64_t acc = 0;
        for (uint32_t e = begin; e < end; ++e)
            acc |= values[in[e]];
        return ~acc & mask;
      }
      case GateType::Xor:
        return values[in[begin]] ^ values[in[begin + 1]];
      case GateType::Xnor:
        return ~(values[in[begin]] ^ values[in[begin + 1]]) & mask;
      case GateType::Mux: {
        uint64_t sel = values[in[begin]];
        return (sel & values[in[begin + 2]]) |
               (~sel & values[in[begin + 1]]);
      }
      default:
        rl_panic("non-combinational gate on the settle frontier");
    }
    return 0;
}

void
CompiledSim::markDff(uint32_t dff_index)
{
    if (!dffQueued[dff_index]) {
        dffQueued[dff_index] = 1;
        markedDffs.push_back(dff_index);
    }
}

void
CompiledSim::markAllDffs()
{
    for (uint32_t i = 0; i < code->dffCount(); ++i)
        markDff(i);
}

void
CompiledSim::commit(uint32_t net, uint64_t word)
{
    const uint64_t old = values[net];
    const uint64_t diff = old ^ word;
    if (!diff)
        return;
    if (counting) {
        const auto toggles =
            static_cast<uint64_t>(std::popcount(diff));
        stats.netToggles += toggles;
        stats.togglesByType[code->types[net]] += toggles;
        rl_dassert(net < stats.perNet.size(),
                   "perNet not pre-sized for net ", net);
        stats.perNet[net] += toggles;
    }
    values[net] = word;

    for (uint32_t e = code->fanOff[net]; e < code->fanOff[net + 1];
         ++e) {
        const uint32_t consumer = code->fanIds[e];
        if (!queued[consumer]) {
            queued[consumer] = 1;
            frontier[code->level[consumer]].push_back(consumer);
            dirty = true;
        }
    }
    for (uint32_t e = code->dffDFanOff[net];
         e < code->dffDFanOff[net + 1]; ++e)
        markDff(code->dffDFanIdx[e]);
    for (uint32_t e = code->dffEnFanOff[net];
         e < code->dffEnFanOff[net + 1]; ++e) {
        enabledLanes += static_cast<uint64_t>(std::popcount(word)) -
                        static_cast<uint64_t>(std::popcount(old));
        markDff(code->dffEnFanIdx[e]);
    }
}

void
CompiledSim::settle()
{
    // Levels ascend and a gate's consumers sit strictly higher, so
    // each frontier gate is evaluated exactly once per settle.
    for (size_t lvl = 1; lvl < frontier.size(); ++lvl) {
        std::vector<uint32_t> &queue = frontier[lvl];
        for (size_t i = 0; i < queue.size(); ++i) {
            const uint32_t gate = queue[i];
            queued[gate] = 0;
            commit(gate, evalGate(gate));
        }
        queue.clear();
    }
    dirty = false;
}

void
CompiledSim::setInput(NetId input, bool value_in)
{
    setInputWord(input, value_in ? mask : 0);
}

void
CompiledSim::setInputLane(NetId input, unsigned lane, bool value_in)
{
    rl_assert(lane < laneCount, "lane ", lane, " outside the ",
              laneCount, " active lanes");
    const uint64_t bit = uint64_t(1) << lane;
    setInputWord(input,
                 value_in ? values[input] | bit : values[input] & ~bit);
}

void
CompiledSim::setInputWord(NetId input, uint64_t word)
{
    rl_assert(static_cast<GateType>(code->types[input]) ==
                  GateType::Input,
              "net ", input, " is not a primary input");
    commit(input, word & mask);
}

bool
CompiledSim::value(NetId net)
{
    return word(net) & 1;
}

uint64_t
CompiledSim::word(NetId net)
{
    rl_assert(net < values.size(), "net out of range");
    if (dirty)
        settle();
    return values[net];
}

void
CompiledSim::tick()
{
    if (dirty)
        settle();

    // Clock edge.  Every enabled DFF lane is charged (Eq. 3's C_clk
    // term) in O(1) via the incrementally maintained total; only
    // DFFs whose D or enable moved since their last capture do work.
    stats.clockedDffCycles += enabledLanes;

    // Ping-pong with the spare buffer: marks made during the capture
    // (phase-2 commits re-mark downstream DFFs every cycle while the
    // wavefront moves) land in the other vector, and both keep their
    // capacity -- steady state allocates nothing.
    std::swap(captureList, markedDffs);
    // Phase 1: capture from the settled pre-edge values only.
    for (uint32_t idx : captureList) {
        dffQueued[idx] = 0;
        const uint32_t en = code->dffEn[idx];
        const uint64_t e = en == kNoNet ? mask : values[en];
        state[idx] =
            (state[idx] & ~e) | (values[code->dffD[idx]] & e);
    }
    // Phase 2: reflect the new state into the value view.
    for (uint32_t idx : captureList)
        commit(code->dffIds[idx], state[idx]);
    captureList.clear();

    ++currentCycle;
    stats.cycles += laneCount;
    if (dirty)
        settle();
}

void
CompiledSim::tickMany(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        tick();
}

std::optional<uint64_t>
CompiledSim::runUntil(NetId net, bool expected, uint64_t max_cycles)
{
    if (value(net) == expected)
        return currentCycle;
    for (uint64_t i = 0; i < max_cycles; ++i) {
        tick();
        if (value(net) == expected)
            return currentCycle;
    }
    return std::nullopt;
}

uint64_t
CompiledSim::raceLanes(NetId net, uint64_t max_cycles,
                       std::array<uint64_t, 64> &arrival,
                       core::KernelCounters *counters)
{
    const uint64_t togglesBefore = stats.netToggles;
    const uint64_t cycleBefore = currentCycle;
    arrival.fill(kLaneNever);
    uint64_t fired = word(net) & mask;
    for (uint64_t bits = fired; bits;) {
        const int lane = std::countr_zero(bits);
        arrival[lane] = currentCycle;
        bits &= bits - 1;
    }
    for (uint64_t i = 0; i < max_cycles && fired != mask; ++i) {
        tick();
        uint64_t newly = (word(net) & mask) & ~fired;
        fired |= newly;
        while (newly) {
            const int lane = std::countr_zero(newly);
            arrival[lane] = currentCycle;
            newly &= newly - 1;
        }
    }
    // Profiling export, derived from the Activity aggregates the run
    // tracks anyway: a null `counters` costs nothing and a non-null
    // one cannot change the simulated values.
    if (counters) {
        counters->events += stats.netToggles - togglesBefore;
        counters->bucketsDrained += currentCycle - cycleBefore;
        counters->scratchHighWater =
            std::max(counters->scratchHighWater,
                     static_cast<uint64_t>(code->netCount()));
        counters->lanesOccupied +=
            static_cast<uint64_t>(std::popcount(fired));
        if (fired != mask)
            ++counters->horizonAborts;
    }
    return fired;
}

void
CompiledSim::reset()
{
    // Like SyncSim::reset: silent (reset energy is amortized outside
    // the measured loop), activity preserved.
    counting = false;
    for (uint32_t in : code->inputIds)
        commit(in, 0);
    for (size_t i = 0; i < code->dffCount(); ++i) {
        state[i] = code->dffInit[i] ? mask : 0;
        commit(code->dffIds[i], state[i]);
    }
    if (dirty)
        settle();
    counting = true;
    currentCycle = 0;
    markAllDffs();
}

void
CompiledSim::clearActivity()
{
    stats = Activity{};
    stats.perNet.assign(values.size(), 0);
}

} // namespace racelogic::circuit
