#include "rl/circuit/builders.h"

#include "rl/util/bitops.h"
#include "rl/util/logging.h"
#include "rl/util/strings.h"

namespace racelogic::circuit {

NetId
buildDelayChain(Netlist &netlist, NetId in, size_t cycles)
{
    NetId net = in;
    for (size_t i = 0; i < cycles; ++i)
        net = netlist.dff(net);
    return net;
}

Bus
buildTappedDelayChain(Netlist &netlist, NetId in, size_t cycles)
{
    Bus taps;
    taps.reserve(cycles + 1);
    NetId net = in;
    taps.push_back(net);
    for (size_t i = 0; i < cycles; ++i) {
        net = netlist.dff(net);
        taps.push_back(net);
    }
    return taps;
}

NetId
buildEqualsConst(Netlist &netlist, const Bus &bus, uint64_t value)
{
    rl_assert(!bus.empty(), "empty bus");
    rl_assert(bus.size() >= 64 || value < (uint64_t(1) << bus.size()),
              "constant ", value, " does not fit in ", bus.size(),
              " bits");
    std::vector<NetId> terms;
    terms.reserve(bus.size());
    for (size_t b = 0; b < bus.size(); ++b) {
        bool bit = (value >> b) & 1;
        terms.push_back(bit ? bus[b] : netlist.notGate(bus[b]));
    }
    if (terms.size() == 1)
        return terms[0];
    return netlist.andGate(std::move(terms));
}

Bus
buildSaturatingCounter(Netlist &netlist, NetId enable, unsigned bits)
{
    rl_assert(bits >= 1 && bits <= 62, "counter width out of range");

    // State registers first (deferred D), so the increment cone can
    // reference their outputs.
    Bus count(bits);
    for (unsigned b = 0; b < bits; ++b)
        count[b] = netlist.dffDeferred(/*init=*/false);

    // Saturation detect: all ones -> freeze.
    NetId at_max = bits == 1 ? count[0]
                             : netlist.andGate(Bus(count));

    // Count while enabled and not saturated; the gated enable models
    // exactly the "enables the saturating counter" behaviour of
    // Fig. 8 and doubles as clock gating on the counter's DFFs.
    NetId advance = netlist.andGate({enable, netlist.notGate(at_max)});

    // Ripple incrementer: next = count + 1.
    NetId carry = kNoNet;
    for (unsigned b = 0; b < bits; ++b) {
        NetId next_bit;
        if (b == 0) {
            next_bit = netlist.notGate(count[0]);
            carry = count[0];
        } else {
            next_bit = netlist.xorGate(count[b], carry);
            carry = netlist.andGate({count[b], carry});
        }
        // Hold when not advancing.
        NetId d = netlist.mux(advance, count[b], next_bit);
        netlist.bindDff(count[b], d);
    }
    return count;
}

NetId
buildSetOnArrival(Netlist &netlist, NetId set)
{
    // q(t+1) = q(t) | set(t); output = q | set fires the same cycle
    // the tap pulses and holds thereafter.
    NetId q = netlist.dffDeferred(/*init=*/false);
    NetId out = netlist.orGate({q, set});
    netlist.bindDff(q, out);
    return out;
}

NetId
buildMuxTree(Netlist &netlist, const Bus &select,
             const std::vector<NetId> &data)
{
    rl_assert(!select.empty(), "empty select bus");
    size_t slots = size_t(1) << select.size();
    rl_assert(data.size() <= slots, "too many data inputs for select");

    NetId zero = kNoNet;
    auto pad = [&](size_t index) -> NetId {
        if (index < data.size())
            return data[index];
        if (zero == kNoNet)
            zero = netlist.constant(false);
        return zero;
    };

    std::vector<NetId> layer(slots);
    for (size_t i = 0; i < slots; ++i)
        layer[i] = pad(i);
    for (size_t level = 0; level < select.size(); ++level) {
        std::vector<NetId> next(layer.size() / 2);
        for (size_t i = 0; i < next.size(); ++i)
            next[i] = netlist.mux(select[level], layer[2 * i],
                                  layer[2 * i + 1]);
        layer = std::move(next);
    }
    return layer[0];
}

Bus
buildInputBus(Netlist &netlist, const std::string &prefix, unsigned bits)
{
    Bus bus(bits);
    for (unsigned b = 0; b < bits; ++b)
        bus[b] = netlist.input(util::format("%s%u", prefix.c_str(), b));
    return bus;
}

NetId
buildMatchComparator(Netlist &netlist, const Bus &a, const Bus &b)
{
    rl_assert(a.size() == b.size() && !a.empty(),
              "mismatched symbol buses");
    std::vector<NetId> eq;
    eq.reserve(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        eq.push_back(netlist.xnorGate(a[i], b[i]));
    if (eq.size() == 1)
        return eq[0];
    return netlist.andGate(std::move(eq));
}

} // namespace racelogic::circuit
