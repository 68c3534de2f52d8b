/**
 * @file
 * Structural macro builders.
 *
 * The paper's cells are described as compositions of a few recurring
 * structures: DFF shift chains for small fixed weights, binary
 * saturating up-counters with per-weight taps for large dynamic
 * ranges (Fig. 8), set-on-arrival latches that turn tap pulses into
 * held levels, XNOR match comparators (Eq. 2), and weight-select
 * multiplexers driven by the encoded alphabet.  These helpers build
 * each structure gate-by-gate so the resulting netlists carry real
 * gate inventories for the area/energy models.
 */

#ifndef RACELOGIC_CIRCUIT_BUILDERS_H
#define RACELOGIC_CIRCUIT_BUILDERS_H

#include <cstdint>
#include <vector>

#include "rl/circuit/netlist.h"

namespace racelogic::circuit {

/** A multi-bit value as nets, least-significant bit first. */
using Bus = std::vector<NetId>;

/**
 * `cycles` DFFs in series ("shift-chained DFFs ... for the cases
 * where the edge weight is a small number").  cycles == 0 returns
 * the input net unchanged (a wire).
 */
NetId buildDelayChain(Netlist &netlist, NetId in, size_t cycles);

/** Tap every stage of a delay chain: result[k] = in delayed k cycles. */
Bus buildTappedDelayChain(Netlist &netlist, NetId in, size_t cycles);

/** Combinational (bus == value): XNOR/NOT reduction into an AND. */
NetId buildEqualsConst(Netlist &netlist, const Bus &bus, uint64_t value);

/**
 * Binary saturating up-counter (Fig. 8): counts one per cycle while
 * `enable` is high, and freezes at all-ones instead of wrapping
 * ("making sure that the counter doesn't overflow and restart").
 *
 * @return The count bus (`bits` nets, LSB first).
 */
Bus buildSaturatingCounter(Netlist &netlist, NetId enable, unsigned bits);

/**
 * Set-on-arrival circuit (Fig. 8, dotted box): output rises the same
 * cycle `set` first pulses and stays high until the simulator-level
 * reset ("reset at the end of each computation").
 */
NetId buildSetOnArrival(Netlist &netlist, NetId set);

/**
 * Multiplexer tree over `select` (LSB first) choosing among
 * `data[index]`.  Missing data slots (index >= data.size()) read as
 * constant 0.
 */
NetId buildMuxTree(Netlist &netlist, const Bus &select,
                   const std::vector<NetId> &data);

/** Primary-input bus named `prefix`0..`prefix`(bits-1). */
Bus buildInputBus(Netlist &netlist, const std::string &prefix,
                  unsigned bits);

/**
 * Symbol match comparator (Eq. 2): AND of bitwise XNORs, high iff
 * the two symbol buses carry the same code.
 */
NetId buildMatchComparator(Netlist &netlist, const Bus &a, const Bus &b);

} // namespace racelogic::circuit

#endif // RACELOGIC_CIRCUIT_BUILDERS_H
