#include "rl/core/generalized.h"

#include <algorithm>
#include <set>

#include "rl/util/bitops.h"
#include "rl/util/logging.h"
#include "rl/util/strings.h"

namespace racelogic::core {

GeneralizedCellSpec
GeneralizedCellSpec::fromMatrix(const bio::ScoreMatrix &costs)
{
    rl_assert(costs.isCost(), "generalized cells race cost matrices");
    GeneralizedCellSpec spec;
    spec.dynamicRange = costs.dynamicRange();
    spec.counterBits = util::bitsForValue(
        static_cast<uint64_t>(spec.dynamicRange));
    spec.symbolBits = std::max(1u, costs.alphabet().bitsPerSymbol());
    spec.hasForbiddenPairs = costs.hasForbiddenPairs();

    std::set<bio::Score> pair_weights;
    std::set<bio::Score> gap_weights;
    const bio::Alphabet &alphabet = costs.alphabet();
    for (bio::Symbol a = 0; a < alphabet.size(); ++a) {
        gap_weights.insert(costs.gap(a));
        for (bio::Symbol b = 0; b < alphabet.size(); ++b)
            if (costs.pair(a, b) != bio::kScoreInfinity)
                pair_weights.insert(costs.pair(a, b));
    }
    spec.distinctPairWeights.assign(pair_weights.begin(),
                                    pair_weights.end());
    spec.distinctGapWeights.assign(gap_weights.begin(),
                                   gap_weights.end());
    return spec;
}

circuit::NetId
buildWeightApplicator(circuit::Netlist &netlist, circuit::NetId pred,
                      const circuit::Bus &select,
                      const std::vector<bio::Score> &weight_by_index,
                      const GeneralizedCellSpec &spec,
                      DelayEncoding encoding)
{
    const size_t slots = size_t(1) << select.size();
    rl_assert(weight_by_index.size() <= slots,
              "more weights than select codes");

    if (encoding == DelayEncoding::OneHot) {
        // Tapped DFF chain: tap w is pred delayed w cycles, and a
        // step input keeps every passed tap high, so no latch is
        // needed.
        circuit::Bus taps = circuit::buildTappedDelayChain(
            netlist, pred, static_cast<size_t>(spec.dynamicRange));
        circuit::NetId never = netlist.constant(false);
        std::vector<circuit::NetId> data(weight_by_index.size(), never);
        for (size_t idx = 0; idx < weight_by_index.size(); ++idx) {
            bio::Score w = weight_by_index[idx];
            if (w == bio::kScoreInfinity)
                continue;
            rl_assert(w >= 1 && w <= spec.dynamicRange,
                      "weight ", w, " outside dynamic range");
            data[idx] = taps[static_cast<size_t>(w)];
        }
        return circuit::buildMuxTree(netlist, select, data);
    }

    // Binary saturating counter + per-weight equality taps +
    // set-on-arrival (the literal Fig. 8 structure).
    circuit::Bus count = circuit::buildSaturatingCounter(
        netlist, pred, spec.counterBits);
    std::vector<std::pair<bio::Score, circuit::NetId>> taps;
    circuit::NetId never = netlist.constant(false);
    std::vector<circuit::NetId> data(weight_by_index.size(), never);
    for (size_t idx = 0; idx < weight_by_index.size(); ++idx) {
        bio::Score w = weight_by_index[idx];
        if (w == bio::kScoreInfinity)
            continue;
        rl_assert(w >= 1 && w <= spec.dynamicRange,
                  "weight ", w, " outside dynamic range");
        circuit::NetId tap = circuit::kNoNet;
        for (const auto &[tw, tnet] : taps)
            if (tw == w)
                tap = tnet;
        if (tap == circuit::kNoNet) {
            tap = circuit::buildEqualsConst(
                netlist, count, static_cast<uint64_t>(w));
            taps.emplace_back(w, tap);
        }
        data[idx] = tap;
    }
    circuit::NetId selected = circuit::buildMuxTree(netlist, select, data);
    return circuit::buildSetOnArrival(netlist, selected);
}

GeneralizedGridCircuit::GeneralizedGridCircuit(bio::ScoreMatrix costs_in,
                                               size_t rows, size_t cols,
                                               DelayEncoding encoding_in)
    : costs(std::move(costs_in)),
      cellSpec(GeneralizedCellSpec::fromMatrix(costs)),
      encoding(encoding_in), numRows(rows), numCols(cols),
      nodeNets(rows + 1, cols + 1, circuit::kNoNet)
{
    rl_assert(rows >= 1 && cols >= 1, "grid needs at least one cell");
    const bio::Alphabet &alphabet = costs.alphabet();
    const unsigned bits = cellSpec.symbolBits;

    go = net.input("go");
    for (size_t i = 0; i < rows; ++i)
        rowSymbols.push_back(circuit::buildInputBus(
            net, util::format("a%zu_", i), bits));
    for (size_t j = 0; j < cols; ++j)
        colSymbols.push_back(circuit::buildInputBus(
            net, util::format("b%zu_", j), bits));

    // Per-symbol gap weight table, indexed by symbol code.
    std::vector<bio::Score> gap_by_symbol(size_t(1) << bits,
                                          bio::kScoreInfinity);
    for (bio::Symbol s = 0; s < alphabet.size(); ++s)
        gap_by_symbol[s] = costs.gap(s);

    // Pair weight table indexed by a + (b << bits).
    std::vector<bio::Score> pair_by_code(size_t(1) << (2 * bits),
                                         bio::kScoreInfinity);
    for (bio::Symbol a = 0; a < alphabet.size(); ++a)
        for (bio::Symbol b = 0; b < alphabet.size(); ++b)
            pair_by_code[a + (size_t(b) << bits)] = costs.pair(a, b);

    // Boundary chains apply the symbol-dependent gap weights.
    nodeNets.at(0, 0) = go;
    for (size_t j = 1; j <= cols; ++j)
        nodeNets.at(0, j) = buildEdge(nodeNets.at(0, j - 1),
                                      colSymbols[j - 1], gap_by_symbol,
                                      encoding);
    for (size_t i = 1; i <= rows; ++i)
        nodeNets.at(i, 0) = buildEdge(nodeNets.at(i - 1, 0),
                                      rowSymbols[i - 1], gap_by_symbol,
                                      encoding);

    for (size_t i = 1; i <= rows; ++i) {
        for (size_t j = 1; j <= cols; ++j) {
            circuit::NetId top = buildEdge(nodeNets.at(i - 1, j),
                                           rowSymbols[i - 1],
                                           gap_by_symbol, encoding);
            circuit::NetId left = buildEdge(nodeNets.at(i, j - 1),
                                            colSymbols[j - 1],
                                            gap_by_symbol, encoding);
            circuit::Bus pair_select = rowSymbols[i - 1];
            pair_select.insert(pair_select.end(),
                               colSymbols[j - 1].begin(),
                               colSymbols[j - 1].end());
            circuit::NetId diag = buildEdge(nodeNets.at(i - 1, j - 1),
                                            pair_select, pair_by_code,
                                            encoding);
            nodeNets.at(i, j) = net.orGate({top, left, diag});
        }
    }

    net.validate();
    compiled = std::make_unique<circuit::CompiledNetlist>(net);
    simulator = std::make_unique<circuit::CompiledSim>(*compiled);
}

circuit::NetId
GeneralizedGridCircuit::buildEdge(circuit::NetId pred,
                                  const circuit::Bus &sel,
                                  const std::vector<bio::Score> &weights,
                                  DelayEncoding enc)
{
    return buildWeightApplicator(net, pred, sel, weights, cellSpec, enc);
}

detail::GridFabricView
GeneralizedGridCircuit::view() const
{
    detail::GridFabricView v;
    v.compiled = compiled.get();
    v.go = go;
    v.sink = nodeNets.at(numRows, numCols);
    v.rowSymbols = &rowSymbols;
    v.colSymbols = &colSymbols;
    v.symbolBits = cellSpec.symbolBits;
    v.alphabet = &costs.alphabet();
    v.rows = numRows;
    v.cols = numCols;
    return v;
}

uint64_t
GeneralizedGridCircuit::defaultBudget() const
{
    return (numRows + numCols) *
               static_cast<uint64_t>(cellSpec.dynamicRange) +
           2;
}

CircuitRunResult
GeneralizedGridCircuit::align(const bio::Sequence &a,
                              const bio::Sequence &b,
                              uint64_t max_cycles)
{
    if (max_cycles == 0)
        max_cycles = defaultBudget();
    return detail::raceFabricPair(*simulator, view(), a, b, max_cycles);
}

LaneBatchResult
GeneralizedGridCircuit::alignLanes(const std::vector<LanePair> &lanes,
                                   uint64_t max_cycles,
                                   KernelCounters *counters) const
{
    if (max_cycles == 0)
        max_cycles = defaultBudget();
    return detail::raceFabricLanes(view(), lanes, max_cycles, counters);
}

CircuitRunResult
GeneralizedGridCircuit::alignReference(const bio::Sequence &a,
                                       const bio::Sequence &b,
                                       uint64_t max_cycles)
{
    if (max_cycles == 0)
        max_cycles = defaultBudget();
    return detail::raceFabricPair(referenceSim(), view(), a, b,
                                  max_cycles);
}

circuit::SyncSim &
GeneralizedGridCircuit::referenceSim()
{
    if (!refSim)
        refSim = std::make_unique<circuit::SyncSim>(net);
    return *refSim;
}

std::array<size_t, circuit::kGateTypeCount>
GeneralizedGridCircuit::cellInventory(const bio::ScoreMatrix &costs,
                                      DelayEncoding encoding)
{
    GeneralizedCellSpec spec = GeneralizedCellSpec::fromMatrix(costs);
    const unsigned bits = spec.symbolBits;
    circuit::Netlist scratch;
    circuit::NetId pred = scratch.input("pred");
    circuit::Bus sym_a = circuit::buildInputBus(scratch, "a", bits);
    circuit::Bus sym_b = circuit::buildInputBus(scratch, "b", bits);

    const bio::Alphabet &alphabet = costs.alphabet();
    std::vector<bio::Score> gap_by_symbol(size_t(1) << bits,
                                          bio::kScoreInfinity);
    for (bio::Symbol s = 0; s < alphabet.size(); ++s)
        gap_by_symbol[s] = costs.gap(s);
    std::vector<bio::Score> pair_by_code(size_t(1) << (2 * bits),
                                         bio::kScoreInfinity);
    for (bio::Symbol a = 0; a < alphabet.size(); ++a)
        for (bio::Symbol b = 0; b < alphabet.size(); ++b)
            pair_by_code[a + (size_t(b) << bits)] = costs.pair(a, b);

    // One cell = two gap applicators + one pair applicator + OR3.
    circuit::NetId top = buildWeightApplicator(scratch, pred, sym_a,
                                               gap_by_symbol, spec,
                                               encoding);
    circuit::NetId left = buildWeightApplicator(scratch, pred, sym_b,
                                                gap_by_symbol, spec,
                                                encoding);
    circuit::Bus pair_sel = sym_a;
    pair_sel.insert(pair_sel.end(), sym_b.begin(), sym_b.end());
    circuit::NetId diag = buildWeightApplicator(scratch, pred, pair_sel,
                                                pair_by_code, spec,
                                                encoding);
    scratch.orGate({top, left, diag});

    auto counts = scratch.typeCounts();
    // Inputs are shared fabric wiring, not per-cell hardware.
    counts[static_cast<size_t>(circuit::GateType::Input)] = 0;
    return counts;
}

} // namespace racelogic::core
