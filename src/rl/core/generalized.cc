#include "rl/core/generalized.h"

#include <algorithm>
#include <set>

#include "rl/util/bitops.h"
#include "rl/util/logging.h"

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

} // namespace racelogic::core
