#include "rl/pangraph/graph_align_band.h"

#include <algorithm>
#include <bit>

#include "rl/util/logging.h"

namespace racelogic::pangraph::detail {

GraphBandTables
compileBandTables(const CompiledGraph &compiled, const bio::ScoreMatrix &race)
{
    const size_t positions = compiled.positionCount();
    const size_t chars = compiled.charCount;
    GraphBandTables band;

    // The sweep order: position 0, then each segment's label in turn.
    band.order.reserve(positions);
    band.order.push_back(0);
    for (SegmentId s : compiled.segmentOrder)
        for (CharPos q = compiled.firstChar[s]; q <= compiled.lastChar[s];
             ++q)
            band.order.push_back(q);
    rl_assert(band.order.size() == positions,
              "the sweep order must visit every position once");
    band.rank.resize(positions);
    for (size_t k = 0; k < positions; ++k)
        band.rank[band.order[k]] = static_cast<uint32_t>(k);

    // The weight rows, and each sweep index's far predecessors.
    const size_t alpha = race.alphabet().size();
    const size_t deletionRow = alpha + 1;
    const size_t stride = positions + 2 * kBandPad;
    rl_assert((alpha + 4) * stride <= INT32_MAX,
              "the band's weights outgrow its 32-bit gather indices");
    band.weights.assign((alpha + 4) * stride, kBandUnfired);
    auto entry = [&](size_t row, size_t k) -> uint32_t & {
        return band.weights[row * stride + kBandPad + chars - k];
    };
    std::vector<uint32_t> farOffsets(positions + 1, 0);
    std::vector<uint32_t> farDistance;
    size_t longest = 0;
    for (size_t k = 1; k < positions; ++k) {
        const CharPos q = band.order[k];
        for (size_t s = 0; s < alpha; ++s)
            entry(s, k) = core::detail::bandWeight(
                race.pair(static_cast<bio::Symbol>(s), compiled.symbol[q]));
        const uint32_t deletion =
            core::detail::bandWeight(compiled.gapWeight[q]);
        entry(deletionRow, k) = deletion;
        bool chain = false;
        for (uint32_t e = compiled.predOffsets[q];
             e < compiled.predOffsets[q + 1]; ++e) {
            const uint32_t from = band.rank[compiled.pred[e]];
            rl_assert(from < k, "the sweep order must be topological");
            if (!chain && from + 1 == k) {
                chain = true;
                entry(deletionRow + 1, k) = deletion;
                entry(deletionRow + 2, k) = 0;
            } else {
                farDistance.push_back(static_cast<uint32_t>(k - from));
                longest = std::max(longest, k - from);
            }
        }
        farOffsets[k + 1] = static_cast<uint32_t>(farDistance.size());
    }

    // The far groups, step by step: lane r at step t is at sweep index
    // k = t - r, and fired its far predecessor k - d at step t - d,
    // into lane r of that step's slot; the lanes whose predecessors lie
    // d back form one group.  A window above the longest distance keeps
    // every slot a step reads apart from the one it writes.
    band.window = std::bit_ceil(longest + 1);
    const size_t steps = positions + kBandLanes - 1;
    std::vector<std::pair<uint32_t, uint16_t>> groups; // (d, lanes)
    band.farBegin.assign(steps + 1, 0);
    for (size_t t = 0; t < steps; ++t) {
        groups.clear();
        for (size_t r = 0; r < kBandLanes && r <= t; ++r) {
            const size_t k = t - r;
            if (k >= positions)
                continue;
            for (uint32_t e = farOffsets[k]; e < farOffsets[k + 1]; ++e) {
                const uint32_t d = farDistance[e];
                auto group = std::find_if(
                    groups.begin(), groups.end(),
                    [d](const auto &g) { return g.first == d; });
                if (group == groups.end())
                    group = groups.insert(group, {d, uint16_t(0)});
                group->second |= static_cast<uint16_t>(1u << r);
            }
        }
        for (const auto &[d, lanes] : groups)
            band.far.push_back(
                {static_cast<uint32_t>((t - d) & (band.window - 1)), lanes});
        band.farBegin[t + 1] = static_cast<uint32_t>(band.far.size());
    }
    // A lane tallies at most three arrivals per step and two per far
    // group, in 32 bits.
    rl_assert(3 * steps + 2 * band.far.size() <= UINT32_MAX,
              "the graph outgrows the band's 32-bit tallies");
    return band;
}

} // namespace racelogic::pangraph::detail
