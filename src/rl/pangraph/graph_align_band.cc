#include "rl/pangraph/graph_align_band.h"

#include <algorithm>
#include <bit>

#include "rl/util/logging.h"

namespace racelogic::pangraph::detail {

GraphBandTables
compileBandTables(const CompiledGraph &compiled, const bio::ScoreMatrix &race)
{
    using core::detail::kBandLanes;
    using core::detail::kBandPad;
    using core::detail::kBandUnfired;
    const size_t positions = compiled.positionCount();
    const size_t chars = compiled.charCount;
    const size_t alpha = race.alphabet().size();
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

    // Each sweep index's predecessors in sweep order: whether k - 1 is
    // one (chain[k]), and the distances back of every other one, those
    // of k in distance[offsets[k]] .. distance[offsets[k+1] - 1].  A
    // window above the longest distance keeps every slot a step reads
    // apart from the one it writes.
    std::vector<uint8_t> chain(positions, 0);
    std::vector<uint32_t> offsets(positions + 1, 0);
    std::vector<uint32_t> distance;
    size_t longest = 0;
    for (size_t k = 1; k < positions; ++k) {
        const CharPos q = band.order[k];
        for (uint32_t e = compiled.predOffsets[q];
             e < compiled.predOffsets[q + 1]; ++e) {
            const uint32_t from = band.rank[compiled.pred[e]];
            rl_assert(from < k, "the sweep order must be topological");
            if (!chain[k] && from + 1 == k) {
                chain[k] = 1;
            } else {
                distance.push_back(static_cast<uint32_t>(k - from));
                longest = std::max(longest, k - from);
            }
        }
        offsets[k + 1] = static_cast<uint32_t>(distance.size());
    }
    band.window = std::bit_ceil(longest + 1);
    band.reach = std::max<size_t>(longest, 1);

    // The far groups, step by step: lane r at step t is at sweep index
    // k = t - r, and fired its far predecessor k - d at step t - d,
    // into lane r of that step's slot; the lanes whose predecessors lie
    // d back form one group.  A step racing more groups than a lane's
    // tallies take leaves the tables empty.
    const size_t steps = positions + kBandLanes - 1;
    std::vector<std::pair<uint32_t, core::detail::BandMask>> groups;
    size_t widest = 0;
    band.farBegin.assign(steps + 1, 0);
    for (size_t t = 0; t < steps; ++t) {
        groups.clear();
        for (size_t r = 0; r < kBandLanes && r <= t; ++r) {
            const size_t k = t - r;
            if (k >= positions)
                continue;
            for (uint32_t e = offsets[k]; e < offsets[k + 1]; ++e) {
                const uint32_t d = distance[e];
                auto group = std::find_if(
                    groups.begin(), groups.end(),
                    [d](const auto &g) { return g.first == d; });
                if (group == groups.end())
                    group = groups.insert(group, {d, 0});
                group->second |= core::detail::BandMask(1) << r;
            }
        }
        widest = std::max(widest, groups.size());
        if (3 + 2 * widest > UINT16_MAX)
            return GraphBandTables();
        for (const auto &[d, mask] : groups)
            band.far.push_back(
                {static_cast<uint32_t>((t - d) & (band.window - 1)), mask});
        band.farBegin[t + 1] = static_cast<uint32_t>(band.far.size());
    }
    band.foldSteps = UINT16_MAX / (3 + 2 * widest);

    // The weight rows.
    const bool gather = core::detail::bandGathers(alpha);
    const size_t deletionRow = core::detail::bandDeletionRow(alpha);
    const size_t stride = positions + 2 * kBandPad;
    if (gather && (deletionRow + 3) * stride > INT32_MAX)
        return GraphBandTables();
    band.weights.assign((deletionRow + 4) * stride, kBandUnfired);
    auto entry = [&](size_t row, size_t k) -> uint16_t & {
        return band.weights[row * stride + kBandPad + chars - k];
    };
    if (!gather)
        std::fill_n(band.weights.begin(), stride,
                    static_cast<uint16_t>(alpha));
    for (size_t k = 1; k < positions; ++k) {
        const CharPos q = band.order[k];
        if (gather) {
            for (size_t s = 0; s < alpha; ++s)
                entry(s, k) = core::detail::bandWeight(race.pair(
                    static_cast<bio::Symbol>(s), compiled.symbol[q]));
        } else {
            entry(0, k) = compiled.symbol[q];
        }
        const uint16_t deletion =
            core::detail::bandWeight(compiled.gapWeight[q]);
        entry(deletionRow, k) = deletion;
        if (chain[k]) {
            entry(deletionRow + 1, k) = deletion;
            entry(deletionRow + 2, k) = 0;
        }
    }
    const auto minWeight = static_cast<uint64_t>(race.minFinite());
    for (size_t k = 0; k < positions; ++k)
        entry(deletionRow + 3, k) = static_cast<uint16_t>(std::min<uint64_t>(
            compiled.toTerminal[band.order[k]] * minWeight, UINT16_MAX));
    return band;
}

} // namespace racelogic::pangraph::detail
