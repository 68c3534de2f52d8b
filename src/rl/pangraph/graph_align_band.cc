#include "rl/pangraph/graph_align_band.h"

#include <algorithm>
#include <bit>

#include "rl/util/logging.h"

namespace racelogic::pangraph::detail {

namespace {

/**
 * Each sweep index's predecessors in sweep order: whether k - 1 is one
 * (chain[k]), and the distances back of every other one, those of k in
 * distance[offsets[k]] .. distance[offsets[k+1] - 1].
 */
struct FarPredecessors {
    std::vector<uint8_t> chain;
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> distance;
};

/**
 * One width's tables: the weight rows, and the far groups of each band
 * step of kBandLanes<Lane> lanes.
 */
template <typename Lane>
GraphBandLanes<Lane>
compileLanes(const CompiledGraph &compiled, const GraphBandTables &band,
             const FarPredecessors &far, const bio::ScoreMatrix &race)
{
    constexpr size_t kLanes = kBandLanes<Lane>;
    constexpr size_t kPad = kBandPad<Lane>;
    const size_t positions = compiled.positionCount();
    const size_t chars = compiled.charCount;
    const size_t alpha = race.alphabet().size();
    GraphBandLanes<Lane> lanes;

    const size_t deletionRow = core::detail::bandDeletionRow<Lane>(alpha);
    const size_t stride = positions + 2 * kPad;
    rl_assert((deletionRow + 3) * stride <= INT32_MAX,
              "the band's weights outgrow its 32-bit gather indices");
    lanes.weights.assign((deletionRow + 3) * stride, kBandUnfired<Lane>);
    auto entry = [&](size_t row, size_t k) -> Lane & {
        return lanes.weights[row * stride + kPad + chars - k];
    };
    if constexpr (sizeof(Lane) == 2)
        std::fill_n(lanes.weights.begin(), stride, static_cast<Lane>(alpha));
    for (size_t k = 1; k < positions; ++k) {
        const CharPos q = band.order[k];
        if constexpr (sizeof(Lane) == 2) {
            entry(0, k) = compiled.symbol[q];
        } else {
            for (size_t s = 0; s < alpha; ++s)
                entry(s, k) = core::detail::bandWeight<Lane>(race.pair(
                    static_cast<bio::Symbol>(s), compiled.symbol[q]));
        }
        const Lane deletion =
            core::detail::bandWeight<Lane>(compiled.gapWeight[q]);
        entry(deletionRow, k) = deletion;
        if (far.chain[k]) {
            entry(deletionRow + 1, k) = deletion;
            entry(deletionRow + 2, k) = 0;
        }
    }

    // The far groups, step by step: lane r at step t is at sweep index
    // k = t - r, and fired its far predecessor k - d at step t - d,
    // into lane r of that step's slot; the lanes whose predecessors lie
    // d back form one group.
    const size_t steps = positions + kLanes - 1;
    using Mask = core::detail::BandMask<Lane>;
    std::vector<std::pair<uint32_t, Mask>> groups; // (d, lanes)
    lanes.farBegin.assign(steps + 1, 0);
    for (size_t t = 0; t < steps; ++t) {
        groups.clear();
        for (size_t r = 0; r < kLanes && r <= t; ++r) {
            const size_t k = t - r;
            if (k >= positions)
                continue;
            for (uint32_t e = far.offsets[k]; e < far.offsets[k + 1]; ++e) {
                const uint32_t d = far.distance[e];
                auto group = std::find_if(
                    groups.begin(), groups.end(),
                    [d](const auto &g) { return g.first == d; });
                if (group == groups.end())
                    group = groups.insert(group, {d, Mask(0)});
                group->second |= static_cast<Mask>(Mask(1) << r);
            }
        }
        for (const auto &[d, mask] : groups)
            lanes.far.push_back(
                {static_cast<uint32_t>((t - d) & (band.window - 1)), mask});
        lanes.farBegin[t + 1] = static_cast<uint32_t>(lanes.far.size());
    }
    return lanes;
}

} // namespace

GraphBandTables
compileBandTables(const CompiledGraph &compiled, const bio::ScoreMatrix &race,
                  unsigned lanes)
{
    const size_t positions = compiled.positionCount();
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

    // Each sweep index's far predecessors: every one but k - 1.  A
    // window above the longest distance keeps every slot a step reads
    // apart from the one it writes.
    FarPredecessors far;
    far.chain.assign(positions, 0);
    far.offsets.assign(positions + 1, 0);
    size_t longest = 0;
    for (size_t k = 1; k < positions; ++k) {
        const CharPos q = band.order[k];
        for (uint32_t e = compiled.predOffsets[q];
             e < compiled.predOffsets[q + 1]; ++e) {
            const uint32_t from = band.rank[compiled.pred[e]];
            rl_assert(from < k, "the sweep order must be topological");
            if (!far.chain[k] && from + 1 == k) {
                far.chain[k] = 1;
            } else {
                far.distance.push_back(static_cast<uint32_t>(k - from));
                longest = std::max(longest, k - from);
            }
        }
        far.offsets[k + 1] = static_cast<uint32_t>(far.distance.size());
    }
    band.window = std::bit_ceil(longest + 1);

    // A lane tallies at most three arrivals per step and two per far
    // predecessor of the positions it races.
    using core::detail::bandTallyFits;
    rl_assert(bandTallyFits<uint32_t>(positions + kBandLanes<uint32_t> - 1,
                                      far.distance.size()),
              "the graph outgrows the band's 32-bit tallies");
    band.wide = compileLanes<uint32_t>(compiled, band, far, race);
    if (lanes >= kBandLanes<uint16_t> && graphNarrowRaceable(compiled, race) &&
        bandTallyFits<uint16_t>(positions + kBandLanes<uint16_t> - 1,
                                far.distance.size()))
        band.narrow = compileLanes<uint16_t>(compiled, band, far, race);
    return band;
}

} // namespace racelogic::pangraph::detail
