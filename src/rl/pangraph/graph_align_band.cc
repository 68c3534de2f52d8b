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
    band.stride = positions + 2 * kBandPad;
    rl_assert((alpha + 4) * band.stride <= INT32_MAX,
              "the band's weights outgrow its 32-bit gather indices");
    band.weights.assign((alpha + 4) * band.stride, kBandUnfired);
    auto entry = [&](size_t row, size_t k) -> uint32_t & {
        return band.weights[row * band.stride + kBandPad + chars - k];
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

#if defined(__x86_64__)

namespace {

using core::detail::arrive;

// Compiled for AVX-512F by function attribute, as the edit-grid band
// is (rl/core/wavefront_band.cc), so the rest of the library keeps the
// baseline ISA and this code runs only where sweepLanes() found the
// instructions.
template <bool kArrivals>
__attribute__((target("avx512f"))) void
sweep(const GraphBand &shared, core::SweepTally &tally,
      uint32_t fired[kBandLanes])
{
    // A local copy, kept in registers: the vector stores below may
    // alias anything, the caller's band included.
    const GraphBand band = shared;
    const __m512i unfired = _mm512_set1_epi32(kBandUnfired);
    // The caller keeps the tally's limit below kBandUnfired.
    const __m512i limit = _mm512_set1_epi32(static_cast<int>(tally.limit));
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i down = _mm512_loadu_si512(band.down);
    __m512i gather = _mm512_loadu_si512(band.gather);

    // The last lane writes its row over the row above as lane 0 reads
    // it: lane r's state at step t is sweep index t - r, so a masked
    // store of lane r at above + t - 2r puts it in above[t - r], an
    // index lane 0 has already passed.
    const size_t last = band.lanes - 1;
    const __mmask16 lastLane = static_cast<__mmask16>(1u << last);
    uint32_t *const lastRow = band.above - 2 * last;
    const size_t ring = band.window - 1;

    __m512i prev = unfired; // each lane's chain predecessor
    __m512i diag = unfired;
    __m512i events = _mm512_setzero_si512();
    __m512i latest = _mm512_setzero_si512();
    __m512i firedCells = _mm512_setzero_si512();

    const size_t steps = band.positions + band.lanes - 1;
    for (size_t t = 0; t < steps; ++t) {
        const __m512i up = _mm512_alignr_epi32(
            prev, _mm512_set1_epi32(static_cast<int>(band.above[t])), 15);
        const __m512i deletion = _mm512_loadu_si512(band.deletion - t);
        const __m512i chainDeletion =
            _mm512_loadu_si512(band.chainDeletion - t);
        const __m512i chainGate = _mm512_loadu_si512(band.chainGate - t);
        const __m512i substitution =
            _mm512_i32gather_epi32(gather, band.weights, 4);
        gather = _mm512_sub_epi32(gather, one);

        const __m512i fromUp = _mm512_add_epi32(up, down);
        const __m512i fromDiag =
            _mm512_add_epi32(_mm512_max_epu32(diag, chainGate), substitution);
        const __m512i fromLeft = _mm512_add_epi32(prev, chainDeletion);
        arrive(fromUp, limit, events, latest);
        arrive(fromDiag, limit, events, latest);
        arrive(fromLeft, limit, events, latest);

        // Far predecessors, a group of lanes at a time: their values
        // and `up`s from one slot of the history, taken in the group's
        // lanes alone.
        __m512i best = _mm512_min_epu32(fromDiag, unfired);
        for (size_t e = band.farBegin[t]; e < band.farBegin[t + 1]; ++e) {
            const GraphBandTables::FarGroup group = band.far[e];
            const uint32_t *from = band.history + group.slot * kHistoryStride;
            const __m512i farLeft =
                _mm512_add_epi32(_mm512_load_si512(from), deletion);
            const __m512i farDiag = _mm512_add_epi32(
                _mm512_load_si512(from + kBandLanes), substitution);
            arrive(farLeft, limit, events, latest, group.lanes);
            arrive(farDiag, limit, events, latest, group.lanes);
            best = _mm512_mask_min_epu32(best, group.lanes, best,
                                         _mm512_min_epu32(farLeft, farDiag));
        }
        // The row sweep's clamp, with the chain predecessor folded in
        // last: it alone depends on the previous step.
        const __m512i v =
            _mm512_min_epu32(_mm512_min_epu32(fromUp, best), fromLeft);
        firedCells = _mm512_mask_add_epi32(
            firedCells, _mm512_cmple_epu32_mask(v, limit), firedCells, one);

        _mm512_mask_storeu_epi32(lastRow + t, lastLane, v);
        uint32_t *const slot = band.history + (t & ring) * kHistoryStride;
        _mm512_store_si512(slot, v);
        _mm512_store_si512(slot + kBandLanes, up);
        if constexpr (kArrivals)
            _mm512_storeu_si512(band.skew + t * kBandLanes, v);
        diag = up;
        prev = v;
    }
    core::detail::foldBand(events, latest, firedCells, tally, fired);
}

} // namespace

void
sweepGraphBand(const GraphBand &band, core::SweepTally &tally,
               uint32_t fired[kBandLanes])
{
    if (band.skew)
        sweep<true>(band, tally, fired);
    else
        sweep<false>(band, tally, fired);
}

#else

void
sweepGraphBand(const GraphBand &, core::SweepTally &, uint32_t *)
{
    rl_panic("the graph band needs an x86-64 host with AVX-512F");
}

#endif

} // namespace racelogic::pangraph::detail
