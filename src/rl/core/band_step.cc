/**
 * @file
 * The one band step, core::detail::sweepBand() (layout in
 * rl/core/band_lanes.h), compiled for AVX-512BW inside a target region
 * -- the form of `__attribute__((target(...)))` that covers every
 * function of the file, templates included -- so the rest of the
 * library keeps the baseline ISA and the step runs only where
 * sweepLanes() found its instructions.
 */

#include <algorithm>

#include "rl/core/band_lanes.h"
#include "rl/util/logging.h"

#if defined(__x86_64__)
// GCC 12's AVX-512 intrinsics pass a self-initialised "undefined"
// vector to their masked builtins, which -Wuninitialized reports at
// every inlined call; the pragmas cover the header's lines alone.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#ifndef __clang__
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#pragma GCC diagnostic pop

// The target region opens here and closes after the step's
// instantiations.
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx512f,avx512bw"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw")
#endif

namespace racelogic::core::detail {

namespace {

/** Lane r - 1's value in lane r, and `first` in lane 0. */
inline __m512i
shiftUp(__m512i v, uint16_t first)
{
    alignas(64) static constexpr uint16_t kFrom[32] = {
        0,  0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14,
        15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30};
    return _mm512_mask_permutexvar_epi16(_mm512_set1_epi16(short(first)),
                                         ~__mmask32(1),
                                         _mm512_load_si512(kFrom), v);
}

/**
 * Count the in-edge arrivals `t` within `limit`, as SweepTally does:
 * one event per lane whose arrival is within the horizon, folded into
 * that lane's latest arrival.  Only the lanes in `lanes` have arrived.
 */
inline void
arrive(__m512i t, __m512i limit, __m512i &events, __m512i &latest,
       __mmask32 lanes = ~__mmask32(0))
{
    const __mmask32 in = _mm512_mask_cmple_epu16_mask(lanes, t, limit);
    events = _mm512_mask_add_epi16(events, in, events, _mm512_set1_epi16(1));
    latest = _mm512_mask_max_epu16(latest, in, latest, t);
}

/** The halves of `v`, widened to sixteen 32-bit lanes each. */
inline __m512i
low(__m512i v)
{
    return _mm512_cvtepu16_epi32(_mm512_castsi512_si256(v));
}

inline __m512i
high(__m512i v)
{
    return _mm512_cvtepu16_epi32(_mm512_extracti64x4_epi64(v, 1));
}

/** Add the in-lane event and fired counts to `tally` and `fired`, and
 *  clear them. */
inline void
fold(__m512i &events, __m512i &firedCells, SweepTally &tally,
     uint32_t *fired)
{
    tally.events += static_cast<uint32_t>(
        _mm512_reduce_add_epi32(_mm512_add_epi32(low(events), high(events))));
    _mm512_storeu_si512(fired, _mm512_add_epi32(_mm512_loadu_si512(fired),
                                                low(firedCells)));
    _mm512_storeu_si512(fired + 16,
                        _mm512_add_epi32(_mm512_loadu_si512(fired + 16),
                                         high(firedCells)));
    events = _mm512_setzero_si512();
    firedCells = _mm512_setzero_si512();
}

/** Indices first .. last of a row. */
struct Span {
    size_t first = 0;
    size_t last = 0;
};

/** The first and last index of `row`, K + 1 entries, below
 *  kBandUnfired: {K + 1, 0} if there is none. */
Span
liveSpan(const uint16_t *row, size_t positions)
{
    const __m512i unfired = _mm512_set1_epi16(short(kBandUnfired));
    auto liveIn = [&](size_t k) {
        const __mmask32 lanes = static_cast<__mmask32>(
            positions - k >= kBandLanes ? ~0u
                                        : (1u << (positions - k)) - 1);
        return _mm512_mask_cmplt_epu16_mask(
            lanes, _mm512_loadu_si512(row + k), unfired);
    };
    size_t first = 0;
    __mmask32 live = 0;
    for (; first < positions && !(live = liveIn(first)); first += kBandLanes)
        ;
    if (first >= positions)
        return {positions, 0};
    first += static_cast<size_t>(__builtin_ctz(live));
    size_t last = (positions - 1) & ~(kBandLanes - 1);
    while (!(live = liveIn(last)))
        last -= kBandLanes;
    return {first, last + 31 - static_cast<size_t>(__builtin_clz(live))};
}

template <bool kChain, bool kGather, bool kArrivals, bool kInhibit>
void
sweep(const Band &shared, SweepTally &tally, uint32_t fired[kBandLanes])
{
    // A local copy, kept in registers: the vector stores below may
    // alias anything, the caller's band included.
    const Band band = shared;
    const __m512i unfired = _mm512_set1_epi16(short(kBandUnfired));
    // The caller keeps the tally's limit below kBandUnfired.
    const __m512i limit = _mm512_set1_epi16(short(tally.limit));
    const __m512i one = _mm512_set1_epi16(1);
    const __m512i down = _mm512_loadu_si512(band.down);
    // The gather indices of lanes 0-15 and 16-31, which fall by one a
    // step, or the row codes, narrowed to the lanes.
    __m512i rowLow = _mm512_loadu_si512(band.row);
    __m512i rowHigh = _mm512_loadu_si512(band.row + 16);
    const __m512i rowCodes = _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm512_cvtepi32_epi16(rowLow)),
        _mm512_cvtepi32_epi16(rowHigh), 1);
    const __m512i pairsLow = _mm512_loadu_si512(band.pairs);
    const __m512i pairsHigh = _mm512_loadu_si512(band.pairs + 32);
    // The low half of every gathered 32-bit lane, lanes 0-15 from the
    // first gather and 16-31 from the second.
    alignas(64) static constexpr uint16_t kLowHalves[32] = {
        0,  2,  4,  6,  8,  10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30,
        32, 34, 36, 38, 40, 42, 44, 46, 48, 50, 52, 54, 56, 58, 60, 62};
    const __m512i lowHalves = _mm512_load_si512(kLowHalves);

    // The last lane writes its row: lane r's state at step t is sweep
    // index t - r, so a masked store of lane r at row + t - 2r puts it
    // in row[t - r], in the band's second row.
    const size_t last = band.lanes - 1;
    const auto lastLane = static_cast<__mmask32>(__mmask32(1) << last);
    uint16_t *const lastRow = band.below - 2 * last;
    // The column codes, then the deletion row; a graph's chain deletion
    // and chain gate rows follow it.  On a chain, every position's
    // predecessor is the previous one.
    const size_t stride = band.positions + 2 * kBandPad;
    const uint16_t *const codes =
        band.weights + kBandPad + band.positions - 1;
    const uint16_t *const chainDeletionRow = band.deletion + stride;
    const uint16_t *const chainGateRow = chainDeletionRow + stride;
    const size_t ring = band.window - 1;

    __m512i prev = unfired; // each lane's chain predecessor
    __m512i diag = unfired;
    __m512i events = _mm512_setzero_si512();
    __m512i latest = _mm512_setzero_si512();
    __m512i firedCells = _mm512_setzero_si512();
    std::fill_n(fired, kBandLanes, 0);

    // An inhibited race: each lane's limit is the lesser of its read
    // limit and its position's.  Lane r's state (i0 + r, t - r) can be
    // live only at an index the row above holds live, or after one, so
    // the band starts at the row above's first live index.  A step
    // reads values up to band.reach + 1 steps back -- an in-edge from
    // the row above is lane r - 1's `up`, its value a step before --
    // and lane 0 reads the row above at the same indices, so once more
    // than that many steps have gone by since the last live lane and
    // the row above's last live index, no later step can hold one.
    // The ring's slots hold no step of this band before the first, so
    // they start unfired.
    const __m512i readLimit =
        kInhibit ? _mm512_loadu_si512(band.readLimit) : limit;
    const size_t steps = band.positions + band.lanes - 1;
    size_t first = 0;
    size_t lastAbove = 0;
    size_t lastLive = 0;
    if constexpr (kInhibit) {
        const Span above = liveSpan(band.above, band.positions);
        first = std::min(above.first, steps);
        lastAbove = above.last;
        lastLive = first; // no lane is live before the first step
        if (first > 0)
            std::fill_n(band.history, band.window * kHistoryStride,
                        kBandUnfired);
    }

    // The steps run in runs that cannot wrap a lane's tallies -- a
    // chain's whole band (band_lanes.h), a graph's band.foldSteps --
    // each folded into `tally` and `fired` after it.
    size_t t = first;
    bool done = false;
    while (t < steps && !done) {
        const size_t end =
            kChain ? steps : t + std::min(steps - t, band.foldSteps);
        for (; t < end; ++t) {
            if constexpr (kInhibit) {
                if (t > std::max(lastAbove, lastLive) + band.reach + 1) {
                    done = true;
                    break;
                }
            }
            const __m512i up = shiftUp(prev, band.above[t]);
            const __m512i deletion = _mm512_loadu_si512(band.deletion - t);
            const __m512i chainDeletion =
                kChain ? deletion : _mm512_loadu_si512(chainDeletionRow - t);
            const __m512i chainDiag =
                kChain ? diag
                       : _mm512_max_epu16(diag,
                                          _mm512_loadu_si512(chainGateRow - t));
            __m512i substitution;
            if constexpr (kGather) {
                substitution = _mm512_permutex2var_epi16(
                    _mm512_i32gather_epi32(rowLow, band.weights, 2), lowHalves,
                    _mm512_i32gather_epi32(rowHigh, band.weights, 2));
                rowLow = _mm512_sub_epi32(rowLow, _mm512_set1_epi32(1));
                rowHigh = _mm512_sub_epi32(rowHigh, _mm512_set1_epi32(1));
            } else {
                substitution = _mm512_permutex2var_epi16(
                    pairsLow,
                    _mm512_add_epi16(_mm512_loadu_si512(codes - t), rowCodes),
                    pairsHigh);
            }

            __m512i within = limit;
            if constexpr (kInhibit)
                within = _mm512_min_epu16(
                    readLimit, _mm512_loadu_si512(band.inhibit - t));
            const __m512i fromUp = _mm512_add_epi16(up, down);
            const __m512i fromDiag = _mm512_add_epi16(chainDiag, substitution);
            const __m512i fromLeft = _mm512_add_epi16(prev, chainDeletion);
            __m512i best = _mm512_min_epu16(fromDiag, unfired);
            if constexpr (!kChain) {
                // Far predecessors, a group of lanes at a time: their
                // values and `up`s from one slot of the ring, taken in the
                // group's lanes alone.
                for (size_t e = band.farBegin[t]; e < band.farBegin[t + 1];
                     ++e) {
                    const BandFarGroup group = band.far[e];
                    const uint16_t *from =
                        band.history + group.slot * kHistoryStride;
                    const __m512i farLeft =
                        _mm512_add_epi16(_mm512_load_si512(from), deletion);
                    const __m512i farDiag = _mm512_add_epi16(
                        _mm512_load_si512(from + kBandLanes), substitution);
                    arrive(farLeft, within, events, latest, group.lanes);
                    arrive(farDiag, within, events, latest, group.lanes);
                    best = _mm512_mask_min_epu16(
                        best, group.lanes, best,
                        _mm512_min_epu16(farLeft, farDiag));
                }
            }
            // The row sweep's clamp, with the chain predecessor folded in
            // last: it alone depends on the previous step.
            const __m512i v =
                _mm512_min_epu16(_mm512_min_epu16(fromUp, best), fromLeft);
            arrive(fromUp, within, events, latest);
            arrive(fromDiag, within, events, latest);
            arrive(fromLeft, within, events, latest);
            const __mmask32 live = _mm512_cmple_epu16_mask(v, within);
            firedCells =
                _mm512_mask_add_epi16(firedCells, live, firedCells, one);

            // An inhibited state is stored unfired.  Its value stays in
            // the lanes and the ring: an arrival out of it is past every
            // target's limit, as the bound falls by at most the
            // smallest weight along an edge.
            __m512i kept = v;
            if constexpr (kInhibit) {
                kept = _mm512_mask_mov_epi16(unfired, live, v);
                lastLive = live ? t : lastLive;
            }
            _mm512_mask_storeu_epi16(lastRow + t, lastLane, kept);
            if constexpr (!kChain) {
                uint16_t *const slot =
                    band.history + (t & ring) * kHistoryStride;
                _mm512_store_si512(slot, v);
                _mm512_store_si512(slot + kBandLanes, up);
            }
            if constexpr (kArrivals)
                _mm512_storeu_si512(band.skew + t * kBandLanes, kept);
            diag = up;
            prev = v;
        }
        fold(events, firedCells, tally, fired);
    }
    tally.latest = std::max(
        tally.latest, sim::Tick(_mm512_reduce_max_epu32(
                          _mm512_max_epu32(low(latest), high(latest)))));
    // The last lane wrote indices first - last .. t - 1 - last of its
    // row; the rest of it is unfired too, and so is every lane of the
    // steps the band skipped.
    if constexpr (kInhibit) {
        const size_t from = std::min(first > last ? first - last : 0,
                                     band.positions);
        const size_t to = std::min(t > last ? t - last : 0, band.positions);
        std::fill(band.below, band.below + from, kBandUnfired);
        std::fill(band.below + std::max(from, to),
                  band.below + band.positions, kBandUnfired);
        if constexpr (kArrivals) {
            std::fill(band.skew, band.skew + first * kBandLanes,
                      kBandUnfired);
            std::fill(band.skew + t * kBandLanes,
                      band.skew + steps * kBandLanes, kBandUnfired);
        }
    }
}

} // namespace

void
bandLimits(const uint16_t *bounds, size_t n, uint16_t horizon,
           uint16_t limit, uint16_t *out)
{
    const __m512i h = _mm512_set1_epi16(short(horizon));
    const __m512i most = _mm512_set1_epi16(short(limit));
    for (size_t e = 0; e < n; e += kBandLanes) {
        const auto lanes = static_cast<__mmask32>(
            n - e >= kBandLanes ? ~0u : (1u << (n - e)) - 1);
        _mm512_mask_storeu_epi16(
            out + e, lanes,
            _mm512_min_epu16(most,
                             _mm512_subs_epu16(
                                 h, _mm512_maskz_loadu_epi16(lanes,
                                                             bounds + e))));
    }
}

namespace {

template <bool kChain, bool kInhibit>
void
sweepModes(const Band &band, SweepTally &tally, uint32_t fired[kBandLanes])
{
    if (band.gather) {
        if (band.skew)
            sweep<kChain, true, true, kInhibit>(band, tally, fired);
        else
            sweep<kChain, true, false, kInhibit>(band, tally, fired);
    } else if (band.skew) {
        sweep<kChain, false, true, kInhibit>(band, tally, fired);
    } else {
        sweep<kChain, false, false, kInhibit>(band, tally, fired);
    }
}

} // namespace

template <bool kChain>
void
sweepBand(const Band &band, SweepTally &tally, uint32_t fired[kBandLanes])
{
    if constexpr (!kChain) {
        if (band.inhibit)
            return sweepModes<false, true>(band, tally, fired);
    }
    sweepModes<kChain, false>(band, tally, fired);
}

} // namespace racelogic::core::detail

#else

namespace racelogic::core::detail {

template <bool kChain>
void
sweepBand(const Band &, SweepTally &, uint32_t *)
{
    rl_panic("the skewed band needs an x86-64 host with AVX-512BW");
}

void
bandLimits(const uint16_t *, size_t, uint16_t, uint16_t, uint16_t *)
{
    rl_panic("the skewed band needs an x86-64 host with AVX-512BW");
}

} // namespace racelogic::core::detail

#endif

namespace racelogic::core::detail {

template void sweepBand<true>(const Band &, SweepTally &, uint32_t *);
template void sweepBand<false>(const Band &, SweepTally &, uint32_t *);

} // namespace racelogic::core::detail

#if defined(__x86_64__)
#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif
#endif
