/**
 * @file
 * The one band step, core::detail::sweepBand(), over its lane type
 * (layout in rl/core/band_lanes.h).  Each lane width is compiled in
 * its own file under its own instruction set, which defines
 * RL_BAND_STEP_LANE (the lane type) and RL_BAND_STEP_ISA (the target
 * string) and includes this header: band_step_wide.cc for AVX-512F,
 * band_step_narrow.cc for AVX-512BW.  The step is defined inside a
 * target region -- the form of `__attribute__((target(...)))` that a
 * template defined once for two instruction sets can take -- so the
 * rest of the library keeps the baseline ISA and each width runs only
 * where sweepLanes() found its instructions.  Include it nowhere else.
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
// instantiations; each width's ISA string reaches the pragma through
// one more macro level, which expands it.
#define RL_BAND_PRAGMA(x) _Pragma(#x)
#if defined(__clang__)
#define RL_BAND_TARGET(isa)                                                  \
    RL_BAND_PRAGMA(clang attribute push(__attribute__((target(isa))),       \
                                        apply_to = function))
#define RL_BAND_TARGET_END RL_BAND_PRAGMA(clang attribute pop)
#else
#define RL_BAND_TARGET(isa)                                                  \
    RL_BAND_PRAGMA(GCC push_options) RL_BAND_PRAGMA(GCC target(isa))
#define RL_BAND_TARGET_END RL_BAND_PRAGMA(GCC pop_options)
#endif
RL_BAND_TARGET(RL_BAND_STEP_ISA)

namespace racelogic::core::detail {

namespace {

/** A band's vector operations on its lanes; `Mask` has a bit per lane. */
template <typename Lane>
struct LaneOps;

template <>
struct LaneOps<uint32_t> {
    using Mask = __mmask16;

    static __m512i set1(uint32_t x) { return _mm512_set1_epi32(int(x)); }
    static __m512i add(__m512i a, __m512i b) { return _mm512_add_epi32(a, b); }
    static __m512i min(__m512i a, __m512i b) { return _mm512_min_epu32(a, b); }
    static __m512i max(__m512i a, __m512i b) { return _mm512_max_epu32(a, b); }

    static Mask
    le(Mask lanes, __m512i a, __m512i b)
    {
        return _mm512_mask_cmple_epu32_mask(lanes, a, b);
    }

    static __m512i
    addIn(Mask lanes, __m512i a, __m512i b)
    {
        return _mm512_mask_add_epi32(a, lanes, a, b);
    }

    static __m512i
    maxIn(Mask lanes, __m512i a, __m512i b)
    {
        return _mm512_mask_max_epu32(a, lanes, a, b);
    }

    static __m512i
    minIn(Mask lanes, __m512i a, __m512i b)
    {
        return _mm512_mask_min_epu32(a, lanes, a, b);
    }

    static void
    storeIn(uint32_t *to, Mask lanes, __m512i v)
    {
        _mm512_mask_storeu_epi32(to, lanes, v);
    }

    /** Lane r - 1's value in lane r, and `first` in lane 0. */
    static __m512i
    shiftUp(__m512i v, uint32_t first)
    {
        return _mm512_alignr_epi32(v, set1(first), 15);
    }

    static uint64_t
    sum(__m512i v)
    {
        return static_cast<uint64_t>(_mm512_reduce_add_epi64(_mm512_add_epi64(
            _mm512_cvtepu32_epi64(_mm512_castsi512_si256(v)),
            _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(v, 1)))));
    }

    static uint32_t largest(__m512i v) { return _mm512_reduce_max_epu32(v); }

    static void
    widen(__m512i v, uint32_t *to)
    {
        _mm512_storeu_si512(to, v);
    }
};

template <>
struct LaneOps<uint16_t> {
    using Mask = __mmask32;

    static __m512i set1(uint16_t x) { return _mm512_set1_epi16(short(x)); }
    static __m512i add(__m512i a, __m512i b) { return _mm512_add_epi16(a, b); }
    static __m512i min(__m512i a, __m512i b) { return _mm512_min_epu16(a, b); }
    static __m512i max(__m512i a, __m512i b) { return _mm512_max_epu16(a, b); }

    static Mask
    le(Mask lanes, __m512i a, __m512i b)
    {
        return _mm512_mask_cmple_epu16_mask(lanes, a, b);
    }

    static __m512i
    addIn(Mask lanes, __m512i a, __m512i b)
    {
        return _mm512_mask_add_epi16(a, lanes, a, b);
    }

    static __m512i
    maxIn(Mask lanes, __m512i a, __m512i b)
    {
        return _mm512_mask_max_epu16(a, lanes, a, b);
    }

    static __m512i
    minIn(Mask lanes, __m512i a, __m512i b)
    {
        return _mm512_mask_min_epu16(a, lanes, a, b);
    }

    static void
    storeIn(uint16_t *to, Mask lanes, __m512i v)
    {
        _mm512_mask_storeu_epi16(to, lanes, v);
    }

    /** Lane r - 1's value in lane r, and `first` in lane 0. */
    static __m512i
    shiftUp(__m512i v, uint16_t first)
    {
        alignas(64) static constexpr uint16_t kFrom[32] = {
            0,  0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14,
            15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30};
        return _mm512_mask_permutexvar_epi16(
            set1(first), ~Mask(1), _mm512_load_si512(kFrom), v);
    }

    /** The halves of `v`, widened to sixteen 32-bit lanes each. */
    static __m512i
    low(__m512i v)
    {
        return _mm512_cvtepu16_epi32(_mm512_castsi512_si256(v));
    }

    static __m512i
    high(__m512i v)
    {
        return _mm512_cvtepu16_epi32(_mm512_extracti64x4_epi64(v, 1));
    }

    static uint64_t
    sum(__m512i v)
    {
        return static_cast<uint32_t>(
            _mm512_reduce_add_epi32(_mm512_add_epi32(low(v), high(v))));
    }

    static uint32_t
    largest(__m512i v)
    {
        return _mm512_reduce_max_epu32(_mm512_max_epu32(low(v), high(v)));
    }

    static void
    widen(__m512i v, uint32_t *to)
    {
        _mm512_storeu_si512(to, low(v));
        _mm512_storeu_si512(to + 16, high(v));
    }
};

/**
 * Count the in-edge arrivals `t` within `limit`, as SweepTally does:
 * one event per lane whose arrival is within the horizon, folded into
 * that lane's latest arrival.  Only the lanes in `lanes` have arrived.
 */
template <typename Lane>
inline void
arrive(__m512i t, __m512i limit, __m512i &events, __m512i &latest,
       typename LaneOps<Lane>::Mask lanes = ~typename LaneOps<Lane>::Mask(0))
{
    using Ops = LaneOps<Lane>;
    const typename Ops::Mask in = Ops::le(lanes, t, limit);
    events = Ops::addIn(in, events, Ops::set1(1));
    latest = Ops::maxIn(in, latest, t);
}

template <typename Lane, bool kChain, bool kArrivals>
void
sweep(const Band<Lane> &shared, SweepTally &tally,
      uint32_t fired[kBandLanes<Lane>])
{
    using Ops = LaneOps<Lane>;
    constexpr size_t kLanes = kBandLanes<Lane>;
    constexpr bool kNarrow = sizeof(Lane) == 2;

    // A local copy, kept in registers: the vector stores below may
    // alias anything, the caller's band included.
    const Band<Lane> band = shared;
    const __m512i unfired = Ops::set1(kBandUnfired<Lane>);
    // The caller keeps the tally's limit below kBandUnfired.
    const __m512i limit = Ops::set1(static_cast<Lane>(tally.limit));
    const __m512i one = Ops::set1(1);
    const __m512i down = _mm512_loadu_si512(band.down);
    // The wide band's gather indices, or the narrow band's row codes.
    __m512i row = _mm512_loadu_si512(band.row);
    const __m512i pairsLow = _mm512_loadu_si512(band.pairs);
    const __m512i pairsHigh = _mm512_loadu_si512(band.pairs + 32);

    // The last lane writes its row over the row above as lane 0 reads
    // it: lane r's state at step t is sweep index t - r, so a masked
    // store of lane r at above + t - 2r puts it in above[t - r], an
    // index lane 0 has already passed.
    const size_t last = band.lanes - 1;
    const auto lastLane = static_cast<typename Ops::Mask>(
        typename Ops::Mask(1) << last);
    Lane *const lastRow = band.above - 2 * last;
    // The narrow band's column codes, then the deletion row; a graph's
    // chain deletion and chain gate rows follow it.  On a chain, every
    // position's predecessor is the previous one.
    const size_t stride = band.positions + 2 * kBandPad<Lane>;
    const Lane *const codes = band.weights + kBandPad<Lane> +
                              band.positions - 1;
    const Lane *const chainDeletionRow = band.deletion + stride;
    const Lane *const chainGateRow = chainDeletionRow + stride;
    const size_t ring = band.window - 1;

    __m512i prev = unfired; // each lane's chain predecessor
    __m512i diag = unfired;
    __m512i events = _mm512_setzero_si512();
    __m512i latest = _mm512_setzero_si512();
    __m512i firedCells = _mm512_setzero_si512();

    const size_t steps = band.positions + band.lanes - 1;
    for (size_t t = 0; t < steps; ++t) {
        const __m512i up = Ops::shiftUp(prev, band.above[t]);
        const __m512i deletion = _mm512_loadu_si512(band.deletion - t);
        const __m512i chainDeletion =
            kChain ? deletion : _mm512_loadu_si512(chainDeletionRow - t);
        const __m512i chainDiag =
            kChain ? diag
                   : Ops::max(diag, _mm512_loadu_si512(chainGateRow - t));
        __m512i substitution;
        if constexpr (kNarrow) {
            substitution = _mm512_permutex2var_epi16(
                pairsLow,
                _mm512_add_epi16(_mm512_loadu_si512(codes - t), row),
                pairsHigh);
        } else {
            substitution = _mm512_i32gather_epi32(row, band.weights, 4);
            row = _mm512_sub_epi32(row, one);
        }

        const __m512i fromUp = Ops::add(up, down);
        const __m512i fromDiag = Ops::add(chainDiag, substitution);
        const __m512i fromLeft = Ops::add(prev, chainDeletion);
        __m512i best = Ops::min(fromDiag, unfired);
        if constexpr (!kChain) {
            // Far predecessors, a group of lanes at a time: their
            // values and `up`s from one slot of the ring, taken in the
            // group's lanes alone.
            for (size_t e = band.farBegin[t]; e < band.farBegin[t + 1];
                 ++e) {
                const BandFarGroup<Lane> group = band.far[e];
                const Lane *from =
                    band.history + group.slot * kHistoryStride<Lane>;
                const __m512i farLeft =
                    Ops::add(_mm512_load_si512(from), deletion);
                const __m512i farDiag = Ops::add(
                    _mm512_load_si512(from + kLanes), substitution);
                arrive<Lane>(farLeft, limit, events, latest, group.lanes);
                arrive<Lane>(farDiag, limit, events, latest, group.lanes);
                best = Ops::minIn(group.lanes, best,
                                  Ops::min(farLeft, farDiag));
            }
        }
        // The row sweep's clamp, with the chain predecessor folded in
        // last: it alone depends on the previous step.
        const __m512i v = Ops::min(Ops::min(fromUp, best), fromLeft);
        arrive<Lane>(fromUp, limit, events, latest);
        arrive<Lane>(fromDiag, limit, events, latest);
        arrive<Lane>(fromLeft, limit, events, latest);
        firedCells = Ops::addIn(Ops::le(~typename Ops::Mask(0), v, limit),
                                firedCells, one);

        Ops::storeIn(lastRow + t, lastLane, v);
        if constexpr (!kChain) {
            Lane *const slot =
                band.history + (t & ring) * kHistoryStride<Lane>;
            _mm512_store_si512(slot, v);
            _mm512_store_si512(slot + kLanes, up);
        }
        if constexpr (kArrivals)
            _mm512_storeu_si512(band.skew + t * kLanes, v);
        diag = up;
        prev = v;
    }

    // Widen the in-lane tallies into `tally`.
    tally.events += Ops::sum(events);
    tally.latest = std::max(tally.latest, sim::Tick(Ops::largest(latest)));
    Ops::widen(firedCells, fired);
}

} // namespace

template <typename Lane, bool kChain>
void
sweepBand(const Band<Lane> &band, SweepTally &tally,
          uint32_t fired[kBandLanes<Lane>])
{
    if (band.skew)
        sweep<Lane, kChain, true>(band, tally, fired);
    else
        sweep<Lane, kChain, false>(band, tally, fired);
}

template void sweepBand<RL_BAND_STEP_LANE, true>(
    const Band<RL_BAND_STEP_LANE> &, SweepTally &, uint32_t *);
template void sweepBand<RL_BAND_STEP_LANE, false>(
    const Band<RL_BAND_STEP_LANE> &, SweepTally &, uint32_t *);

} // namespace racelogic::core::detail

RL_BAND_TARGET_END

#else

namespace racelogic::core::detail {

template <typename Lane, bool kChain>
void
sweepBand(const Band<Lane> &, SweepTally &, uint32_t *)
{
    rl_panic("the skewed band needs an x86-64 host with ", RL_BAND_STEP_ISA);
}

template void sweepBand<RL_BAND_STEP_LANE, true>(
    const Band<RL_BAND_STEP_LANE> &, SweepTally &, uint32_t *);
template void sweepBand<RL_BAND_STEP_LANE, false>(
    const Band<RL_BAND_STEP_LANE> &, SweepTally &, uint32_t *);

} // namespace racelogic::core::detail

#endif
