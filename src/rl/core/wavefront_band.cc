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
#endif

namespace racelogic::core::detail {

#if defined(__x86_64__)

namespace {

/**
 * Count the in-edge arrivals `t` within `limit`, as SweepTally does:
 * one event per lane whose arrival is within the horizon, folded into
 * that lane's latest arrival.  Only the lanes in `lanes` have arrived.
 */
__attribute__((target("avx512f"), always_inline)) inline void
arrive(__m512i t, __m512i limit, __m512i &events, __m512i &latest,
       __mmask16 lanes = 0xFFFF)
{
    const __mmask16 in = _mm512_mask_cmple_epu32_mask(lanes, t, limit);
    events = _mm512_mask_add_epi32(events, in, events, _mm512_set1_epi32(1));
    latest = _mm512_mask_max_epu32(latest, in, latest, t);
}

// Compiled for AVX-512F by function attribute -- the per-function form
// of `#pragma GCC target("avx512f")`, which GCC and Clang both accept
// -- so the rest of the library keeps the baseline ISA and this code
// runs only where sweepLanes() found the instructions.
template <bool kChain, bool kArrivals>
__attribute__((target("avx512f"))) void
sweep(const Band &shared, SweepTally &tally, uint32_t fired[kBandLanes])
{
    // A local copy, kept in registers: the vector stores below may
    // alias anything, the caller's band included.
    const Band band = shared;
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
    // A graph's chain deletion and chain gate rows follow its deletion
    // row; on a chain, every position's predecessor is the previous one.
    const size_t stride = band.positions + 2 * kBandPad;
    const uint32_t *const chainDeletionRow = band.deletion + stride;
    const uint32_t *const chainGateRow = chainDeletionRow + stride;
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
            kChain ? deletion : _mm512_loadu_si512(chainDeletionRow - t);
        const __m512i chainDiag =
            kChain ? diag
                   : _mm512_max_epu32(diag,
                                      _mm512_loadu_si512(chainGateRow - t));
        const __m512i substitution =
            _mm512_i32gather_epi32(gather, band.weights, 4);
        gather = _mm512_sub_epi32(gather, one);

        const __m512i fromUp = _mm512_add_epi32(up, down);
        const __m512i fromDiag = _mm512_add_epi32(chainDiag, substitution);
        const __m512i fromLeft = _mm512_add_epi32(prev, chainDeletion);
        __m512i best = _mm512_min_epu32(fromDiag, unfired);
        if constexpr (!kChain) {
            // Far predecessors, a group of lanes at a time: their
            // values and `up`s from one slot of the ring, taken in the
            // group's lanes alone.
            for (size_t e = band.farBegin[t]; e < band.farBegin[t + 1];
                 ++e) {
                const BandFarGroup group = band.far[e];
                const uint32_t *from =
                    band.history + group.slot * kHistoryStride;
                const __m512i farLeft =
                    _mm512_add_epi32(_mm512_load_si512(from), deletion);
                const __m512i farDiag = _mm512_add_epi32(
                    _mm512_load_si512(from + kBandLanes), substitution);
                arrive(farLeft, limit, events, latest, group.lanes);
                arrive(farDiag, limit, events, latest, group.lanes);
                best = _mm512_mask_min_epu32(
                    best, group.lanes, best,
                    _mm512_min_epu32(farLeft, farDiag));
            }
        }
        // The row sweep's clamp, with the chain predecessor folded in
        // last: it alone depends on the previous step.
        const __m512i v =
            _mm512_min_epu32(_mm512_min_epu32(fromUp, best), fromLeft);
        arrive(fromUp, limit, events, latest);
        arrive(fromDiag, limit, events, latest);
        arrive(fromLeft, limit, events, latest);
        firedCells = _mm512_mask_add_epi32(
            firedCells, _mm512_cmple_epu32_mask(v, limit), firedCells, one);

        _mm512_mask_storeu_epi32(lastRow + t, lastLane, v);
        if constexpr (!kChain) {
            uint32_t *const slot = band.history + (t & ring) * kHistoryStride;
            _mm512_store_si512(slot, v);
            _mm512_store_si512(slot + kBandLanes, up);
        }
        if constexpr (kArrivals)
            _mm512_storeu_si512(band.skew + t * kBandLanes, v);
        diag = up;
        prev = v;
    }

    // Widen the in-lane tallies into `tally`.
    tally.events += static_cast<uint64_t>(_mm512_reduce_add_epi64(
        _mm512_add_epi64(
            _mm512_cvtepu32_epi64(_mm512_castsi512_si256(events)),
            _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(events, 1)))));
    tally.latest = std::max(
        tally.latest, sim::Tick(_mm512_reduce_max_epu32(latest)));
    _mm512_storeu_si512(fired, firedCells);
}

} // namespace

template <bool kChain>
void
sweepBand(const Band &band, SweepTally &tally, uint32_t fired[kBandLanes])
{
    if (band.skew)
        sweep<kChain, true>(band, tally, fired);
    else
        sweep<kChain, false>(band, tally, fired);
}

#else

template <bool kChain>
void
sweepBand(const Band &, SweepTally &, uint32_t *)
{
    rl_panic("the skewed band needs an x86-64 host with AVX-512F");
}

#endif

template void sweepBand<true>(const Band &, SweepTally &, uint32_t *);
template void sweepBand<false>(const Band &, SweepTally &, uint32_t *);

} // namespace racelogic::core::detail
