#include "rl/core/wavefront_band.h"
#include "rl/util/logging.h"

namespace racelogic::core::detail {

#if defined(__x86_64__)

namespace {

// Compiled for AVX-512F by function attribute -- the per-function form
// of `#pragma GCC target("avx512f")`, which GCC and Clang both accept
// -- so the rest of the library keeps the baseline ISA and this code
// runs only where sweepLanes() found the instructions.
template <bool kArrivals>
__attribute__((target("avx512f"))) void
sweep(const EditGridBand &shared, SweepTally &tally,
      uint32_t fired[kBandLanes])
{
    // A local copy, kept in registers: the vector stores below may
    // alias anything, the caller's band included.
    const EditGridBand band = shared;
    const __m512i unfired = _mm512_set1_epi32(kBandUnfired);
    // The caller keeps the tally's limit below kBandUnfired.
    const __m512i limit = _mm512_set1_epi32(static_cast<int>(tally.limit));
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i down = _mm512_loadu_si512(band.down);
    __m512i gather = _mm512_loadu_si512(band.gather);

    // The last lane writes its row over the row above as lane 0 reads
    // it: lane r's cell at step t is column t - r, so a masked store of
    // lane r at above + t - 2r puts it in above[t - r], a column lane 0
    // has already passed.
    const size_t last = band.lanes - 1;
    const __mmask16 lastLane = static_cast<__mmask16>(1u << last);
    uint32_t *const lastRow = band.above - 2 * last;

    __m512i prev = unfired; // each lane's left neighbour
    __m512i diag = unfired;
    __m512i events = _mm512_setzero_si512();
    __m512i latest = _mm512_setzero_si512();
    __m512i firedCells = _mm512_setzero_si512();

    const size_t steps = band.cols + band.lanes;
    for (size_t t = 0; t < steps; ++t) {
        const __m512i up = _mm512_alignr_epi32(
            prev, _mm512_set1_epi32(static_cast<int>(band.above[t])), 15);
        const __m512i horizontal = _mm512_loadu_si512(band.horizontal - t);
        const __m512i diagonal =
            _mm512_i32gather_epi32(gather, band.profile, 4);
        gather = _mm512_sub_epi32(gather, one);

        const __m512i fromUp = _mm512_add_epi32(up, down);
        const __m512i fromDiag = _mm512_add_epi32(diag, diagonal);
        const __m512i fromLeft = _mm512_add_epi32(prev, horizontal);
        // The row sweep's clamp, with the left neighbour folded in
        // last: it alone depends on the previous step.
        const __m512i v = _mm512_min_epu32(
            _mm512_min_epu32(fromUp, _mm512_min_epu32(fromDiag, unfired)),
            fromLeft);

        arrive(fromUp, limit, events, latest);
        arrive(fromDiag, limit, events, latest);
        arrive(fromLeft, limit, events, latest);
        firedCells = _mm512_mask_add_epi32(
            firedCells, _mm512_cmple_epu32_mask(v, limit), firedCells, one);

        _mm512_mask_storeu_epi32(lastRow + t, lastLane, v);
        if constexpr (kArrivals)
            _mm512_storeu_si512(band.skew + t * kBandLanes, v);
        diag = up;
        prev = v;
    }
    foldBand(events, latest, firedCells, tally, fired);
}

} // namespace

void
sweepEditGridBand(const EditGridBand &band, SweepTally &tally,
                  uint32_t fired[kBandLanes])
{
    if (band.skew)
        sweep<true>(band, tally, fired);
    else
        sweep<false>(band, tally, fired);
}

#else

void
sweepEditGridBand(const EditGridBand &, SweepTally &, uint32_t *)
{
    rl_panic("the skewed band needs an x86-64 host with AVX-512F");
}

#endif

} // namespace racelogic::core::detail
