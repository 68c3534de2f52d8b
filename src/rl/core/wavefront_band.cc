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
sweep(const EditGridBand &band, SweepTally &tally,
      uint64_t fired[kBandLanes])
{
    const __m512i unfired =
        _mm512_set1_epi64(static_cast<long long>(kSweepUnfired));
    const __m512i limit =
        _mm512_set1_epi64(static_cast<long long>(tally.limit));
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i down = _mm512_loadu_si512(band.down);
    __m512i gather = _mm512_loadu_si512(band.gather);

    // The last lane writes its row over the row above as lane 0 reads
    // it: lane r's cell at step t is column t - r, so a masked store of
    // lane r at above + t - 2r puts it in above[t - r], a column lane 0
    // has already passed.
    const size_t last = band.lanes - 1;
    const __mmask8 lastLane = static_cast<__mmask8>(1u << last);
    sim::Tick *const lastRow = band.above - 2 * last;

    __m512i prev = unfired; // each lane's left neighbour
    __m512i diag = unfired;
    __m512i events = _mm512_setzero_si512();
    __m512i latest = _mm512_setzero_si512();
    __m512i firedCells = _mm512_setzero_si512();

    const size_t steps = band.cols + band.lanes;
    for (size_t t = 0; t < steps; ++t) {
        const __m512i up = _mm512_alignr_epi64(
            prev, _mm512_set1_epi64(static_cast<long long>(band.above[t])),
            7);
        const __m512i horizontal = _mm512_loadu_si512(band.horizontal - t);
        const __m512i diagonal =
            _mm512_i64gather_epi64(gather, band.profile, 8);
        gather = _mm512_sub_epi64(gather, one);

        const __m512i fromUp = _mm512_add_epi64(up, down);
        const __m512i fromDiag = _mm512_add_epi64(diag, diagonal);
        const __m512i fromLeft = _mm512_add_epi64(prev, horizontal);
        // The row sweep's clamp, with the left neighbour folded in
        // last: it alone depends on the previous step.
        const __m512i v = _mm512_min_epu64(
            _mm512_min_epu64(fromUp, _mm512_min_epu64(fromDiag, unfired)),
            fromLeft);

        arrive(fromUp, limit, events, latest);
        arrive(fromDiag, limit, events, latest);
        arrive(fromLeft, limit, events, latest);
        firedCells = _mm512_mask_add_epi64(
            firedCells, _mm512_cmple_epu64_mask(v, limit), firedCells, one);

        _mm512_mask_storeu_epi64(lastRow + t, lastLane, v);
        if constexpr (kArrivals)
            _mm512_storeu_si512(band.skew + t * kBandLanes, v);
        diag = up;
        prev = v;
    }

    tally.events += static_cast<uint64_t>(_mm512_reduce_add_epi64(events));
    const sim::Tick bandLatest =
        static_cast<sim::Tick>(_mm512_reduce_max_epu64(latest));
    if (bandLatest > tally.latest)
        tally.latest = bandLatest;
    _mm512_storeu_si512(fired, firedCells);
}

} // namespace

void
sweepEditGridBand(const EditGridBand &band, SweepTally &tally,
                  uint64_t fired[kBandLanes])
{
    if (band.skew)
        sweep<true>(band, tally, fired);
    else
        sweep<false>(band, tally, fired);
}

#else

void
sweepEditGridBand(const EditGridBand &, SweepTally &, uint64_t *)
{
    rl_panic("the skewed band needs an x86-64 host with AVX-512F");
}

#endif

} // namespace racelogic::core::detail
