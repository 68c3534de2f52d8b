/**
 * @file
 * What the two skewed AVX-512F bands share -- core::raceEditGrid's
 * (rl/core/wavefront_band.h) and pangraph::raceAlignmentGrid's
 * (rl/pangraph/graph_align_band.h): the lane count, the unfired
 * padding around their column-reversed rows, and the in-lane event
 * tally.  Internal to the library.
 */

#ifndef RACELOGIC_CORE_BAND_LANES_H
#define RACELOGIC_CORE_BAND_LANES_H

#include <cstddef>

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

/** Rows one band races: the 64-bit lanes of a 512-bit register. */
constexpr size_t kBandLanes = 8;

/**
 * Unfired padding on each side of a band's column-reversed rows and
 * of the row above: a lane runs up to seven steps before its first
 * column and after its last, and the last lane's store trails lane 0
 * by up to 2 x 7 elements.
 */
constexpr size_t kBandPad = 2 * kBandLanes;

#if defined(__x86_64__)

/**
 * Count the in-edge arrivals `t` within `limit`, as SweepTally does:
 * one event per lane whose arrival is within the horizon, folded into
 * that lane's latest arrival.
 */
__attribute__((target("avx512f"), always_inline)) inline void
arrive(__m512i t, __m512i limit, __m512i &events, __m512i &latest)
{
    const __mmask8 in = _mm512_cmple_epu64_mask(t, limit);
    events = _mm512_mask_add_epi64(events, in, events, _mm512_set1_epi64(1));
    latest = _mm512_mask_max_epu64(latest, in, latest, t);
}

#endif

} // namespace racelogic::core::detail

#endif // RACELOGIC_CORE_BAND_LANES_H
