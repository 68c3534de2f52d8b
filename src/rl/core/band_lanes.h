/**
 * @file
 * What the two skewed AVX-512F bands share -- core::raceEditGrid's
 * (rl/core/wavefront_band.h) and pangraph::raceAlignmentGrid's
 * (rl/pangraph/graph_align_band.h): the lane count and width, the
 * bound within which a race fits 32-bit lanes, the unfired padding
 * around their column-reversed rows, and the in-lane event tally.
 * Internal to the library.
 */

#ifndef RACELOGIC_CORE_BAND_LANES_H
#define RACELOGIC_CORE_BAND_LANES_H

#include <cstddef>
#include <cstdint>

#include "rl/core/wavefront.h"

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

/** Rows one band races: the 32-bit lanes of a 512-bit register. */
constexpr size_t kBandLanes = 16;

/**
 * Unfired padding on each side of a band's column-reversed rows and
 * of the row above: a lane runs up to fifteen steps before its first
 * column and after its last, and the last lane's store trails lane 0
 * by up to 2 x 15 elements.
 */
constexpr size_t kBandPad = 2 * kBandLanes;

/**
 * A band's kSweepUnfired: the working value of an unfired cell and
 * every forbidden (or out-of-bound) weight in 32-bit lanes.  Every
 * lane value is clamped to it, so the sum of a value and a weight
 * stays below 2^32.
 */
constexpr uint32_t kBandUnfired = uint32_t(1) << 30;

/**
 * True iff a race whose paths take at most `edges` in-edges, each of
 * weight at most `maxWeight`, races exactly in 32-bit lanes:
 * (edges + 1) x maxWeight < 2^30.  Every fired value and every arrival
 * out of a fired cell then stays below kBandUnfired, so clamping to it
 * loses nothing; and with fewer than 2^30 steps, a lane's u32 tallies
 * of three arrivals per step stay below 2^32 (the graph band's tables
 * check their far slots' share).  A race outside the bound takes the
 * row sweep.
 */
inline bool
bandExact(size_t edges, bio::Score maxWeight)
{
    return maxWeight <= bio::Score((kBandUnfired - 1) / (edges + 1));
}

/** A weight hoisted for a band: forbidden, or too large, is unfired. */
inline uint32_t
bandWeight(bio::Score weight)
{
    return static_cast<uint32_t>(
        std::min(sweepWeight(weight), sim::Tick(kBandUnfired)));
}

#if defined(__x86_64__)

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

/**
 * Widen a finished band's in-lane tallies into `tally`, and store
 * each lane's fired-cell count in fired[lane].
 */
__attribute__((target("avx512f"), always_inline)) inline void
foldBand(__m512i events, __m512i latest, __m512i firedCells,
         SweepTally &tally, uint32_t fired[kBandLanes])
{
    tally.events += static_cast<uint64_t>(_mm512_reduce_add_epi64(
        _mm512_add_epi64(
            _mm512_cvtepu32_epi64(_mm512_castsi512_si256(events)),
            _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(events, 1)))));
    tally.latest = std::max(
        tally.latest, sim::Tick(_mm512_reduce_max_epu32(latest)));
    _mm512_storeu_si512(fired, firedCells);
}

#endif

} // namespace racelogic::core::detail

#endif // RACELOGIC_CORE_BAND_LANES_H
