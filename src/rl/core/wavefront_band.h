/**
 * @file
 * The two sweeps behind core::raceEditGrid, and the AVX-512F step of
 * the skewed band.  Internal to rl/core: raceEditGrid() picks the
 * sweep from the CPU (sweepLanes()) and the race's cost range
 * (editGridBandExact()); tests and benches call one directly to hold
 * the two against each other.
 *
 * The skewed band races rows i0 .. i0+15 in the sixteen 32-bit lanes
 * of one register.  At step t, lane r fires cell (i0 + r, t - r):
 *
 *  - `up` is the previous step's value of lane r - 1 -- the cell
 *    above, fired one step earlier -- and, for lane 0, the stored row
 *    above the band;
 *  - `diag` is the previous step's `up`;
 *  - `left` is the lane's own previous value.
 *
 * The weights of the three in-edges come in one load each.  The
 * vertical one is constant per lane.  The horizontal one, gap(b[j-1])
 * for lane r at column j = t - r, sits at offset pad + |b| - t + r of
 * the column-reversed profile row, so one unaligned load at pad + |b|
 * - t serves all sixteen lanes.  The diagonal one, pair(a[i-1],
 * b[j-1]), needs a different symbol row per lane: one 32-bit gather,
 * whose per-lane indices fall by one each step.  Columns outside
 * 1..|b| read unfired padding, so a lane that has not reached column 0
 * yet, or has passed column |b|, computes an unfired cell; lanes past
 * the band's last row read the all-unfired symbol row and an unfired
 * vertical weight, and stay unfired too.
 *
 * A lane holds the row sweep's working value at 32 bits: unsigned,
 * clamped to kBandUnfired = 2^30, with unfired weights 2^30, so each
 * addition stays below 2^32.  raceEditGrid() takes the band only
 * where that is exact -- (|a| + |b| + 1) x costs.maxFinite() < 2^30
 * (editGridBandExact()), so every fired value and every arrival out of one is
 * below 2^30 -- and the row sweep elsewhere; the band's tally limit is
 * clamped below 2^30 too, which no arrival within the bound reaches.
 *
 * Events are tallied per *target* cell: the three in-edge arrivals
 * the recurrence has just formed are compared with the limit, and the
 * ones within it are counted and folded into the latest arrival.
 * Each counted arrival is one edge out of a fired cell landing within
 * the horizon -- the row sweep's per-source tally of the same edges
 * -- and an edge into a row counts exactly when that row is swept, so
 * a cancelled race counts the arrivals into the rows it swept.
 */

#ifndef RACELOGIC_CORE_WAVEFRONT_BAND_H
#define RACELOGIC_CORE_WAVEFRONT_BAND_H

#include <cstddef>
#include <cstdint>

#include "rl/core/band_lanes.h"
#include "rl/core/wavefront.h"

namespace racelogic::core::detail {

/**
 * One band, as sweepEditGridBand() reads it.  The profile rows have
 * stride |b| + 2 kBandPad and hold the weight into column j at
 * kBandPad + |b| - j.
 */
struct EditGridBand {
    /** The row above the band, columns 0..|b|, with kBandPad unfired
     *  cells on each side.  On return it holds the band's last row. */
    uint32_t *above = nullptr;

    /** Base of the profile; `gather` indexes into it. */
    const uint32_t *profile = nullptr;

    /** The horizontal profile row, at offset kBandPad + |b|. */
    const uint32_t *horizontal = nullptr;

    /** Per lane, the profile index of its diagonal weight at step 0:
     *  symbol row * stride + kBandPad + |b| + lane. */
    uint32_t gather[kBandLanes] = {};

    /** Per lane, the vertical in-edge weight (unfired past the band). */
    uint32_t down[kBandLanes] = {};

    size_t cols = 0;  ///< |b|
    size_t lanes = 0; ///< rows in this band, 1..kBandLanes

    /** nullptr: score-only.  Otherwise the band's values, step by
     *  step: lane r at step t in skew[t * kBandLanes + r]. */
    uint32_t *skew = nullptr;
};

/**
 * Race one band: every step from lane 0's column 0 to the last lane's
 * column |b|.  Adds the band's arrivals within tally.limit (below
 * kBandUnfired) to tally.events and tally.latest, and stores each
 * lane's fired-cell count in fired[lane].  Requires sweepLanes() ==
 * kBandLanes.
 */
void sweepEditGridBand(const EditGridBand &band, SweepTally &tally,
                       uint32_t fired[kBandLanes]);

/**
 * True iff the band races (a, b) under `costs` exactly: bandExact()
 * over the |a| + |b| edges of the grid's longest path.
 */
inline bool
editGridBandExact(const bio::Sequence &a, const bio::Sequence &b,
                  const bio::ScoreMatrix &costs)
{
    return bandExact(a.size() + b.size(), costs.maxFinite());
}

/**
 * raceEditGrid()'s two sweeps, with its scratch overload's contract.
 * raceEditGridRows() runs on every host and is the reference;
 * raceEditGridBand() requires sweepLanes() == kBandLanes and
 * editGridBandExact().
 * @{
 */
RaceGridResult raceEditGridRows(const bio::Sequence &a,
                                const bio::Sequence &b,
                                const bio::ScoreMatrix &costs,
                                sim::Tick horizon,
                                RaceGridScratch &scratch,
                                const CancelToken *cancel = nullptr,
                                KernelCounters *counters = nullptr,
                                bool arrivals = true);

RaceGridResult raceEditGridBand(const bio::Sequence &a,
                                const bio::Sequence &b,
                                const bio::ScoreMatrix &costs,
                                sim::Tick horizon,
                                RaceGridScratch &scratch,
                                const CancelToken *cancel = nullptr,
                                KernelCounters *counters = nullptr,
                                bool arrivals = true);
/** @} */

} // namespace racelogic::core::detail

#endif // RACELOGIC_CORE_WAVEFRONT_BAND_H
