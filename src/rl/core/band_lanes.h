/**
 * @file
 * The one skewed AVX-512F band behind both dense race kernels,
 * core::raceEditGrid (rl/core/wavefront_band.h) and
 * pangraph::raceAlignmentGrid (rl/pangraph/graph_align_band.h): the
 * lane count and width, the bound within which a race fits 32-bit
 * lanes, the band's tables, its step and the driver that races a
 * kernel's rows band by band.  Internal to the library.
 *
 * A band races rows i0 .. i0+15 in the sixteen 32-bit lanes of one
 * register, over positions 0..K in sweep order, lane r one step
 * behind lane r - 1: at step t, lane r fires (i0 + r, t - r).  The
 * edit grid is a chain of K = |b| columns; a graph's product takes its
 * positions in the order of GraphBandTables::order.  The in-edges of
 * (i, k):
 *
 *  - `up`, from (i - 1, k), is the previous step's value of lane
 *    r - 1 -- and, for lane 0, the stored row above the band;
 *  - the chain predecessor k - 1: `left` is the lane's own previous
 *    value and `diag` the previous step's `up`.  On a graph, a chain
 *    deletion row and a chain gate leave both unfired where k - 1 does
 *    not precede k; on the edit grid's chain it always does;
 *  - a graph's far predecessors, every one but k - 1: lane r fired
 *    predecessor k - d at step t - d.  A ring of `window` past steps
 *    keeps each step's values and `up`s as two 64-byte vectors, so the
 *    lanes whose predecessors lie d back take slot (t - d) mod window
 *    with one load per vector, under their lane mask: one BandFarGroup
 *    per distance, precomputed per step.
 *
 * Weights come in rows of K + 1 + 2 kBandPad, column-reversed and
 * padded: entry k sits at kBandPad + K - k, and every entry outside
 * 0..K is unfired.  Rows 0..|alphabet|-1 hold the substitution weight
 * into k for each row symbol, row |alphabet| is all unfired (the lanes
 * past the band's last row), then come the deletion row and, on a
 * graph alone, the chain deletion and chain gate rows.  A step reads a
 * deletion-side row for all sixteen lanes with one unaligned load,
 * and the substitution weights -- one symbol row per lane -- with one
 * 32-bit gather whose per-lane indices fall by one each step.  A lane
 * before position 0, past position K or past the band's last row
 * reads unfired padding, is in no far group, and stays unfired.
 *
 * A lane holds the row sweep's working value at 32 bits, clamped to
 * kBandUnfired = 2^30; a kernel takes the band only where that is
 * exact (bandExact()), so each lane does the row sweep's arithmetic.
 * Events are tallied per target, in lanes: each in-edge arrival a step
 * forms is counted when it is within the limit and folded into the
 * latest arrival -- the edges the row sweeps count per source, so a
 * cancelled race counts the arrivals into the rows it swept.
 */

#ifndef RACELOGIC_CORE_BAND_LANES_H
#define RACELOGIC_CORE_BAND_LANES_H

#include <cstddef>
#include <cstdint>

#include "rl/core/wavefront.h"

namespace racelogic::core::detail {

/** Rows one band races: the 32-bit lanes of a 512-bit register. */
constexpr size_t kBandLanes = 16;

/**
 * Unfired padding on each side of a band's column-reversed rows and
 * of the row above: a lane runs up to fifteen steps before its first
 * position and after its last, and the last lane's store trails lane 0
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

/** 32-bit ticks of history one band step keeps: its values, then its
 *  `up`s. */
constexpr size_t kHistoryStride = 2 * kBandLanes;

/**
 * True iff a race whose paths take at most `edges` in-edges, each of
 * weight at most `maxWeight`, races exactly in 32-bit lanes:
 * (edges + 1) x maxWeight < 2^30.  Every fired value and every arrival
 * out of a fired cell then stays below kBandUnfired, so clamping to it
 * loses nothing; and with fewer than 2^30 steps, a lane's u32 tallies
 * of three arrivals per step stay below 2^32 (the graph band's tables
 * check their far groups' share).  A race outside the bound takes the
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

/**
 * The lanes of one band step whose far predecessors lie the same sweep
 * distance d back: bit r of `lanes` is lane r, at sweep index t - r,
 * whose predecessor t - r - d it fired at step t - d into the ring's
 * slot `slot` = (t - d) mod window.
 */
struct BandFarGroup {
    uint32_t slot = 0;
    uint16_t lanes = 0;
};

/** One band race, as the step reads it. */
struct Band {
    /** The row above the band by sweep index, positions 0..K, with
     *  kBandPad unfired ticks on each side.  On return it holds the
     *  band's last row. */
    uint32_t *above = nullptr;

    /** The weight rows, from row 0; `gather` indexes into them. */
    const uint32_t *weights = nullptr;

    size_t positions = 0; ///< K + 1

    /** nullptr: score-only.  Otherwise the band's values, step by
     *  step: lane r at step t in skew[t * kBandLanes + r]. */
    uint32_t *skew = nullptr;

    /** A graph's far groups (step t races far[farBegin[t]] ..
     *  far[farBegin[t + 1] - 1]) and its ring of window x
     *  kHistoryStride ticks, 64-byte aligned. */
    const uint32_t *farBegin = nullptr;
    const BandFarGroup *far = nullptr;
    uint32_t *history = nullptr;
    size_t window = 0;

    /** Set by raceBands(): the deletion row at sweep index 0. */
    const uint32_t *deletion = nullptr;

    /** Set per band by raceBands(): each lane's weight index of its
     *  substitution weight at step 0 (symbol row x stride + kBandPad +
     *  K + lane), its insertion weight (unfired past the band), and
     *  the rows in the band, 1..kBandLanes. */
    uint32_t gather[kBandLanes] = {};
    uint32_t down[kBandLanes] = {};
    size_t lanes = 0;
};

/**
 * Race one band: every step from lane 0's position 0 to the last
 * lane's position K.  Adds the band's arrivals within tally.limit
 * (below kBandUnfired) to tally.events and tally.latest, and stores
 * each lane's fired count in fired[lane].  kChain races the edit
 * grid's chain, without the graph's chain gate, far groups and ring.
 * Requires sweepLanes() == kBandLanes.
 */
template <bool kChain>
void sweepBand(const Band &band, SweepTally &tally,
               uint32_t fired[kBandLanes]);

/**
 * Race rows 1..|rows| of `band` band by band, each row consuming its
 * symbol of `rows` under `costs`; band.above holds row 0.  Per band:
 * poll each row's cancel ahead of it (the first cancelled poll cuts
 * the band there, so the rows swept are the rows polled), set the
 * lanes' gather indices and insertion weights, race the step, add the
 * swept rows' fired counts to `cellsFired` and, when the band fills
 * arrivals, hand them to publish(i0, swept).  Section 6: the first
 * row with no fired cell stops the race, and no later row can fire
 * either.  Once the last row is swept, atLastRow() reads it in
 * band.above.  Returns true iff a cancel stopped the race.
 */
template <bool kChain, typename Publish, typename AtLastRow>
bool
raceBands(Band &band, const bio::Sequence &rows,
          const bio::ScoreMatrix &costs, SweepTally &tally,
          size_t &cellsFired, const CancelToken *cancel,
          Publish &&publish, AtLastRow &&atLastRow)
{
    const size_t m = rows.size();
    const size_t alpha = costs.alphabet().size();
    const std::vector<bio::Symbol> &symbols = rows.symbols();
    const size_t stride = band.positions + 2 * kBandPad;
    const size_t origin = kBandPad + band.positions - 1; // sweep index 0
    band.deletion = band.weights + (alpha + 1) * stride + origin;
    for (size_t i0 = 1; i0 <= m; i0 += kBandLanes) {
        size_t lanes = std::min(kBandLanes, m + 1 - i0);
        bool cancelled = false;
        for (size_t r = 0; r < lanes; ++r) {
            if (cancel && cancel->cancelled()) {
                lanes = r;
                cancelled = true;
                break;
            }
        }
        if (lanes == 0)
            return true;

        band.lanes = lanes;
        for (size_t r = 0; r < kBandLanes; ++r) {
            const bool live = r < lanes;
            const size_t s = live ? symbols[i0 + r - 1] : alpha;
            band.gather[r] = static_cast<uint32_t>(s * stride + origin + r);
            band.down[r] = live ? bandWeight(costs.gap(symbols[i0 + r - 1]))
                                : kBandUnfired;
        }
        uint32_t fired[kBandLanes];
        sweepBand<kChain>(band, tally, fired);

        // The rows after a row with no fired cell fired nothing and
        // scheduled nothing either, so the band's tally stands, and a
        // cancel polled past that row changes nothing.
        size_t swept = 0;
        while (swept < lanes && fired[swept] > 0)
            cellsFired += fired[swept++];
        if (band.skew)
            publish(i0, swept);
        if (swept < lanes)
            return false;
        if (cancelled)
            return true;
    }
    atLastRow();
    return false;
}

} // namespace racelogic::core::detail

#endif // RACELOGIC_CORE_BAND_LANES_H
