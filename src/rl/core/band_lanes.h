/**
 * @file
 * The one skewed AVX-512 band behind both dense race kernels,
 * core::raceEditGrid (rl/core/wavefront_band.h) and
 * pangraph::raceAlignmentGrid (rl/pangraph/graph_align_band.h), in two
 * lane widths: the lane counts and bounds, the band's tables, its step
 * and raceBands(), which races a kernel's rows band by band.  Internal
 * to the library.
 *
 * A band races rows i0 .. i0+L-1 in the L lanes of one register, over
 * positions 0..K in sweep order, lane r one step behind lane r - 1: at
 * step t, lane r fires (i0 + r, t - r).  The edit grid is a chain of
 * K = |b| columns; a graph's product takes its positions in the order
 * of GraphBandTables::order.  The in-edges of (i, k):
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
 * 0..K is unfired.  The substitution rows come first, then the
 * deletion row and, on a graph alone, the chain deletion and chain
 * gate rows.  A step reads a row for all lanes with one unaligned load.
 * A lane before position 0, past position K or past the band's last
 * row reads unfired padding, is in no far group, and stays unfired.
 *
 * The two widths differ in their lanes and in how a step reads the
 * substitution weights -- one per lane, since each lane consumes its
 * own row symbol:
 *
 *  - the wide band, sixteen 32-bit lanes on hosts with AVX-512F:
 *    unfired is 2^30.  Its substitution rows are one weight row per
 *    row symbol, then an all-unfired row for the lanes past the band,
 *    and a step reads them with one 32-bit gather whose per-lane
 *    indices fall by one each step.  It races any alphabet;
 *  - the narrow band, thirty-two 16-bit lanes on hosts with
 *    AVX-512BW: unfired is 2^14.  Its one substitution row holds each
 *    position's column symbol code, and code |alphabet| marks
 *    position 0 and the padding.  A step loads the codes, adds each
 *    lane's row code x 8 (|alphabet| x 8 past the band's last row)
 *    and looks the weights up in a 64-entry table of pair weights
 *    with one vpermt2w: no gather.  Every entry of code |alphabet|
 *    is unfired, so the narrow band races alphabets of at most 7
 *    letters.
 *
 * A lane holds the row sweep's working value, clamped to kBandUnfired;
 * a kernel takes a band only where that is exact (bandExact(): every
 * value of the race's longest path below unfired), so each lane does
 * the row sweep's arithmetic.  Events are tallied per target, in
 * lanes: each in-edge arrival a step forms is counted when it is
 * within the limit and folded into the latest arrival -- the edges the
 * row sweeps count per source, so a cancelled race counts the arrivals
 * into the rows it swept.  A lane's tally grows by at most three per
 * step and two per far predecessor; within the 2^14 bound a chain
 * stays under 2^16 (a chain has fewer than 2^14 + 32 steps), and a
 * graph's tables are built for the narrow band only where its far
 * predecessors keep it there (bandTallyFits()).
 */

#ifndef RACELOGIC_CORE_BAND_LANES_H
#define RACELOGIC_CORE_BAND_LANES_H

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "rl/core/wavefront.h"

namespace racelogic::core::detail {

/** Rows one band of `Lane`s races: the lanes of a 512-bit register. */
template <typename Lane>
constexpr size_t kBandLanes = 64 / sizeof(Lane);

/**
 * Unfired padding on each side of a band's column-reversed rows and
 * of the row above: a lane runs up to L - 1 steps before its first
 * position and after its last, and the last lane's store trails lane
 * 0 by up to 2 (L - 1) elements.
 */
template <typename Lane>
constexpr size_t kBandPad = 2 * kBandLanes<Lane>;

/**
 * A band's kSweepUnfired: the working value of an unfired cell and
 * every forbidden (or out-of-bound) weight.  Every lane value is
 * clamped to it, so the sum of a value and a weight fits the lane.
 */
template <typename Lane>
constexpr Lane kBandUnfired = Lane(1) << (sizeof(Lane) == 2 ? 14 : 30);

/** One bit per lane of a band of `Lane`s. */
template <typename Lane>
using BandMask = std::conditional_t<sizeof(Lane) == 2, uint32_t, uint16_t>;

/** Ticks of history one band step keeps: its values, then its `up`s. */
template <typename Lane>
constexpr size_t kHistoryStride = 2 * kBandLanes<Lane>;

/**
 * Symbol codes per axis of the narrow band's pair table: one per
 * letter and the unfired code |alphabet|, 8 x 8 16-bit entries in the
 * two registers of one vpermt2w.
 */
constexpr size_t kPairCodes = 8;

/** True iff the band of `Lane`s races an alphabet of `letters`. */
template <typename Lane>
constexpr bool
bandAlphabetFits(size_t letters)
{
    return sizeof(Lane) == 4 || letters < kPairCodes;
}

/**
 * True iff a race whose paths take at most `edges` in-edges, each of
 * weight at most `maxWeight`, races exactly in `Lane`s:
 * (edges + 1) x maxWeight < kBandUnfired.  Every fired value and every
 * arrival out of a fired cell then stays below kBandUnfired, so
 * clamping to it loses nothing.  A race outside the bound takes a
 * wider band or the row sweep.
 */
template <typename Lane>
bool
bandExact(size_t edges, bio::Score maxWeight)
{
    return maxWeight <= bio::Score((kBandUnfired<Lane> - 1) / (edges + 1));
}

/**
 * True iff a lane's tallies fit a `Lane` over `steps` band steps with
 * `farEdges` far predecessors per lane: three arrivals per step and
 * two per far predecessor.
 */
template <typename Lane>
constexpr bool
bandTallyFits(size_t steps, size_t farEdges)
{
    return 3 * steps + 2 * farEdges <= size_t(Lane(~Lane(0)));
}

// Within its bound a chain's tallies fit its lanes: fewer than
// kBandUnfired positions, so three arrivals a step stay in range.
static_assert(bandTallyFits<uint16_t>(
    kBandUnfired<uint16_t> + kBandLanes<uint16_t>, 0));
static_assert(bandTallyFits<uint32_t>(
    kBandUnfired<uint32_t> + kBandLanes<uint32_t>, 0));

/** A weight hoisted for a band: forbidden, or too large, is unfired. */
template <typename Lane>
Lane
bandWeight(bio::Score weight)
{
    return static_cast<Lane>(
        std::min(sweepWeight(weight), sim::Tick(kBandUnfired<Lane>)));
}

/** True iff this host runs the band of `Lane`s: AVX-512F for the wide
 *  band, AVX-512BW for the narrow one. */
template <typename Lane>
bool
hostRunsBand()
{
    return sweepLanes() >= kBandLanes<Lane>;
}

/**
 * The lanes of one band step whose far predecessors lie the same sweep
 * distance d back: bit r of `lanes` is lane r, at sweep index t - r,
 * whose predecessor t - r - d it fired at step t - d into the ring's
 * slot `slot` = (t - d) mod window.
 */
template <typename Lane>
struct BandFarGroup {
    uint32_t slot = 0;
    BandMask<Lane> lanes = 0;
};

/** One band race, as the step reads it. */
template <typename Lane>
struct Band {
    /** The row above the band by sweep index, positions 0..K, with
     *  kBandPad unfired ticks on each side.  On return it holds the
     *  band's last row. */
    Lane *above = nullptr;

    /** The weight rows, from row 0 (layout above). */
    const Lane *weights = nullptr;

    size_t positions = 0; ///< K + 1

    /** nullptr: score-only.  Otherwise the band's values, step by
     *  step: lane r at step t in skew[t * kBandLanes + r]. */
    Lane *skew = nullptr;

    /** A graph's far groups (step t races far[farBegin[t]] ..
     *  far[farBegin[t + 1] - 1]) and its ring of window x
     *  kHistoryStride ticks, 64-byte aligned. */
    const uint32_t *farBegin = nullptr;
    const BandFarGroup<Lane> *far = nullptr;
    Lane *history = nullptr;
    size_t window = 0;

    /** Set by raceBands(): the deletion row at sweep index 0. */
    const Lane *deletion = nullptr;

    /** Set by raceBands() for the narrow band: pair(r, c) at
     *  r x kPairCodes + c, unfired where r or c is |alphabet|. */
    uint16_t pairs[kPairCodes * kPairCodes] = {};

    /** Set per band by raceBands(): each lane's substitution index at
     *  step 0 -- the wide band's gather index (symbol row x stride +
     *  kBandPad + K + lane), the narrow band's row code x kPairCodes
     *  -- its insertion weight (unfired past the band), and the rows in
     *  the band, 1..kBandLanes. */
    Lane row[kBandLanes<Lane>] = {};
    Lane down[kBandLanes<Lane>] = {};
    size_t lanes = 0;
};

/**
 * Race one band: every step from lane 0's position 0 to the last
 * lane's position K.  Adds the band's arrivals within tally.limit
 * (below kBandUnfired) to tally.events and tally.latest, and stores
 * each lane's fired count in fired[lane].  kChain races the edit
 * grid's chain, without the graph's chain gate, far groups and ring.
 * Requires hostRunsBand<Lane>().
 */
template <typename Lane, bool kChain>
void sweepBand(const Band<Lane> &band, SweepTally &tally,
               uint32_t fired[kBandLanes<Lane>]);

/**
 * The first weight row after a band's substitution rows -- the
 * deletion row -- for an alphabet of `alpha` letters.
 */
template <typename Lane>
constexpr size_t
bandDeletionRow(size_t alpha)
{
    return sizeof(Lane) == 2 ? 1 : alpha + 1;
}

/**
 * Race rows 1..|rows| of `band` band by band, each row consuming its
 * symbol of `rows` under `costs`; band.above holds row 0.  Per band:
 * poll each row's cancel ahead of it (the first cancelled poll cuts
 * the band there, so the rows swept are the rows polled), set the
 * lanes' substitution indices and insertion weights, race the step,
 * add the swept rows' fired counts to `cellsFired` and, when the band
 * fills arrivals, hand them to publish(i0, swept).  Section 6: the
 * first row with no fired cell stops the race, and no later row can
 * fire either.  Once the last row is swept, atLastRow() reads it in
 * band.above.  Returns true iff a cancel stopped the race.
 */
template <typename Lane, bool kChain, typename Publish, typename AtLastRow>
bool
raceBands(Band<Lane> &band, const bio::Sequence &rows,
          const bio::ScoreMatrix &costs, SweepTally &tally,
          size_t &cellsFired, const CancelToken *cancel,
          Publish &&publish, AtLastRow &&atLastRow)
{
    constexpr size_t kLanes = kBandLanes<Lane>;
    const size_t m = rows.size();
    const size_t alpha = costs.alphabet().size();
    const std::vector<bio::Symbol> &symbols = rows.symbols();
    const size_t stride = band.positions + 2 * kBandPad<Lane>;
    const size_t origin = kBandPad<Lane> + band.positions - 1; // index 0
    band.deletion =
        band.weights + bandDeletionRow<Lane>(alpha) * stride + origin;
    if constexpr (sizeof(Lane) == 2) {
        for (size_t r = 0; r < kPairCodes; ++r)
            for (size_t c = 0; c < kPairCodes; ++c)
                band.pairs[r * kPairCodes + c] =
                    r < alpha && c < alpha
                        ? bandWeight<Lane>(
                              costs.pair(static_cast<bio::Symbol>(r),
                                         static_cast<bio::Symbol>(c)))
                        : kBandUnfired<Lane>;
    }
    for (size_t i0 = 1; i0 <= m; i0 += kLanes) {
        size_t lanes = std::min(kLanes, m + 1 - i0);
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
        for (size_t r = 0; r < kLanes; ++r) {
            const bool live = r < lanes;
            const size_t s = live ? symbols[i0 + r - 1] : alpha;
            band.row[r] = static_cast<Lane>(
                sizeof(Lane) == 2 ? s * kPairCodes : s * stride + origin + r);
            band.down[r] =
                live ? bandWeight<Lane>(costs.gap(symbols[i0 + r - 1]))
                     : kBandUnfired<Lane>;
        }
        uint32_t fired[kLanes];
        sweepBand<Lane, kChain>(band, tally, fired);

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
