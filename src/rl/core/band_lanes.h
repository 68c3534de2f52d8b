/**
 * @file
 * The one skewed AVX-512BW band behind both dense race kernels,
 * core::raceEditGrid (rl/core/wavefront_band.h) and
 * pangraph::raceAlignmentGrid (rl/pangraph/graph_align_band.h): its
 * lanes and bound, its tables, its step and raceBands(), which races a
 * kernel's rows band by band.  Internal to the library.
 *
 * A band races rows i0 .. i0+31 in the thirty-two 16-bit lanes of one
 * register, over positions 0..K in sweep order, lane r one step behind
 * lane r - 1: at step t, lane r fires (i0 + r, t - r).  The edit grid
 * is a chain of K = |b| columns; a graph's product takes its positions
 * in the order of GraphBandTables::order.  The in-edges of (i, k):
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
 * Each lane consumes its own row symbol, so a step looks its
 * substitution weights up by the alphabet's size:
 *
 *  - up to 7 letters (DNA), with no gather: one substitution row
 *    holds each position's column symbol code, and code |alphabet|
 *    marks position 0 and the padding.  A step loads the codes, adds
 *    each lane's row code x 8 (|alphabet| x 8 past the band's last
 *    row) and looks the weights up in a 64-entry table of pair
 *    weights with one vpermt2w; every entry of code |alphabet| is
 *    unfired;
 *  - from 8 letters (protein, and up to the 255 a bio::Symbol holds):
 *    one weight row per row symbol, then an all-unfired row for the
 *    lanes past the band.  A step reads them with two sixteen-lane
 *    32-bit gathers at scale 2, whose per-lane indices fall by one
 *    each step, and packs the low halves into the thirty-two lanes
 *    with one vpermt2w.
 *
 * A lane holds the row sweep's working value clamped to kBandUnfired
 * = 2^14: every step takes min(value, 2^14), so a lane holds min(true
 * value, 2^14), and every sum of a value and a (clamped) weight fits
 * 16 bits.  The band therefore loses only arrivals at or past 2^14,
 * and counts the row sweep's arrivals exactly within a limit below it.
 * raceBands() keeps a race whose horizon is below 2^14, or whose
 * latest counted arrival plus the matrix's largest finite weight is
 * below 2^14 (bandHolds()); it gives up on any other, and the kernel
 * races it again on its row sweep.  That check is sound: a lost
 * arrival leaves a fired cell, whose value is at most the latest
 * arrival counted, over an edge of at most the largest weight.  It
 * runs after every band, so a race past the lanes stops early.
 *
 * An inhibited graph race (Band::inhibit, sweepBand()) gives each lane
 * its own limit, the lesser of a per-band read part and a per-position
 * graph part, and races only the steps that can hold a live lane.
 *
 * Events are tallied per target, in lanes: each in-edge arrival a step
 * forms is counted when it is within the limit and folded into the
 * latest arrival -- the edges the row sweeps count per source, so a
 * cancelled race counts the arrivals into the rows it swept.  A lane's
 * event tally grows by at most three per step and two per far group
 * of the step, its fired count by at most one; a graph's band folds
 * both into the race's tally every so many steps, before they could
 * wrap 16 bits, and a chain needs no fold (see the static_assert
 * below).
 */

#ifndef RACELOGIC_CORE_BAND_LANES_H
#define RACELOGIC_CORE_BAND_LANES_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "rl/core/wavefront.h"

namespace racelogic::core::detail {

/** Rows one band races: the 16-bit lanes of a 512-bit register. */
constexpr size_t kBandLanes = 32;

/**
 * Unfired padding on each side of a band's column-reversed rows and
 * of the row above: a lane runs up to 31 steps before its first
 * position and after its last, and the last lane's store trails lane
 * 0 by up to 62 elements.
 */
constexpr size_t kBandPad = 2 * kBandLanes;

/**
 * The band's kSweepUnfired: the working value of an unfired cell and
 * every forbidden (or larger) weight.  Every lane value is clamped to
 * it, so the sum of a value and a weight fits the lane.
 */
constexpr uint16_t kBandUnfired = uint16_t(1) << 14;

/** One bit per lane. */
using BandMask = uint32_t;

/** Ticks of history one band step keeps: its values, then its `up`s. */
constexpr size_t kHistoryStride = 2 * kBandLanes;

/**
 * Symbol codes per axis of the pair table: one per letter and the
 * unfired code |alphabet|, 8 x 8 16-bit entries in the two registers of
 * one vpermt2w.  Alphabets of kPairCodes letters or more gather.
 */
constexpr size_t kPairCodes = 8;

// The chain needs no fold.  Every weight is >= 1, so an arrival the
// band counts into column j is at least j, and below kBandUnfired: a
// lane counts at most three arrivals into each of the first 2^14
// columns, and fires at most one cell in each.
static_assert(3 * size_t(kBandUnfired) <= UINT16_MAX);

/** True iff the band gathers the substitution weights of an alphabet
 *  of `letters` letters, which its pair table cannot hold. */
constexpr bool
bandGathers(size_t letters)
{
    return letters >= kPairCodes;
}

/**
 * The first weight row after the substitution rows -- the deletion
 * row -- for an alphabet of `alpha` letters: after the codes, or after
 * a weight row per letter and the all-unfired row.
 */
constexpr size_t
bandDeletionRow(size_t alpha)
{
    return bandGathers(alpha) ? alpha + 1 : 1;
}

/** A weight hoisted for the band: forbidden, or larger, is unfired. */
inline uint16_t
bandWeight(bio::Score weight)
{
    return static_cast<uint16_t>(
        std::min(sweepWeight(weight), sim::Tick(kBandUnfired)));
}

/**
 * True iff a band race under `horizon` is exact so far, with its
 * latest counted arrival at `latest` and no weight above `maxWeight`:
 * the horizon is below kBandUnfired, or no arrival out of a fired cell
 * reaches it.
 */
inline bool
bandHolds(sim::Tick horizon, sim::Tick latest, bio::Score maxWeight)
{
    return horizon < kBandUnfired ||
           latest + static_cast<sim::Tick>(maxWeight) < kBandUnfired;
}

/** True iff this host runs the band: AVX-512BW. */
inline bool
hostRunsBand()
{
    return sweepLanes() == kBandLanes;
}

/**
 * The lanes of one band step whose far predecessors lie the same sweep
 * distance d back: bit r of `lanes` is lane r, at sweep index t - r,
 * whose predecessor t - r - d it fired at step t - d into the ring's
 * slot `slot` = (t - d) mod window.
 */
struct BandFarGroup {
    uint32_t slot = 0;
    BandMask lanes = 0;
};

/** One band race, as the step reads it. */
struct Band {
    /** The row above the band by sweep index, positions 0..K, with
     *  kBandPad unfired ticks on each side. */
    uint16_t *above = nullptr;

    /** The second row, laid out as `above`: the step writes the band's
     *  last row here, and raceBands() swaps the two after each band.
     *  Lane 0's load of the row above then never waits on the last
     *  lane's masked store, whose 64 bytes would cover the next load in
     *  a band of 16 rows or fewer. */
    uint16_t *below = nullptr;

    /** The weight rows, from row 0 (layout above). */
    const uint16_t *weights = nullptr;

    size_t positions = 0; ///< K + 1

    /** nullptr: score-only.  Otherwise the band's values, step by
     *  step: lane r at step t in skew[t * kBandLanes + r]. */
    uint16_t *skew = nullptr;

    /** A graph's far groups (step t races far[farBegin[t]] ..
     *  far[farBegin[t + 1] - 1]), its ring of window x kHistoryStride
     *  ticks, 64-byte aligned, and the steps after which the step folds
     *  its lanes' tallies (GraphBandTables::foldSteps). */
    const uint32_t *farBegin = nullptr;
    const BandFarGroup *far = nullptr;
    uint16_t *history = nullptr;
    size_t window = 0;
    size_t foldSteps = 0;

    /** A graph's longest predecessor distance in sweep order, at least
     *  1: a step reads its lanes' values up to reach + 1 steps back
     *  (a diagonal in-edge is lane r - 1's value a step before its
     *  predecessor's). */
    size_t reach = 0;

    /** Set by raceBands(): the deletion row at sweep index 0, and
     *  whether the step gathers its substitution weights. */
    const uint16_t *deletion = nullptr;
    bool gather = false;

    /** An inhibited graph race (nullptr: none): each position's limit
     *  min(limit, H - G x minFinite()) at sweep index 0, laid out as the
     *  weight rows.  Lane r's state (i, k) keeps a value only within
     *  min(readLimit[r], inhibit[k]): H - LB(i, k), saturating at 0,
     *  as LB is the larger of its read and graph parts. */
    const uint16_t *inhibit = nullptr;

    /** Set by raceBands() where the step does not gather: pair(r, c)
     *  at r x kPairCodes + c, unfired where r or c is |alphabet|. */
    uint16_t pairs[kPairCodes * kPairCodes] = {};

    /** Set per band by raceBands(): each lane's substitution index at
     *  step 0 -- its gather index (symbol row x stride + kBandPad + K +
     *  lane), or its row code x kPairCodes -- its insertion weight
     *  (unfired past the band), and the rows in the band, 1..32. */
    uint32_t row[kBandLanes] = {};
    uint16_t down[kBandLanes] = {};
    size_t lanes = 0;

    /** Set per band by raceBands() on an inhibited race: each lane's
     *  limit by its read part, min(limit, H - (m - i) x minFinite()),
     *  saturating at 0. */
    uint16_t readLimit[kBandLanes] = {};
};

/**
 * Race one band: every step from lane 0's position 0 to the last
 * lane's position K.  Adds the band's arrivals within tally.limit
 * (below kBandUnfired) to tally.events and tally.latest, and stores
 * each lane's fired count in fired[lane].  kChain races the edit
 * grid's chain, without the graph's chain gate, far groups, ring,
 * fold and inhibit.
 *
 * An inhibited graph band (band.inhibit) counts an arrival only within
 * its target's own limit and leaves a state past it unfired, and races
 * only the steps that can hold a live lane: from the first live index
 * of the row above, until more than band.reach + 1 steps have passed
 * since both that row's last live index and the band's last live lane.
 * The row it writes, and with arrivals every lane of the steps it
 * skipped, are unfired outside what it swept.  Requires hostRunsBand().
 */
template <bool kChain>
void sweepBand(const Band &band, SweepTally &tally,
               uint32_t fired[kBandLanes]);

/**
 * An inhibited graph race's position limits (Band::inhibit): out[e] =
 * min(limit, horizon - bounds[e]), saturating at 0, for e < n.
 * Requires hostRunsBand().
 */
void bandLimits(const uint16_t *bounds, size_t n, uint16_t horizon,
                uint16_t limit, uint16_t *out);

/** How raceBands() stopped. */
enum class BandRace {
    Done,      ///< the last row was swept, or a row fired nothing
    Cancelled, ///< a cancel poll stopped it
    Lost,      ///< bandHolds() failed: race it on the row sweep
};

/**
 * Race rows 1..|rows| of `band` band by band under `horizon`, each row
 * consuming its symbol of `rows` under `costs`; band.above holds row 0,
 * already counted in `tally`.  Checks bandHolds() first and after each
 * band, and returns Lost at the first failure.  Per band: poll each
 * row's cancel ahead of it (the first cancelled poll cuts the band
 * there, so the rows swept are the rows polled), set the lanes'
 * substitution indices and insertion weights (and, on an inhibited
 * graph race, the lanes' read limits), race the step, add the swept
 * rows' fired counts to `cellsFired` and, when the band fills
 * arrivals, hand them to publish(i0, swept).  Section 6: the first row
 * with no fired cell stops the race, and no later row can fire either.
 * Once the last row is swept, atLastRow() reads it in band.above.
 */
template <bool kChain, typename Publish, typename AtLastRow>
BandRace
raceBands(Band &band, const bio::Sequence &rows,
          const bio::ScoreMatrix &costs, sim::Tick horizon,
          SweepTally &tally, size_t &cellsFired, const CancelToken *cancel,
          Publish &&publish, AtLastRow &&atLastRow)
{
    const bio::Score maxWeight = costs.maxFinite();
    if (!bandHolds(horizon, tally.latest, maxWeight))
        return BandRace::Lost;
    const size_t m = rows.size();
    const size_t alpha = costs.alphabet().size();
    const std::vector<bio::Symbol> &symbols = rows.symbols();
    const size_t stride = band.positions + 2 * kBandPad;
    const size_t origin = kBandPad + band.positions - 1; // index 0
    band.gather = bandGathers(alpha);
    band.deletion = band.weights + bandDeletionRow(alpha) * stride + origin;
    if (!band.gather) {
        for (size_t r = 0; r < kPairCodes; ++r)
            for (size_t c = 0; c < kPairCodes; ++c)
                band.pairs[r * kPairCodes + c] =
                    r < alpha && c < alpha
                        ? bandWeight(costs.pair(static_cast<bio::Symbol>(r),
                                                static_cast<bio::Symbol>(c)))
                        : kBandUnfired;
    }
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
            return BandRace::Cancelled;

        band.lanes = lanes;
        for (size_t r = 0; r < kBandLanes; ++r) {
            const bool live = r < lanes;
            const size_t s = live ? symbols[i0 + r - 1] : alpha;
            band.row[r] = static_cast<uint32_t>(
                band.gather ? s * stride + origin + r : s * kPairCodes);
            band.down[r] = live ? bandWeight(costs.gap(symbols[i0 + r - 1]))
                                : kBandUnfired;
        }
        if constexpr (!kChain) {
            if (band.inhibit) {
                const auto minWeight =
                    static_cast<sim::Tick>(costs.minFinite());
                for (size_t r = 0; r < lanes; ++r) {
                    const sim::Tick lb = (m - i0 - r) * minWeight;
                    band.readLimit[r] = static_cast<uint16_t>(std::min(
                        tally.limit, horizon > lb ? horizon - lb : 0));
                }
            }
        }
        uint32_t fired[kBandLanes];
        sweepBand<kChain>(band, tally, fired);
        std::swap(band.above, band.below);
        if (!bandHolds(horizon, tally.latest, maxWeight))
            return BandRace::Lost;

        // The rows after a row with no fired cell fired nothing and
        // scheduled nothing either, so the band's tally stands, and a
        // cancel polled past that row changes nothing.
        size_t swept = 0;
        while (swept < lanes && fired[swept] > 0)
            cellsFired += fired[swept++];
        if (band.skew)
            publish(i0, swept);
        if (swept < lanes)
            return BandRace::Done;
        if (cancelled)
            return BandRace::Cancelled;
    }
    atLastRow();
    return BandRace::Done;
}

} // namespace racelogic::core::detail

#endif // RACELOGIC_CORE_BAND_LANES_H
