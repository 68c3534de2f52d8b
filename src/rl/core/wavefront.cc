#include "rl/core/wavefront.h"

#include <algorithm>

#include "rl/core/wavefront_band.h"
#include "rl/util/logging.h"

namespace racelogic::core {

namespace {

/** What both edit-grid sweeps require of their inputs. */
void
checkEditGridInputs(const bio::Sequence &a, const bio::Sequence &b,
                    const bio::ScoreMatrix &costs)
{
    rl_assert(a.alphabet() == costs.alphabet() &&
              b.alphabet() == costs.alphabet(),
              "sequences and matrix use different alphabets");
    // Delays >= 1 are what make every cell fire at exactly its
    // min-plus DP value; zero-weight graphs race on raceDag().
    rl_assert(costs.minFinite() >= 1,
              "raceEditGrid requires all finite weights >= 1 (got ",
              costs.minFinite(), ")");
}

} // namespace

RaceGridResult
raceEditGrid(const bio::Sequence &a, const bio::Sequence &b,
             const bio::ScoreMatrix &costs, sim::Tick horizon)
{
    RaceGridScratch scratch;
    return raceEditGrid(a, b, costs, horizon, scratch);
}

unsigned
sweepLanes()
{
#if defined(__x86_64__)
    static const unsigned lanes = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f")
                   ? static_cast<unsigned>(detail::kBandLanes)
                   : 1u;
    }();
    return lanes;
#else
    return 1;
#endif
}

RaceGridResult
raceEditGrid(const bio::Sequence &a, const bio::Sequence &b,
             const bio::ScoreMatrix &costs, sim::Tick horizon,
             RaceGridScratch &scratch, const CancelToken *cancel,
             KernelCounters *counters, bool arrivals)
{
    return sweepLanes() == detail::kBandLanes &&
                   detail::editGridBandExact(a, b, costs)
               ? detail::raceEditGridBand(a, b, costs, horizon, scratch,
                                          cancel, counters, arrivals)
               : detail::raceEditGridRows(a, b, costs, horizon, scratch,
                                          cancel, counters, arrivals);
}

namespace detail {

RaceGridResult
raceEditGridRows(const bio::Sequence &a, const bio::Sequence &b,
                 const bio::ScoreMatrix &costs, sim::Tick horizon,
                 RaceGridScratch &scratch, const CancelToken *cancel,
                 KernelCounters *counters, bool arrivals)
{
    checkEditGridInputs(a, b, costs);

    const size_t rows = a.size();
    const size_t cols = b.size();
    const size_t alpha = costs.alphabet().size();
    const std::vector<bio::Symbol> &symA = a.symbols();
    const std::vector<bio::Symbol> &symB = b.symbols();

    // Weights hoisted out of the sweep.  Row 0 is swept like any other
    // row, against a virtual unfired row above it whose vertical and
    // diagonal weights are unfired too, so it schedules nothing.
    std::vector<sim::Tick> &gapA = scratch.gapA;
    gapA.resize(rows + 1);
    gapA[0] = kSweepUnfired;
    for (size_t i = 0; i < rows; ++i)
        gapA[i + 1] = sweepWeight(costs.gap(symA[i]));
    std::vector<RaceGridScratch::ColumnWeights> &columns = scratch.columns;
    columns.resize((alpha + 1) * cols);
    std::vector<SweepOutEdges> &outEdges = scratch.outEdges;
    outEdges.assign((alpha + 1) * (cols + 1), SweepOutEdges());
    for (size_t s = 0; s <= alpha; ++s) {
        // Symbol row s of the profile: the out-edges of a cell whose
        // next row consumes s -- the in-edges of that row's cells, as
        // `columns` holds them -- or, for s = alpha, in-row ones only.
        const sim::Tick down =
            s < alpha ? sweepWeight(costs.gap(static_cast<bio::Symbol>(s)))
                      : kSweepUnfired;
        SweepOutEdges *out = outEdges.data() + s * (cols + 1);
        for (size_t j = 0; j < cols; ++j) {
            const bio::Score pair =
                s < alpha
                    ? costs.pair(static_cast<bio::Symbol>(s), symB[j])
                    : bio::kScoreInfinity;
            const RaceGridScratch::ColumnWeights w = {
                sweepWeight(pair), sweepWeight(costs.gap(symB[j]))};
            columns[s * cols + j] = w;
            out[j].add(down);
            out[j].add(w.diagonal);
            out[j].add(w.horizontal);
        }
        out[cols].add(down);
    }
    scratch.row.assign(cols + 1, kSweepUnfired);

    RaceGridResult result;
    if (arrivals)
        result.arrival = util::Grid<sim::Tick>(rows + 1, cols + 1,
                                               sim::kTickInfinity);
    SweepTally tally(horizon);
    sim::Tick sink = sim::kTickInfinity;
    bool cancelled = cancel && cancel->cancelled();
    for (size_t i = 0; i <= rows && !cancelled; ++i) {
        const sim::Tick down = gapA[i];
        const RaceGridScratch::ColumnWeights *weights =
            columns.data() + (i == 0 ? alpha : symA[i - 1]) * cols;
        sim::Tick *row = scratch.row.data();

        // The recurrence alone.  Column 0 has only the vertical
        // in-edge; (0, 0) is the root, injected at tick 0.
        sim::Tick diag = row[0];
        sim::Tick left = i == 0 ? 0 : std::min(diag + down, kSweepUnfired);
        row[0] = left;
        for (size_t j = 1; j <= cols; ++j) {
            const sim::Tick up = row[j];
            const sim::Tick vertical = up + down;
            const sim::Tick diagonal = diag + weights[j - 1].diagonal;
            const sim::Tick horizontal = left + weights[j - 1].horizontal;
            diag = up;
            // Clamping to kSweepUnfired keeps every working value at
            // most 2^62, which is what makes the additions above safe;
            // the left neighbour is folded in last, as it alone
            // depends on the previous cell.
            left = std::min(std::min(std::min(vertical, diagonal),
                                     kSweepUnfired),
                            horizontal);
            row[j] = left;
        }

        // The next row is certain to be swept only once its cancel
        // poll passes; until then this row's edges into it stay
        // uncounted, and a cancelled race stops with in-row ones only.
        cancelled = i < rows && cancel && cancel->cancelled();
        const size_t s = i < rows && !cancelled ? symA[i] : alpha;
        const SweepOutEdges *profile = outEdges.data() + s * (cols + 1);
        const RaceGridScratch::ColumnWeights *next = columns.data() + s * cols;
        const sim::Tick nextDown = s < alpha ? gapA[i + 1] : kSweepUnfired;

        // Count, and publish, each settled cell; unfired cells read
        // back as kTickInfinity.
        sim::Tick *out = arrivals ? &result.arrival.at(i, 0) : nullptr;
        size_t fired = 0;
        for (size_t j = 0; j <= cols; ++j) {
            const sim::Tick v = row[j];
            const bool hit = tally.fired(v);
            fired += hit;
            if (out)
                out[j] = hit ? v : sim::kTickInfinity;
            if (!tally.settle(v, profile[j])) {
                tally.arrive(v + nextDown);
                if (j < cols) {
                    tally.arrive(v + next[j].diagonal);
                    tally.arrive(v + next[j].horizontal);
                }
            }
        }
        result.cellsFired += fired;
        if (i == rows && tally.fired(row[cols]))
            sink = row[cols];
        if (fired == 0) {
            // Section 6: no later row can fire either.  A cancel
            // polled here changes nothing: there is no row to stop.
            cancelled = false;
            break;
        }
    }
    finishSweep(result, tally, sink, cancelled, horizon, cols + 1, counters);
    return result;
}

RaceGridResult
raceEditGridBand(const bio::Sequence &a, const bio::Sequence &b,
                 const bio::ScoreMatrix &costs, sim::Tick horizon,
                 RaceGridScratch &scratch, const CancelToken *cancel,
                 KernelCounters *counters, bool arrivals)
{
    checkEditGridInputs(a, b, costs);
    rl_assert(sweepLanes() == kBandLanes,
              "the skewed band needs a host with AVX-512F");
    rl_dassert(editGridBandExact(a, b, costs),
               "the race's cost range does not fit the band's 32-bit lanes");

    const size_t cols = b.size();
    const size_t alpha = costs.alphabet().size();
    const std::vector<bio::Symbol> &symB = b.symbols();

    // The profile: a graph band's first alpha + 2 weight rows for the
    // chain of columns (layout in rl/core/band_lanes.h) -- each
    // symbol's diagonal weights, the all-unfired row, then the
    // horizontal ones.  The gather's indices are 32-bit.
    const size_t stride = cols + 1 + 2 * kBandPad;
    rl_assert((alpha + 2) * stride <= INT32_MAX,
              "the band's profile outgrows its 32-bit gather indices");
    std::vector<uint32_t> &profile = scratch.profile;
    profile.assign((alpha + 2) * stride, kBandUnfired);
    for (size_t j = 1; j <= cols; ++j) {
        const size_t at = kBandPad + cols - j;
        for (size_t s = 0; s < alpha; ++s)
            profile[s * stride + at] = bandWeight(
                costs.pair(static_cast<bio::Symbol>(s), symB[j - 1]));
        profile[(alpha + 1) * stride + at] =
            bandWeight(costs.gap(symB[j - 1]));
    }
    const uint32_t *horizontal =
        profile.data() + (alpha + 1) * stride + kBandPad + cols;
    scratch.bandRow.assign(cols + 1 + 2 * kBandPad, kBandUnfired);
    uint32_t *above = scratch.bandRow.data() + kBandPad;
    if (arrivals)
        scratch.skew.resize(kBandLanes * (cols + kBandLanes));

    RaceGridResult result;
    if (arrivals)
        result.arrival = util::Grid<sim::Tick>(a.size() + 1, cols + 1,
                                               sim::kTickInfinity);
    // Within the bound no arrival reaches kBandUnfired, so the lanes'
    // limit below it counts exactly the row sweep's arrivals.
    SweepTally tally(std::min(horizon, sim::Tick(kBandUnfired - 1)));
    sim::Tick sink = sim::kTickInfinity;
    bool cancelled = cancel && cancel->cancelled();
    if (!cancelled) {
        // Row 0 -- the root, injected at tick 0, then a chain of
        // horizontal edges -- is the row above the first band.
        above[0] = 0;
        for (size_t j = 1; j <= cols; ++j) {
            const uint32_t t = above[j - 1] + *(horizontal - j);
            tally.arrive(t);
            above[j] = std::min(t, kBandUnfired);
        }
        sim::Tick *out = arrivals ? &result.arrival.at(0, 0) : nullptr;
        for (size_t j = 0; j <= cols; ++j) {
            const bool hit = tally.fired(above[j]);
            result.cellsFired += hit;
            if (out)
                out[j] = hit ? above[j] : sim::kTickInfinity;
        }

        Band band;
        band.above = above;
        band.weights = profile.data();
        band.positions = cols + 1;
        band.skew = arrivals ? scratch.skew.data() : nullptr;
        const auto publish = [&](size_t i0, size_t swept) {
            for (size_t r = 0; r < swept; ++r) {
                // Lane r's cell in column j is at step j + r.
                const uint32_t *lane =
                    scratch.skew.data() + r * (kBandLanes + 1);
                sim::Tick *row = &result.arrival.at(i0 + r, 0);
                for (size_t j = 0; j <= cols; ++j) {
                    const sim::Tick v = lane[j * kBandLanes];
                    row[j] = tally.fired(v) ? v : sim::kTickInfinity;
                }
            }
        };
        cancelled = raceBands<true>(band, a, costs, tally, result.cellsFired,
                                    cancel, publish, [&] {
                                        if (tally.fired(above[cols]))
                                            sink = above[cols];
                                    });
    }
    finishSweep(result, tally, sink, cancelled, horizon, cols + 1, counters);
    return result;
}

} // namespace detail

} // namespace racelogic::core
