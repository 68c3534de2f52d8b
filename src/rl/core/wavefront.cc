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
        return __builtin_cpu_supports("avx512f") &&
                       __builtin_cpu_supports("avx512bw")
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
    if (detail::hostRunsBand()) {
        if (std::optional<RaceGridResult> raced = detail::raceEditGridBand(
                a, b, costs, horizon, scratch, cancel, counters, arrivals))
            return std::move(*raced);
    }
    return detail::raceEditGridRows(a, b, costs, horizon, scratch, cancel,
                                    counters, arrivals);
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

std::optional<RaceGridResult>
raceEditGridBand(const bio::Sequence &a, const bio::Sequence &b,
                 const bio::ScoreMatrix &costs, sim::Tick horizon,
                 RaceGridScratch &scratch, const CancelToken *cancel,
                 KernelCounters *counters, bool arrivals)
{
    checkEditGridInputs(a, b, costs);
    rl_assert(hostRunsBand(), "the skewed band needs a host with AVX-512BW");

    const size_t rows = a.size();
    const size_t cols = b.size();
    const size_t alpha = costs.alphabet().size();
    const std::vector<bio::Symbol> &symB = b.symbols();
    BandBuffers &buffers = scratch.band;

    // The profile: a graph band's substitution rows and deletion row
    // for the chain of columns (layout in rl/core/band_lanes.h) -- the
    // column codes, or each symbol's diagonal weights and the
    // all-unfired row -- then the horizontal weights.  The gather
    // indices are 32-bit.
    const bool gather = bandGathers(alpha);
    const size_t stride = cols + 1 + 2 * kBandPad;
    const size_t horizontalRow = bandDeletionRow(alpha);
    rl_assert(!gather || (horizontalRow + 1) * stride <= INT32_MAX,
              "the band's profile outgrows its 32-bit gather indices");
    std::vector<uint16_t> &profile = buffers.profile;
    profile.assign((horizontalRow + 1) * stride, kBandUnfired);
    if (!gather)
        std::fill_n(profile.begin(), stride, static_cast<uint16_t>(alpha));
    for (size_t j = 1; j <= cols; ++j) {
        const size_t at = kBandPad + cols - j;
        if (gather) {
            for (size_t s = 0; s < alpha; ++s)
                profile[s * stride + at] = bandWeight(
                    costs.pair(static_cast<bio::Symbol>(s), symB[j - 1]));
        } else {
            profile[at] = symB[j - 1];
        }
        profile[horizontalRow * stride + at] =
            bandWeight(costs.gap(symB[j - 1]));
    }
    const uint16_t *horizontal =
        profile.data() + horizontalRow * stride + kBandPad + cols;
    // The row above the band and the chain's second row (Band::below).
    buffers.row.assign(2 * stride, kBandUnfired);
    uint16_t *above = buffers.row.data() + kBandPad;
    if (arrivals)
        buffers.skew.resize(kBandLanes * (cols + kBandLanes));

    RaceGridResult result;
    // No arrival the lanes hold reaches kBandUnfired, so a limit below
    // it counts exactly the row sweep's arrivals while bandHolds().
    SweepTally tally(std::min(horizon, sim::Tick(kBandUnfired - 1)));

    // The arrival grid, written once: each swept row, staged, as its
    // band publishes it, then the rows the race left unswept.
    std::vector<sim::Tick> cells;
    std::vector<sim::Tick> &stage = scratch.arrivalRow;
    if (arrivals) {
        cells.reserve((rows + 1) * (cols + 1));
        stage.resize(cols + 1);
    }
    // Publish one swept row, whose value in column j is value(j);
    // unfired cells read back as kTickInfinity.
    auto publishRow = [&](auto value) {
        sim::Tick *row = stage.data();
        const sim::Tick limit = tally.limit;
        for (size_t j = 0; j <= cols; ++j) {
            const sim::Tick v = value(j);
            row[j] = v <= limit ? v : sim::kTickInfinity;
        }
        cells.insert(cells.end(), stage.begin(), stage.end());
    };
    sim::Tick sink = sim::kTickInfinity;
    bool cancelled = cancel && cancel->cancelled();
    if (!cancelled) {
        // Row 0 -- the root, injected at tick 0, then a chain of
        // horizontal edges -- is the row above the first band.
        above[0] = 0;
        for (size_t j = 1; j <= cols; ++j) {
            const sim::Tick t = sim::Tick(above[j - 1]) + *(horizontal - j);
            tally.arrive(t);
            above[j] = static_cast<uint16_t>(
                std::min(t, sim::Tick(kBandUnfired)));
        }
        for (size_t j = 0; j <= cols; ++j)
            result.cellsFired += tally.fired(above[j]);
        if (arrivals)
            publishRow([&](size_t j) { return above[j]; });

        Band band;
        band.above = above;
        band.below = above + stride;
        band.weights = profile.data();
        band.positions = cols + 1;
        band.skew = arrivals ? buffers.skew.data() : nullptr;
        const auto publish = [&](size_t, size_t swept) {
            for (size_t r = 0; r < swept; ++r) {
                // Lane r's cell in column j is at step j + r.
                const uint16_t *lane =
                    buffers.skew.data() + r * (kBandLanes + 1);
                publishRow([&](size_t j) { return lane[j * kBandLanes]; });
            }
        };
        const BandRace raced = raceBands<true>(
            band, a, costs, horizon, tally, result.cellsFired, cancel,
            publish, [&] {
                if (tally.fired(band.above[cols]))
                    sink = band.above[cols];
            });
        if (raced == BandRace::Lost)
            return std::nullopt;
        cancelled = raced == BandRace::Cancelled;
    }
    if (arrivals) {
        cells.resize((rows + 1) * (cols + 1), sim::kTickInfinity);
        result.arrival =
            util::Grid<sim::Tick>(rows + 1, cols + 1, std::move(cells));
    }
    finishSweep(result, tally, sink, cancelled, horizon, cols + 1, counters);
    return result;
}

} // namespace detail

} // namespace racelogic::core
