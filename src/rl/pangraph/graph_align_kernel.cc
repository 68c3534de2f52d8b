#include "rl/pangraph/graph_align_kernel.h"

#include <algorithm>
#include <memory>

#include "rl/graph/dag.h"
#include "rl/pangraph/graph_align_band.h"
#include "rl/util/logging.h"

namespace racelogic::pangraph {

namespace {

/** Both sweeps' input checks; returns the product's state count. */
size_t
checkGraphRaceInputs(const CompiledGraph &compiled, const bio::Sequence &read,
                     const bio::ScoreMatrix &costs)
{
    rl_assert(costs.isCost(), "graph alignment races a Cost-kind matrix");
    rl_assert(read.alphabet() == costs.alphabet(),
              "read and matrix use different alphabets");
    // The hoisted gapWeight array and the per-read rows below must come
    // from the same matrix.  The equality also carries compileGraph's
    // plan-time weight validation over: all finite weights >= 1, which
    // is what makes every state fire at its min-plus DP value; the
    // debug build re-derives that directly.
    rl_assert(costs.fingerprint() == compiled.matrixFingerprint,
              "matrix does not match the one the graph was compiled "
              "with; the hoisted gap weights would mix tables");
    rl_dassert(costs.minFinite() >= 1,
               "raceAlignmentGrid requires all finite weights >= 1");

    const size_t m = read.size();
    const size_t positions = compiled.positionCount();

    // Same guard as buildAlignmentGraph(): the product's node ids are
    // 32-bit, so the sweep fails here with a diagnostic instead of
    // producing a layout the reference could not index.
    const size_t states = (m + 1) * positions + 1;
    if (states >= static_cast<size_t>(graph::kNoNode))
        rl_fatal("product of a ", m, " bp read x ", positions,
                 " graph positions has ", states,
                 " states, exceeding the 32-bit node-id space; split "
                 "the pangenome or map shorter reads");
    return states;
}

/**
 * Close either sweep: the super-sink fires at the first terminal
 * arrival, then the one verdict (core::detail::finishSweep()).
 */
void
finishGraphRace(GraphRaceResult &result, const core::SweepTally &tally,
                sim::Tick sinkTime, bool cancelled, sim::Tick horizon,
                size_t positions, core::KernelCounters *counters)
{
    if (sinkTime != sim::kTickInfinity) {
        ++result.cellsFired;
        if (!result.arrival.empty())
            result.arrival.back() = core::TemporalValue::at(sinkTime);
    }
    core::detail::finishSweep(result, tally, sinkTime, cancelled, horizon,
                              positions, counters);
    result.racedCost = result.score;
}

/**
 * An inhibited race's bound, the cost LB still to come, given the read
 * characters left and G(p): max of the two x the smallest weight.
 */
sim::Tick
bound(size_t readLeft, uint32_t toTerminal, sim::Tick minWeight)
{
    return std::max<sim::Tick>(readLeft, toTerminal) * minWeight;
}

/** H - LB, saturating at 0: the latest tick a state may fire at. */
sim::Tick
inhibitTime(sim::Tick horizon, sim::Tick lb)
{
    return horizon > lb ? horizon - lb : 0;
}

/**
 * The row sweep.  kInhibit races the inhibit at the horizon: it keeps
 * each state's value only within its limit, counts each arrival only
 * within its target's, and sweeps a segment of a read row only where
 * a live state of that row or the row above reaches it.
 */
template <bool kInhibit>
GraphRaceResult
sweepRows(const CompiledGraph &compiled, const bio::Sequence &read,
          const bio::ScoreMatrix &costs, sim::Tick horizon,
          GraphAlignScratch &scratch, const core::CancelToken *cancel,
          core::KernelCounters *counters, bool arrivals)
{
    const size_t states = checkGraphRaceInputs(compiled, read, costs);
    const size_t m = read.size();
    const size_t positions = compiled.positionCount();

    // Per-read weight rows, hoisted out of the sweep: the insertion
    // weight and one flat substitution row (indexed by graph symbol)
    // per read row.  Row 0 is swept like any other row, against a
    // virtual unfired row above it whose weights are unfired too.
    const size_t alpha = costs.alphabet().size();
    const std::vector<bio::Symbol> &symRead = read.symbols();
    scratch.gapRead.resize(m + 1);
    scratch.pairRow.resize((m + 1) * alpha);
    scratch.gapRead[0] = core::kSweepUnfired;
    std::fill_n(scratch.pairRow.begin(), alpha, core::kSweepUnfired);
    for (size_t j = 1; j <= m; ++j) {
        scratch.gapRead[j] = core::sweepWeight(costs.gap(symRead[j - 1]));
        sim::Tick *row = scratch.pairRow.data() + j * alpha;
        for (size_t s = 0; s < alpha; ++s)
            row[s] = core::sweepWeight(
                costs.pair(symRead[j - 1], static_cast<bio::Symbol>(s)));
    }
    scratch.above.assign(positions, core::kSweepUnfired);
    scratch.here.resize(positions);

    GraphRaceResult result;
    result.nodes = states;
    if (arrivals)
        result.arrival.assign(states, core::TemporalValue::never());

    const bio::Score *gapWeight = compiled.gapWeight.data();
    const bio::Symbol *symbol = compiled.symbol.data();
    core::SweepTally tally(horizon);

    // The inhibit's limits: state (j, p) keeps its value within
    // min(rowLimit(j), limit[p]), and a source counts every out-edge at
    // once within min(rowLimit(j), outLimit[p]), at most each target's.
    // Every value a segment left unswept holds is unfired: a buffer is
    // cleared where its row two back had a live state.
    const auto minWeight = static_cast<sim::Tick>(costs.minFinite());
    auto rowLimit = [&](size_t j) {
        return std::min(tally.limit,
                        inhibitTime(horizon, bound(m - j, 0, minWeight)));
    };
    if constexpr (kInhibit) {
        scratch.limit.resize(positions);
        scratch.outLimit.resize(positions);
        for (size_t p = 0; p < positions; ++p)
            scratch.limit[p] = inhibitTime(
                horizon, bound(0, compiled.toTerminal[p], minWeight));
        for (size_t p = 0; p < positions; ++p) {
            sim::Tick least = scratch.limit[p];
            for (uint32_t e = compiled.succOffsets[p];
                 e < compiled.succOffsets[p + 1]; ++e)
                least = std::min(least, scratch.limit[compiled.succ[e]]);
            scratch.outLimit[p] = least;
        }
        scratch.here.assign(positions, core::kSweepUnfired);
        scratch.liveAbove.assign(compiled.firstChar.size(), 0);
        scratch.liveHere.assign(compiled.firstChar.size(), 0);
    }
    [[maybe_unused]] const sim::Tick *limit = scratch.limit.data();
    [[maybe_unused]] const sim::Tick *outLimit = scratch.outLimit.data();

    sim::Tick sinkTime = sim::kTickInfinity;
    bool cancelled = cancel && cancel->cancelled();
    for (size_t j = 0; j <= m && !cancelled; ++j) {
        const sim::Tick insert = scratch.gapRead[j];
        const sim::Tick *pair = scratch.pairRow.data() + j * alpha;
        const sim::Tick *above = scratch.above.data();
        sim::Tick *here = scratch.here.data();
        const sim::Tick rowWithin = kInhibit ? rowLimit(j) : tally.limit;
        [[maybe_unused]] uint8_t *liveAbove = scratch.liveAbove.data();
        [[maybe_unused]] uint8_t *liveHere = scratch.liveHere.data();
        // The value state (j, q) keeps: unfired once inhibited.  The
        // deletion chain carries the value itself, which reaches no
        // target within its limit either.
        auto keep = [&](CharPos q, sim::Tick v) {
            if constexpr (kInhibit)
                return v <= std::min(rowWithin, limit[q]) ? v
                                                          : core::kSweepUnfired;
            return v;
        };

        // The recurrence alone.  Position 0 has only the insertion
        // in-edge; (0, 0) is the source, injected at tick 0.
        here[0] = keep(0, j == 0 ? 0
                                 : std::min(above[0] + insert,
                                            core::kSweepUnfired));
        for (SegmentId s : compiled.segmentOrder) {
            // A label's first character follows every predecessor
            // segment (or position 0)...
            CharPos q = compiled.firstChar[s];
            if constexpr (kInhibit) {
                bool reached = liveAbove[s] != 0;
                for (uint32_t e = compiled.predOffsets[q];
                     !reached && e < compiled.predOffsets[q + 1]; ++e) {
                    const CharPos p = compiled.pred[e];
                    reached = std::min(above[p], here[p]) < core::kSweepUnfired;
                }
                if (!reached) {
                    if (liveHere[s])
                        std::fill(here + q, here + compiled.lastChar[s] + 1,
                                  core::kSweepUnfired);
                    liveHere[s] = 0;
                    continue;
                }
            }
            sim::Tick best = above[q] + insert;
            const sim::Tick gap = static_cast<sim::Tick>(gapWeight[q]);
            const sim::Tick sub = pair[symbol[q]];
            for (uint32_t e = compiled.predOffsets[q];
                 e < compiled.predOffsets[q + 1]; ++e) {
                const CharPos p = compiled.pred[e];
                best = std::min(best, std::min(here[p] + gap,
                                               above[p] + sub));
            }
            // Clamping to kSweepUnfired keeps every working value at
            // most 2^62, which is what makes the additions safe.
            sim::Tick left = std::min(best, core::kSweepUnfired);
            here[q] = keep(q, left);
            [[maybe_unused]] sim::Tick live = here[q];
            // ...and every other character follows only the one before
            // it, whose value the sweep still holds.
            for (const CharPos last = compiled.lastChar[s]; q < last;) {
                ++q;
                const sim::Tick insertion = above[q] + insert;
                const sim::Tick substitution = above[q - 1] + pair[symbol[q]];
                const sim::Tick deletion =
                    left + static_cast<sim::Tick>(gapWeight[q]);
                left = std::min(std::min(std::min(insertion, substitution),
                                         core::kSweepUnfired),
                                deletion);
                here[q] = keep(q, left);
                if constexpr (kInhibit)
                    live = std::min(live, here[q]);
            }
            if constexpr (kInhibit)
                liveHere[s] = live < core::kSweepUnfired;
        }

        // The next row is certain to be swept only once its cancel
        // poll passes; until then this row's edges into it stay
        // uncounted, and a cancelled race stops with deletions only.
        cancelled = j < m && cancel && cancel->cancelled();
        const size_t next = j < m && !cancelled ? symRead[j] : alpha;
        const core::SweepOutEdges *profile =
            compiled.outEdges.data() + next * positions;
        const sim::Tick nextInsert =
            next < alpha ? scratch.gapRead[j + 1] : core::kSweepUnfired;
        const sim::Tick *nextPair =
            scratch.pairRow.data() + (next < alpha ? j + 1 : 0) * alpha;
        const sim::Tick nextWithin =
            kInhibit && j < m ? rowLimit(j + 1) : tally.limit;

        // Count, and publish, each settled state; unfired states read
        // back as never().  An inhibited sweep counts the segments that
        // hold a live state alone.
        core::TemporalValue *out =
            arrivals ? result.arrival.data() + j * positions : nullptr;
        size_t fired = 0;
        auto count = [&](size_t p) {
            const sim::Tick v = here[p];
            const bool hit = tally.fired(v);
            fired += hit;
            if (out)
                out[p] = hit ? core::TemporalValue::at(v)
                             : core::TemporalValue::never();
            if constexpr (kInhibit) {
                if (tally.settle(v, profile[p],
                                 std::min(rowWithin, outLimit[p])))
                    return;
                tally.arrive(v + nextInsert, std::min(nextWithin, limit[p]));
                for (uint32_t e = compiled.succOffsets[p];
                     e < compiled.succOffsets[p + 1]; ++e) {
                    const CharPos q = compiled.succ[e];
                    tally.arrive(v + static_cast<sim::Tick>(gapWeight[q]),
                                 std::min(rowWithin, limit[q]));
                    tally.arrive(v + nextPair[symbol[q]],
                                 std::min(nextWithin, limit[q]));
                }
            } else if (!tally.settle(v, profile[p])) {
                tally.arrive(v + nextInsert);
                for (uint32_t e = compiled.succOffsets[p];
                     e < compiled.succOffsets[p + 1]; ++e) {
                    const CharPos q = compiled.succ[e];
                    tally.arrive(v + static_cast<sim::Tick>(gapWeight[q]));
                    tally.arrive(v + nextPair[symbol[q]]);
                }
            }
        };
        if constexpr (kInhibit) {
            count(0);
            for (SegmentId s : compiled.segmentOrder)
                if (liveHere[s])
                    for (CharPos p = compiled.firstChar[s];
                         p <= compiled.lastChar[s]; ++p)
                        count(p);
        } else {
            for (size_t p = 0; p < positions; ++p)
                count(p);
        }
        result.cellsFired += fired;
        if (fired == 0) {
            // Section 6: no later row can fire either.  A cancel
            // polled here changes nothing: there is no row to stop.
            cancelled = false;
            break;
        }
        if (j == m) {
            // The zero-weight super-sink wires: one event per fired
            // terminal state (m, p), and the first terminal arrival
            // fires the sink OR.
            for (size_t p = 1; p < positions; ++p) {
                if (compiled.terminal[p] && tally.fired(here[p])) {
                    ++tally.events;
                    sinkTime = std::min(sinkTime, here[p]);
                }
            }
        }
        std::swap(scratch.above, scratch.here);
        std::swap(scratch.liveAbove, scratch.liveHere);
    }
    finishGraphRace(result, tally, sinkTime, cancelled, horizon, positions,
                    counters);
    return result;
}

} // namespace

GraphRaceResult
raceAlignmentGrid(const CompiledGraph &compiled, const bio::Sequence &read,
                  const bio::ScoreMatrix &costs, sim::Tick horizon)
{
    GraphAlignScratch scratch;
    return raceAlignmentGrid(compiled, read, costs, horizon, scratch);
}

GraphRaceResult
raceAlignmentGrid(const CompiledGraph &compiled, const bio::Sequence &read,
                  const bio::ScoreMatrix &costs, sim::Tick horizon,
                  GraphAlignScratch &scratch,
                  const core::CancelToken *cancel,
                  core::KernelCounters *counters, bool arrivals,
                  bool inhibit)
{
    // compileGraph() builds the band's tables only on a band host.
    if (!compiled.band.empty()) {
        if (std::optional<GraphRaceResult> raced =
                detail::raceAlignmentGridBand(compiled, read, costs, horizon,
                                              scratch, cancel, counters,
                                              arrivals, inhibit))
            return std::move(*raced);
    }
    return detail::raceAlignmentGridRows(compiled, read, costs, horizon,
                                         scratch, cancel, counters,
                                         arrivals, inhibit);
}

namespace detail {

GraphRaceResult
raceAlignmentGridRows(const CompiledGraph &compiled,
                      const bio::Sequence &read,
                      const bio::ScoreMatrix &costs, sim::Tick horizon,
                      GraphAlignScratch &scratch,
                      const core::CancelToken *cancel,
                      core::KernelCounters *counters, bool arrivals,
                      bool inhibit)
{
    return inhibit ? sweepRows<true>(compiled, read, costs, horizon, scratch,
                                     cancel, counters, arrivals)
                   : sweepRows<false>(compiled, read, costs, horizon,
                                      scratch, cancel, counters, arrivals);
}

std::optional<GraphRaceResult>
raceAlignmentGridBand(const CompiledGraph &compiled,
                      const bio::Sequence &read,
                      const bio::ScoreMatrix &costs, sim::Tick horizon,
                      GraphAlignScratch &scratch,
                      const core::CancelToken *cancel,
                      core::KernelCounters *counters, bool arrivals,
                      bool inhibit)
{
    using core::detail::kBandLanes;
    using core::detail::kBandPad;
    using core::detail::kBandUnfired;
    const size_t states = checkGraphRaceInputs(compiled, read, costs);
    rl_assert(core::detail::hostRunsBand(),
              "the graph band needs a host with AVX-512BW");
    const GraphBandTables &tables = compiled.band;
    rl_assert(tables.order.size() == compiled.positionCount() &&
                  !tables.empty(),
              "the graph was compiled without the band's tables");
    if (inhibit && horizon > UINT16_MAX)
        return std::nullopt;

    const size_t positions = compiled.positionCount();
    const std::vector<uint32_t> &rank = tables.rank;
    core::detail::BandBuffers &buffers = scratch.band;

    // The row above and the band's second row, by sweep index, padded
    // with unfired ticks, and the ring, from its first 64-byte boundary
    // so that each vector the band stores and loads is one cache line.
    const size_t stride = positions + 2 * kBandPad;
    buffers.row.assign(2 * stride, kBandUnfired);
    uint16_t *above = buffers.row.data() + kBandPad;
    const size_t ring = tables.window * core::detail::kHistoryStride;
    buffers.history.resize(ring + kBandLanes);
    void *history = buffers.history.data();
    size_t room = buffers.history.size() * sizeof(uint16_t);
    history = std::align(64, ring * sizeof(uint16_t), history, room);
    if (arrivals)
        buffers.skew.resize(kBandLanes * (positions + kBandLanes));

    GraphRaceResult result;
    result.nodes = states;
    // No arrival the lanes hold reaches kBandUnfired, so a limit below
    // it counts exactly the row sweep's arrivals while bandHolds().
    core::SweepTally tally(std::min(horizon, sim::Tick(kBandUnfired - 1)));
    sim::Tick sinkTime = sim::kTickInfinity;

    // The arrival vector, written once: each swept read row, staged in
    // position order, as its band publishes it, then the rows the race
    // left unswept and the sink.
    std::vector<core::TemporalValue> &stage = scratch.arrivalRow;
    if (arrivals) {
        result.arrival.reserve(states);
        stage.resize(positions);
    }
    // Publish one swept read row, whose value at sweep index k is
    // value(k); unfired (and inhibited) states read back as never().
    auto publish = [&](auto value) {
        const CharPos *order = tables.order.data();
        core::TemporalValue *row = stage.data();
        const sim::Tick limit = tally.limit;
        for (size_t k = 0; k < positions; ++k) {
            const sim::Tick v = value(k);
            row[order[k]] = v <= limit ? core::TemporalValue::at(v)
                                       : core::TemporalValue::never();
        }
        result.arrival.insert(result.arrival.end(), stage.begin(),
                              stage.end());
    };

    // An inhibited race's limits by position, in the weight rows'
    // layout, from the plan's bound row; row 0's are the lesser of
    // those and its read limit.
    const uint16_t *limits = nullptr;
    sim::Tick rowZero = tally.limit;
    if (inhibit) {
        buffers.profile.resize(stride);
        core::detail::bandLimits(
            tables.weights.data() +
                (core::detail::bandDeletionRow(costs.alphabet().size()) + 3) *
                    stride,
            stride, static_cast<uint16_t>(horizon),
            static_cast<uint16_t>(tally.limit), buffers.profile.data());
        limits = buffers.profile.data() + kBandPad + positions - 1;
        rowZero = std::min(
            tally.limit,
            inhibitTime(horizon,
                        bound(read.size(), 0,
                              static_cast<sim::Tick>(costs.minFinite()))));
    }

    bool cancelled = cancel && cancel->cancelled();
    if (!cancelled) {
        // Read row 0 -- the source, injected at tick 0, then deletions
        // alone -- is the row above the first band.
        above[0] = 0;
        for (size_t k = 1; k < positions; ++k) {
            const CharPos q = tables.order[k];
            const sim::Tick gap =
                core::detail::bandWeight(compiled.gapWeight[q]);
            const sim::Tick within =
                inhibit ? std::min<sim::Tick>(rowZero, *(limits - k))
                        : tally.limit;
            sim::Tick best = kBandUnfired;
            for (uint32_t e = compiled.predOffsets[q];
                 e < compiled.predOffsets[q + 1]; ++e) {
                const sim::Tick t = above[rank[compiled.pred[e]]] + gap;
                tally.arrive(t, within);
                best = std::min(best, t);
            }
            above[k] = static_cast<uint16_t>(
                inhibit && best > within ? kBandUnfired : best);
        }
        for (size_t k = 0; k < positions; ++k)
            result.cellsFired += tally.fired(above[k]);
        if (arrivals)
            publish([&](size_t k) { return above[k]; });

        core::detail::Band band;
        band.above = above;
        band.below = above + stride;
        band.inhibit = limits;
        band.weights = tables.weights.data();
        band.positions = positions;
        band.skew = arrivals ? buffers.skew.data() : nullptr;
        band.farBegin = tables.farBegin.data();
        band.far = tables.far.data();
        band.history = static_cast<uint16_t *>(history);
        band.window = tables.window;
        band.foldSteps = tables.foldSteps;
        band.reach = tables.reach;
        const core::detail::BandRace raced = core::detail::raceBands<false>(
            band, read, costs, horizon, tally, result.cellsFired, cancel,
            [&](size_t, size_t swept) {
                // Lane r's state at sweep index k is at step k + r.
                const uint16_t *skew = buffers.skew.data();
                for (size_t r = 0; r < swept; ++r)
                    publish([&](size_t k) {
                        return skew[(k + r) * kBandLanes + r];
                    });
            },
            [&] {
                // The zero-weight super-sink wires out of the read's
                // last row: one event per fired terminal state, and the
                // first terminal arrival fires the sink OR.
                for (size_t p = 1; p < positions; ++p) {
                    const sim::Tick v = band.above[rank[p]];
                    if (compiled.terminal[p] && tally.fired(v)) {
                        ++tally.events;
                        sinkTime = std::min(sinkTime, v);
                    }
                }
            });
        if (raced == core::detail::BandRace::Lost)
            return std::nullopt;
        cancelled = raced == core::detail::BandRace::Cancelled;
    }
    if (arrivals)
        result.arrival.resize(states, core::TemporalValue::never());
    finishGraphRace(result, tally, sinkTime, cancelled, horizon, positions,
                    counters);
    return result;
}

} // namespace detail

} // namespace racelogic::pangraph
