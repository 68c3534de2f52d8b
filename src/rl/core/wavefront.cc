#include "rl/core/wavefront.h"

#include <algorithm>

#include "rl/util/logging.h"

namespace racelogic::core {

WavefrontRaceKernel::WavefrontRaceKernel(const graph::Dag &dag)
    : csr(dag.outEdgesCsr())
{
    inDegree.assign(dag.nodeCount(), 0);
    for (graph::NodeId to : csr.to)
        ++inDegree[to];
    for (graph::Weight w : csr.weight) {
        rl_assert(w >= 0 && w <= kMaxWavefrontWeight,
                  "wavefront kernel weight ", w, " outside [0, ",
                  kMaxWavefrontWeight, "]; validate the problem "
                  "(api::RaceEngine::validate()) before racing it");
        maxWeight = std::max(maxWeight, w);
    }
}

RaceOutcome
WavefrontRaceKernel::race(const std::vector<graph::NodeId> &sources,
                          RaceType type, sim::Tick horizon) const
{
    rl_assert(!sources.empty(), "race needs at least one source");

    const size_t n = nodeCount();
    RaceOutcome outcome;
    outcome.firing.assign(n, TemporalValue::never());

    // And nodes fire on the last arrival (in-degree countdown); Or
    // nodes on the first (later arrivals are absorbed).
    std::vector<uint32_t> waiting;
    if (type == RaceType::And)
        waiting = inDegree;

    // The calendar: ring of maxWeight+1 buckets, one per future tick
    // an arrival can land on.  Entries are arrival target nodes.
    const size_t ring = static_cast<size_t>(maxWeight) + 1;
    std::vector<std::vector<graph::NodeId>> buckets(ring);
    size_t pending = 0;
    sim::Tick lastFired = 0;

    auto fire = [&](graph::NodeId node, sim::Tick t) {
        outcome.firing[node] = TemporalValue::at(t);
        lastFired = std::max(lastFired, t);
        const uint32_t begin = csr.offsets[node];
        const uint32_t end = csr.offsets[node + 1];
        for (uint32_t e = begin; e < end; ++e) {
            sim::Tick at = t + static_cast<sim::Tick>(csr.weight[e]);
            if (at > horizon)
                continue; // Section 6: the abort counter trips first.
            buckets[at % ring].push_back(csr.to[e]);
            ++pending;
        }
    };

    for (graph::NodeId s : sources) {
        rl_assert(s < n, "bad source node ", s);
        // In AND mode a source with in-edges would double-fire; the
        // injected edge dominates (hardware ties the input high).
        if (type == RaceType::And)
            waiting[s] = 0;
        if (!outcome.firing[s].fired())
            fire(s, 0);
    }

    for (sim::Tick t = 0; pending > 0; ++t) {
        std::vector<graph::NodeId> &bucket = buckets[t % ring];
        // Index loop: zero-weight edges append to this same bucket
        // mid-drain and must still fire at tick t.
        for (size_t i = 0; i < bucket.size(); ++i) {
            graph::NodeId node = bucket[i];
            --pending;
            ++outcome.events;
            if (outcome.firing[node].fired())
                continue; // OR node already high
            if (type == RaceType::Or) {
                fire(node, t);
            } else {
                rl_assert(waiting[node] > 0, "arrival underflow");
                if (--waiting[node] == 0)
                    fire(node, t); // last arrival = max
            }
        }
        bucket.clear();
    }

    outcome.horizon = lastFired;
    return outcome;
}

RaceGridResult
raceEditGrid(const bio::Sequence &a, const bio::Sequence &b,
             const bio::ScoreMatrix &costs, sim::Tick horizon)
{
    RaceGridScratch scratch;
    return raceEditGrid(a, b, costs, horizon, scratch);
}

RaceGridResult
raceEditGrid(const bio::Sequence &a, const bio::Sequence &b,
             const bio::ScoreMatrix &costs, sim::Tick horizon,
             RaceGridScratch &scratch, const CancelToken *cancel,
             KernelCounters *counters, bool arrivals)
{
    rl_assert(a.alphabet() == costs.alphabet() &&
              b.alphabet() == costs.alphabet(),
              "sequences and matrix use different alphabets");
    // Delays >= 1 are what make every cell fire at exactly its
    // min-plus DP value; zero-weight graphs race on the DAG kernel.
    rl_assert(costs.minFinite() >= 1,
              "raceEditGrid requires all finite weights >= 1 (got ",
              costs.minFinite(), ")");

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
    result.events = tally.events;

    // Profiling export: everything below was tracked by the sweep
    // anyway (or is a container size), so a null `counters` costs
    // nothing and a non-null one cannot change the result.
    if (counters) {
        counters->events += result.events;
        counters->bucketsDrained += tally.latest + 1;
        counters->scratchHighWater = std::max(
            counters->scratchHighWater, static_cast<uint64_t>(cols + 1));
        counters->lanesOccupied += result.cellsFired;
    }

    if (sink != sim::kTickInfinity) {
        result.completed = true;
        result.score = static_cast<bio::Score>(sink);
        result.latencyCycles = sink;
    } else if (cancelled) {
        // Cancelled before the sink fired: the same typed-abort shape
        // as a horizon trip, stamped with the latest arrival scheduled.
        result.completed = false;
        result.cancelled = true;
        result.score = bio::kScoreInfinity;
        result.latencyCycles = tally.latest;
        if (counters)
            ++counters->cancels;
    } else {
        rl_assert(horizon != sim::kTickInfinity,
                  "sink never fired; gap weights should guarantee a "
                  "path");
        result.completed = false;
        result.score = bio::kScoreInfinity;
        result.latencyCycles = horizon;
        if (counters)
            ++counters->horizonAborts;
    }
    return result;
}

} // namespace racelogic::core
