#include "rl/pangraph/graph_aligner.h"

#include <algorithm>
#include <utility>

#include "rl/core/scratch_registry.h"
#include "rl/core/race_network.h"
#include "rl/util/logging.h"

namespace racelogic::pangraph {

GraphAligner::GraphAligner(std::shared_ptr<const VariationGraph> graph,
                           bio::ScoreMatrix matrix, bio::Score lambda)
    : GraphAligner(
          tryMake(std::move(graph), std::move(matrix), lambda)
              .valueOrFatal())
{}

Expected<GraphAligner>
GraphAligner::tryMake(std::shared_ptr<const VariationGraph> graph,
                      bio::ScoreMatrix matrix, bio::Score lambda)
{
    if (graph == nullptr)
        return Status::error(ErrorCode::InvalidArgument,
                             "GraphAligner needs a graph");
    if (Status valid = graph->checkValid(); !valid.ok())
        return valid;
    if (!(graph->alphabet() == matrix.alphabet()))
        return Status::error(ErrorCode::InvalidArgument,
                             "graph uses alphabet ",
                             graph->alphabet().letters(),
                             ", matrix uses ",
                             matrix.alphabet().letters());

    std::optional<bio::ShortestPathForm> conversion;
    size_t spelled = 0;
    if (!matrix.isCost()) {
        if (lambda < 1)
            return Status::error(ErrorCode::InvalidArgument,
                                 "lambda must be a positive integer "
                                 "scale (got ", lambda, ")");
        auto range = graph->spelledLengthRange();
        if (range.first != range.second)
            return Status::error(
                ErrorCode::Unsupported,
                "similarity matrices need a rank-balanced graph "
                "(every source-to-sink walk the same length; got ",
                range.first, "..", range.second,
                "): the Section 5 conversion is affine in the "
                "walk length.  Race a Cost-kind matrix instead");
        spelled = range.first;
        conversion = bio::toShortestPathForm(matrix, lambda);
    } else if (lambda != 1) {
        return Status::error(ErrorCode::InvalidArgument,
                             "lambda scales similarity conversion "
                             "only");
    }

    // Plan-time validation of the race-ready weights -- finite gaps,
    // everything >= 1 and under the kernels' weight cap --
    // lives in checkCompilable(), the one place every racing path
    // passes through, so bad matrices fail here with a diagnostic
    // instead of deep inside the wavefront kernel.  (For similarity
    // inputs that overflow the cap, lowering lambda shrinks the
    // converted weights.)
    const bio::ScoreMatrix &race =
        conversion ? conversion->costs : matrix;
    auto compiled = tryCompileGraph(*graph, race);
    if (!compiled.ok())
        return compiled.status();

    return GraphAligner(std::move(graph), std::move(matrix),
                        std::move(conversion),
                        std::move(compiled.value()), spelled);
}

const bio::ScoreMatrix &
GraphAligner::costs() const
{
    return converted ? converted->costs : input;
}

bio::Score
GraphAligner::recoverScore(bio::Score racedCost, size_t readLength) const
{
    if (!converted)
        return racedCost;
    return converted->recoverScore(racedCost, spelledLength, readLength);
}

namespace {

/**
 * One kernel scratch per thread: align() stays const and thread-safe
 * (the scratch is live only within one call), and repeated aligns stop
 * re-allocating the working rows.  The registry entry publishes
 * resident bytes for the serving memory budget and lets its janitor
 * shrink an idle worker's scratch; each race holds a lease that keeps
 * shrinkers off it.
 */
struct ThreadScratch {
    ThreadScratch() = default;
    ThreadScratch(const ThreadScratch &) = delete;
    ThreadScratch &operator=(const ThreadScratch &) = delete;

    GraphAlignScratch scratch;
    core::ScratchRegistration registration{[this](bool shrink) {
        if (shrink)
            scratch.shrinkToFit();
        return scratch.residentBytes();
    }};
};

ThreadScratch &
threadScratch()
{
    static thread_local ThreadScratch local;
    return local;
}

} // namespace

GraphRaceResult
GraphAligner::align(const bio::Sequence &read, sim::Tick horizon,
                    const core::CancelToken *cancel,
                    core::KernelCounters *counters, bool arrivals) const
{
    ThreadScratch &local = threadScratch();
    core::ScratchLease lease(local.registration.entry());
    return align(read, horizon, local.scratch, cancel, counters, arrivals);
}

GraphRaceResult
GraphAligner::alignUnbounded(const bio::Sequence &read,
                             const core::CancelToken *cancel,
                             core::KernelCounters *counters,
                             bool arrivals) const
{
    ThreadScratch &local = threadScratch();
    core::ScratchLease lease(local.registration.entry());
    return alignUnbounded(read, local.scratch, cancel, counters, arrivals);
}

GraphRaceResult
GraphAligner::alignUnbounded(const bio::Sequence &read,
                             GraphAlignScratch &scratch,
                             const core::CancelToken *cancel,
                             core::KernelCounters *counters,
                             bool arrivals) const
{
    rl_assert(read.alphabet() == source->alphabet(),
              "read and graph use different alphabets");
    const sim::Tick least =
        std::max<sim::Tick>(read.size(), compiledGraph.toTerminal[0]) *
        static_cast<sim::Tick>(costs().minFinite());
    uint32_t misses = 0;
    for (sim::Tick slack = kInhibitSlack; slack <= least; slack *= 2) {
        core::KernelCounters attempt;
        GraphRaceResult result = raceAlignmentGrid(
            compiledGraph, read, costs(), least + slack, scratch, cancel,
            &attempt, arrivals, /*inhibit=*/true);
        if (result.completed || result.cancelled) {
            if (counters)
                counters->merge(attempt);
            if (result.completed)
                result.score = recoverScore(result.racedCost, read.size());
            result.inhibitMisses = misses;
            return result;
        }
        ++misses;
    }
    GraphRaceResult result = align(read, sim::kTickInfinity, scratch, cancel,
                                   counters, arrivals);
    result.inhibitMisses = misses;
    return result;
}

GraphRaceResult
GraphAligner::align(const bio::Sequence &read, sim::Tick horizon,
                    GraphAlignScratch &scratch,
                    const core::CancelToken *cancel,
                    core::KernelCounters *counters, bool arrivals) const
{
    rl_assert(read.alphabet() == source->alphabet(),
              "read and graph use different alphabets");
    GraphRaceResult result =
        raceAlignmentGrid(compiledGraph, read, costs(), horizon, scratch,
                          cancel, counters, arrivals);
    if (result.completed)
        result.score = recoverScore(result.racedCost, read.size());
    return result;
}

GraphRaceResult
GraphAligner::align(const AlignmentGraph &product, sim::Tick horizon) const
{
    core::RaceOutcome outcome = core::raceDag(
        product.dag, {product.source}, core::RaceType::Or, horizon);

    GraphRaceResult result;
    result.nodes = product.dag.nodeCount();
    result.events = outcome.events;
    const core::TemporalValue sinkArrival = outcome.at(product.sink);
    result.completed = sinkArrival.fired();
    if (result.completed) {
        result.racedCost = static_cast<bio::Score>(sinkArrival.time());
        result.latencyCycles = sinkArrival.time();
        result.score =
            recoverScore(result.racedCost, product.readLength);
    } else {
        rl_assert(horizon != sim::kTickInfinity,
                  "sink never fired; gap weights should guarantee a "
                  "walk");
        result.racedCost = bio::kScoreInfinity;
        result.score = bio::kScoreInfinity;
        result.latencyCycles = horizon;
    }
    result.cellsFired = static_cast<size_t>(std::count_if(
        outcome.firing.begin(), outcome.firing.end(),
        [](const core::TemporalValue &v) { return v.fired(); }));
    result.arrival = std::move(outcome.firing);
    return result;
}

GraphMapping
GraphAligner::map(const bio::Sequence &read) const
{
    GraphRaceResult raced = align(read);
    rl_assert(raced.completed, "mapping an aborted race");
    return mappingFromArrival(compiledGraph, read, costs(),
                              raced.arrival);
}

} // namespace racelogic::pangraph
