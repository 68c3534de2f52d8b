#include "rl/core/async_race.h"

#include <algorithm>
#include <cmath>

#include "rl/graph/paths.h"
#include "rl/graph/topo.h"
#include "rl/util/logging.h"

namespace racelogic::core {

namespace {

/** Standard normal via Box-Muller on the library Rng. */
double
gaussian(util::Rng &rng)
{
    double u1 = rng.uniformReal();
    double u2 = rng.uniformReal();
    if (u1 < 1e-300)
        u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

} // namespace

AsyncOutcome
raceDagAnalog(const graph::Dag &dag,
              const std::vector<graph::NodeId> &sources, RaceType type,
              const AnalogDelayModel &model, util::Rng &rng)
{
    // Continuous time, but arrival order still follows topological
    // structure, so a topological sweep is exact (and deterministic);
    // topologicalOrder() exits on a cycle.
    const std::vector<graph::NodeId> order = graph::topologicalOrder(dag);
    rl_assert(!sources.empty(), "race needs at least one source");
    rl_assert(model.unitDelayNs > 0, "unit delay must be positive");
    rl_assert(model.sigma >= 0, "sigma must be non-negative");

    AsyncOutcome outcome;
    outcome.arrivalNs.assign(dag.nodeCount(), AsyncOutcome::kNeverNs);
    outcome.edgeDelaysNs.resize(dag.edgeCount());
    for (size_t e = 0; e < dag.edgeCount(); ++e) {
        const graph::Edge &edge = dag.edges()[e];
        rl_assert(edge.weight >= 0, "negative weight in analog race");
        double variation =
            model.sigma == 0.0 ? 1.0
                               : std::exp(model.sigma * gaussian(rng));
        outcome.edgeDelaysNs[e] = static_cast<double>(edge.weight) *
                                  model.unitDelayNs * variation;
    }

    std::vector<bool> is_source(dag.nodeCount(), false);
    for (graph::NodeId s : sources) {
        rl_assert(s < dag.nodeCount(), "bad source node ", s);
        is_source[s] = true;
        outcome.arrivalNs[s] = 0.0;
    }

    for (graph::NodeId node : order) {
        if (is_source[node])
            continue;
        const auto &in = dag.inEdges(node);
        if (in.empty())
            continue;
        double value = type == RaceType::Or ? AsyncOutcome::kNeverNs
                                            : 0.0;
        bool all_fired = true;
        for (uint32_t idx : in) {
            const graph::Edge &edge = dag.edges()[idx];
            double pred = outcome.arrivalNs[edge.from];
            if (pred >= AsyncOutcome::kNeverNs) {
                all_fired = false;
                continue;
            }
            double t = pred + outcome.edgeDelaysNs[idx];
            value = type == RaceType::Or ? std::min(value, t)
                                         : std::max(value, t);
        }
        if (type == RaceType::And && !all_fired)
            value = AsyncOutcome::kNeverNs; // a dead input stalls AND
        outcome.arrivalNs[node] = value;
    }
    return outcome;
}

RobustnessReport
analyzeVariationRobustness(const graph::Dag &dag,
                           const std::vector<graph::NodeId> &sources,
                           graph::NodeId sink,
                           const AnalogDelayModel &model, size_t trials,
                           util::Rng &rng)
{
    rl_assert(sink < dag.nodeCount(), "bad sink");
    auto dp = graph::solveDag(dag, sources, graph::Objective::Shortest);
    rl_assert(dp.reached(sink), "sink unreachable");
    const double ideal =
        static_cast<double>(dp.distance[sink]) * model.unitDelayNs;

    std::vector<bool> is_source(dag.nodeCount(), false);
    for (graph::NodeId s : sources)
        is_source[s] = true;

    RobustnessReport report;
    report.trials = trials;
    for (size_t trial = 0; trial < trials; ++trial) {
        AsyncOutcome outcome =
            raceDagAnalog(dag, sources, RaceType::Or, model, rng);
        rl_assert(outcome.fired(sink), "analog race lost the sink");
        double measured = outcome.arrivalNs[sink];

        // Readout: a time-to-digital converter quantizing by the
        // nominal unit delay.
        auto readout = static_cast<graph::Weight>(
            std::llround(measured / model.unitDelayNs));
        if (readout == dp.distance[sink])
            ++report.readoutExact;

        double rel = std::fabs(measured - ideal) / std::max(ideal, 1e-9);
        report.meanRelativeError += rel / static_cast<double>(trials);
        report.maxRelativeError =
            std::max(report.maxRelativeError, rel);

        // Recover the analog winner path by tight-edge traceback and
        // price it with the true integer weights.
        graph::NodeId node = sink;
        graph::Weight true_weight = 0;
        bool broken = false;
        size_t guard = dag.nodeCount() + 1;
        while (!is_source[node] && guard-- > 0) {
            double here = outcome.arrivalNs[node];
            uint32_t best_idx = ~0u;
            double best_gap = 1e-6; // tolerance for fp equality
            for (uint32_t idx : dag.inEdges(node)) {
                const graph::Edge &edge = dag.edges()[idx];
                double pred = outcome.arrivalNs[edge.from];
                if (pred >= AsyncOutcome::kNeverNs)
                    continue;
                double gap = std::fabs(
                    pred + outcome.edgeDelaysNs[idx] - here);
                if (gap < best_gap) {
                    best_gap = gap;
                    best_idx = idx;
                }
            }
            if (best_idx == ~0u) {
                broken = true;
                break;
            }
            true_weight += dag.edges()[best_idx].weight;
            node = dag.edges()[best_idx].from;
        }
        if (!broken && is_source[node] &&
            true_weight == dp.distance[sink])
            ++report.decisionCorrect;
    }
    return report;
}

} // namespace racelogic::core
