/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernels: the
 * event-driven race solver, the gate-level synchronous simulator,
 * the systolic engine, and the reference DP -- the knobs that set
 * how large a sweep the figure benches can afford.
 */

#include <benchmark/benchmark.h>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/bio/edit_graph.h"
#include "rl/bio/score_convert.h"
#include "rl/core/grid_fabric.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_network.h"
#include "rl/core/wavefront.h"
#include "rl/core/wavefront_band.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/systolic/lipton_lopresti.h"
#include "rl/util/random.h"

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

namespace {

// Which sweep produced the BM_EventDrivenRace and
// BM_RaceEditGridServed numbers: 32 lanes (the AVX-512BW band) or 1
// (the row sweep).  Printed
// in the run's context, where tools/bench_compare.py reads it to pick
// each headline row's baseline.
const bool kSweepContext = [] {
    benchmark::AddCustomContext("sweep_lanes",
                                std::to_string(core::sweepLanes()));
    return true;
}();

std::pair<Sequence, Sequence>
randomPair(uint64_t seed, size_t n)
{
    util::Rng rng(seed);
    return {Sequence::random(rng, Alphabet::dna(), n),
            Sequence::random(rng, Alphabet::dna(), n)};
}

void
BM_ReferenceDp(benchmark::State &state)
{
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(1, n);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    for (auto _ : state)
        benchmark::DoNotOptimize(bio::globalScore(a, b, m));
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_ReferenceDp)->Arg(16)->Arg(64)->Arg(256);

void
BM_EventDrivenRace(benchmark::State &state)
{
    // The behavioral race-grid hot path (name kept for the perf
    // trajectory): core::raceEditGrid's dense row sweep of the OR
    // race.  It races BM_ReferenceDp's pair, so the two rows compare
    // the race kernel with the DP it models on identical inputs (CI
    // gates the ratio).
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(1, n);
    core::RaceGridAligner racer(
        ScoreMatrix::dnaShortestPathInfMismatch());
    for (auto _ : state)
        benchmark::DoNotOptimize(racer.align(a, b).score);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_EventDrivenRace)->Arg(16)->Arg(64)->Arg(256);

void
BM_EventDrivenRaceScalar(benchmark::State &state)
{
    // BM_EventDrivenRace on the row sweep, called directly: the sweep
    // raceEditGrid runs on hosts without AVX-512BW.  CI gates it against
    // BM_ReferenceDp as well, so the fallback stays gated on runners
    // whose raceEditGrid takes the band.
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(1, n);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    for (auto _ : state) {
        core::RaceGridScratch scratch;
        benchmark::DoNotOptimize(
            core::detail::raceEditGridRows(a, b, m, sim::kTickInfinity,
                                           scratch)
                .score);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_EventDrivenRaceScalar)->Arg(64)->Arg(256);

void
BM_RaceEditGridServed(benchmark::State &state)
{
    // The race a serve worker runs per pairwise request: score-only,
    // counters on, scratch reused across requests.  BM_EventDrivenRace
    // builds the full arrival grid instead.
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(1, n);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    core::RaceGridScratch scratch;
    core::KernelCounters counters;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::raceEditGrid(a, b, m, sim::kTickInfinity, scratch,
                               nullptr, &counters, /*arrivals=*/false)
                .score);
    benchmark::DoNotOptimize(counters.events);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_RaceEditGridServed)->Arg(32)->Arg(128);

void
BM_RaceEditGridServedProtein(benchmark::State &state)
{
    // The served race on BLOSUM62's shortest-path costs: twenty
    // letters, more than the band's pair table holds, so the band
    // gathers its substitution weights.  It keeps the gather gated on
    // AVX-512BW runners, where the DNA rows take the pair table.  At
    // 1024 its costs pass the old worst-case path bound, (|a| + |b| + 1)
    // x 16 < 2^14, yet its arrivals stay below 2^14: the band keeps it.
    size_t n = size_t(state.range(0));
    util::Rng rng(1);
    ScoreMatrix m = bio::toShortestPathForm(ScoreMatrix::blosum62()).costs;
    Sequence a = Sequence::random(rng, Alphabet::protein(), n);
    Sequence b = Sequence::random(rng, Alphabet::protein(), n);
    core::RaceGridScratch scratch;
    core::KernelCounters counters;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::raceEditGrid(a, b, m, sim::kTickInfinity, scratch,
                               nullptr, &counters, /*arrivals=*/false)
                .score);
    benchmark::DoNotOptimize(counters.events);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_RaceEditGridServedProtein)->Arg(128)->Arg(1024);

void
BM_RaceDag(benchmark::State &state)
{
    // core::raceDag -- the race of the DagPath, DTW and affine
    // lattices -- on a prebuilt edit graph, isolating the race from
    // graph construction.  Each call still orders the graph and checks
    // its weights, as every caller's does.
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(2, n);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    bio::EditGraph eg = bio::makeEditGraph(a, b, m);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::raceDag(eg.dag, {eg.source}, core::RaceType::Or)
                .at(eg.sink)
                .rawTime());
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_RaceDag)->Arg(16)->Arg(64)->Arg(256);

/** The n x n gridDag (weights 1-9) both DagPath rows race. */
graph::Dag
dagPathGrid(size_t n)
{
    util::Rng rng(11);
    return graph::gridDag(rng, n, n, {1, 9});
}

void
BM_DagPathSolve(benchmark::State &state)
{
    // A score-only DagPath solve through the engine: the race and the
    // result it assembles.  It races BM_DagPathOracle's graph, so the
    // two rows compare the race with the DP it models (CI gates the
    // ratio).
    size_t n = size_t(state.range(0));
    graph::Dag dag = dagPathGrid(n);
    const auto sink = static_cast<graph::NodeId>(dag.nodeCount() - 1);
    api::RaceProblem problem = api::RaceProblem::dagPath(
        std::move(dag), {0}, sink, graph::Objective::Shortest);
    problem.arrivals = false;
    api::EngineConfig config;
    config.withEstimates = false;
    api::RaceEngine engine(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.solve(problem).score);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_DagPathSolve)->Arg(256);

void
BM_DagPathOracle(benchmark::State &state)
{
    // The DAG DP (graph::solveDag) on BM_DagPathSolve's graph.
    size_t n = size_t(state.range(0));
    const graph::Dag dag = dagPathGrid(n);
    const auto sink = static_cast<graph::NodeId>(dag.nodeCount() - 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            graph::solveDag(dag, {0}, graph::Objective::Shortest)
                .distance[sink]);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_DagPathOracle)->Arg(256);

void
BM_ScreeningRaceWithHorizon(benchmark::State &state)
{
    // Section 6 in the simulator itself: an unrelated pair races only
    // to the threshold cycle, not to grid drain.
    size_t n = size_t(state.range(0));
    util::Rng rng(8);
    Sequence a = Sequence::random(rng, Alphabet::dna(), n);
    Sequence b = Sequence::random(rng, Alphabet::dna(), n);
    core::RaceGridAligner racer(
        ScoreMatrix::dnaShortestPathInfMismatch());
    const sim::Tick threshold = n / 2;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            racer.align(a, b, threshold).completed);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_ScreeningRaceWithHorizon)->Arg(64)->Arg(256);

void
BM_SyncSimGrid(benchmark::State &state)
{
    // The interpretive reference: full O(gates x cycles) settle
    // loops.  The before-number of the compiled-kernel contrast.
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(3, n);
    const core::GridFabric fabric =
        core::GridFabric::unitCells(Alphabet::dna(), n, n);
    circuit::SyncSim sim(fabric.netlist());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::raceFabricPair(sim, fabric, a, b).score);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_SyncSimGrid)->Arg(16)->Arg(32)->Arg(64);

void
BM_CompiledSimGrid(benchmark::State &state)
{
    // The levelized event-driven kernel on the same fabric: only the
    // wavefront's dirty frontier is re-evaluated each cycle.
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(3, n);
    const core::GridFabric fabric =
        core::GridFabric::unitCells(Alphabet::dna(), n, n);
    circuit::CompiledSim sim(fabric.compiled());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::raceFabricPair(sim, fabric, a, b).score);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_CompiledSimGrid)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void
BM_CompiledSim64Lane(benchmark::State &state)
{
    // 64 independent comparisons per simulation word: the gate-level
    // database-screening configuration.  items processed counts all
    // 64 comparisons, so items/sec is directly comparable to
    // BM_CompiledSimGrid's per-comparison rate.
    size_t n = size_t(state.range(0));
    util::Rng rng(10);
    const core::GridFabric fabric =
        core::GridFabric::unitCells(Alphabet::dna(), n, n);
    std::vector<Sequence> as, bs;
    std::vector<core::LanePair> lanes;
    for (unsigned l = 0; l < 64; ++l) {
        as.push_back(Sequence::random(rng, Alphabet::dna(), n));
        bs.push_back(Sequence::random(rng, Alphabet::dna(), n));
    }
    for (unsigned l = 0; l < 64; ++l)
        lanes.push_back({&as[l], &bs[l]});
    for (auto _ : state)
        benchmark::DoNotOptimize(fabric.alignLanes(lanes).cyclesRun);
    state.SetItemsProcessed(int64_t(state.iterations()) * 64 *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_CompiledSim64Lane)->Arg(16)->Arg(32)->Arg(64);

void
BM_SystolicArray(benchmark::State &state)
{
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(4, n);
    systolic::LiptonLoprestiArray array(
        ScoreMatrix::dnaShortestPathInfMismatch());
    for (auto _ : state)
        benchmark::DoNotOptimize(array.align(a, b).score);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(3 * n) * int64_t(2 * n + 1));
}
BENCHMARK(BM_SystolicArray)->Arg(16)->Arg(64)->Arg(256);

void
BM_GeneralizedBehavioral(benchmark::State &state)
{
    // Section 5 conversion + race + score recovery through the engine,
    // on its cached plan (one conversion, then pure solves).
    size_t n = size_t(state.range(0));
    util::Rng rng(5);
    Sequence a = Sequence::random(rng, Alphabet::protein(), n);
    Sequence b = Sequence::random(rng, Alphabet::protein(), n);
    api::EngineConfig config;
    config.withEstimates = false;
    api::RaceEngine engine(config);
    const api::RaceProblem problem = api::RaceProblem::generalizedAlignment(
        ScoreMatrix::blosum62(), a, b);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.solve(problem).score);
}
BENCHMARK(BM_GeneralizedBehavioral)->Arg(16)->Arg(64);

void
BM_GateLevelGeneralizedBuild(benchmark::State &state)
{
    // Fabric construction cost (netlist synthesis), BLOSUM62 cells.
    const ScoreMatrix costs =
        bio::toShortestPathForm(ScoreMatrix::blosum62()).costs;
    for (auto _ : state) {
        const core::GridFabric fabric =
            core::GridFabric::generalized(costs, 2, 2);
        benchmark::DoNotOptimize(fabric.netlist().gateCount());
    }
}
BENCHMARK(BM_GateLevelGeneralizedBuild);

void
BM_ApiEngineSolveCached(benchmark::State &state)
{
    // Facade overhead on the hot path: same-shape solves after the
    // first all hit the plan cache, so this measures solve() against
    // BM_EventDrivenRace's bare-kernel numbers.
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(6, n);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    api::EngineConfig config;
    config.withEstimates = false;
    api::RaceEngine engine(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.solve(api::RaceProblem::pairwiseAlignment(m, a, b))
                .score);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_ApiEngineSolveCached)->Arg(16)->Arg(64)->Arg(256);

void
BM_SolveBatchThreads(benchmark::State &state)
{
    // Thread-pool scaling of the batch screening front door: one
    // fixed workload, worker count swept.  Near-linear up to the
    // physical cores is the target; UseRealTime because the work
    // spreads across the pool.
    const size_t threads = size_t(state.range(0));
    const size_t entries = 64;
    util::Rng rng(9);
    auto wl = bio::makeScreeningWorkload(
        rng, Alphabet::dna(), 64, entries, 0.2,
        bio::MutationModel::uniform(0.08));
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    std::vector<api::RaceProblem> problems;
    for (const Sequence &candidate : wl.database)
        problems.push_back(api::RaceProblem::thresholdScreen(
            m, 80, wl.query, candidate));

    api::EngineConfig config;
    config.workerThreads = threads;
    config.withEstimates = false;
    api::RaceEngine engine(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.solveBatch(problems).busyCycles());
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(entries));
}
BENCHMARK(BM_SolveBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

void
BM_ApiEnginePlanMiss(benchmark::State &state)
{
    // Cold-plan cost: caching disabled, every solve replans
    // (similarity conversion included -- BLOSUM62 input).
    util::Rng rng(7);
    Sequence a = Sequence::random(rng, Alphabet::protein(), 16);
    Sequence b = Sequence::random(rng, Alphabet::protein(), 16);
    ScoreMatrix blosum = ScoreMatrix::blosum62();
    api::EngineConfig config;
    config.planCacheCapacity = 0;
    config.withEstimates = false;
    api::RaceEngine engine(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine
                .solve(api::RaceProblem::generalizedAlignment(blosum, a,
                                                              b))
                .score);
}
BENCHMARK(BM_ApiEnginePlanMiss);

} // namespace
