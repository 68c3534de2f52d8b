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
#include "rl/core/generalized.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_grid_circuit.h"
#include "rl/core/wavefront.h"
#include "rl/systolic/lipton_lopresti.h"
#include "rl/util/random.h"

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

namespace {

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
    // gates the ratio); BM_HeapEventQueueRace is the event-driven
    // pipeline it replaced.
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
BM_HeapEventQueueRace(benchmark::State &state)
{
    // The pre-kernel pipeline: materialize the edit graph, race it on
    // the heap-scheduled event queue (one std::function per edge
    // arrival).  Kept as the baseline the wavefront kernel is
    // measured against.
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(2, n);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    for (auto _ : state) {
        bio::EditGraph eg = bio::makeEditGraph(a, b, m);
        benchmark::DoNotOptimize(
            core::raceDagEventDriven(eg.dag, {eg.source},
                                     core::RaceType::Or)
                .at(eg.sink)
                .rawTime());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_HeapEventQueueRace)->Arg(16)->Arg(64)->Arg(256);

void
BM_WavefrontKernelDag(benchmark::State &state)
{
    // The general CSR bucket kernel on a prebuilt DAG (the DTW /
    // DAG-path substrate), isolating kernel cost from graph
    // construction.
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(2, n);
    ScoreMatrix m = ScoreMatrix::dnaShortestPathInfMismatch();
    bio::EditGraph eg = bio::makeEditGraph(a, b, m);
    core::WavefrontRaceKernel kernel(eg.dag);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            kernel.race({eg.source}, core::RaceType::Or)
                .at(eg.sink)
                .rawTime());
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(n) * int64_t(n));
}
BENCHMARK(BM_WavefrontKernelDag)->Arg(16)->Arg(64)->Arg(256);

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
BM_GateLevelRaceGrid(benchmark::State &state)
{
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(3, n);
    core::RaceGridCircuit fabric(Alphabet::dna(), n, n);
    for (auto _ : state)
        benchmark::DoNotOptimize(fabric.align(a, b).score);
    // Gate evaluations per comparison ~ gates x cycles.
    state.SetItemsProcessed(
        int64_t(state.iterations()) *
        int64_t(fabric.netlist().gateCount()) * int64_t(2 * n));
}
BENCHMARK(BM_GateLevelRaceGrid)->Arg(8)->Arg(16)->Arg(32);

void
BM_SyncSimGrid(benchmark::State &state)
{
    // The interpretive reference: full O(gates x cycles) settle
    // loops.  The before-number of the compiled-kernel contrast.
    size_t n = size_t(state.range(0));
    auto [a, b] = randomPair(3, n);
    core::RaceGridCircuit fabric(Alphabet::dna(), n, n);
    for (auto _ : state)
        benchmark::DoNotOptimize(fabric.alignReference(a, b).score);
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
    core::RaceGridCircuit fabric(Alphabet::dna(), n, n);
    for (auto _ : state)
        benchmark::DoNotOptimize(fabric.align(a, b).score);
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
    core::RaceGridCircuit fabric(Alphabet::dna(), n, n);
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
        core::GeneralizedGridCircuit fabric(costs, 2, 2);
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
