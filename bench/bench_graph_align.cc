/**
 * @file
 * google-benchmark suite for the rl/pangraph workload: product-DAG
 * construction, the fused raced alignment (the GraphAlign hot path),
 * the materialized-DAG reference it is checked against, the graph-NW
 * oracle, traceback, and engine read-mapping batches on one cached
 * graph plan.
 *
 * The graph scales with the read: a random variation graph whose
 * backbone grows with range(0), read sampled from a walk with
 * Section 6-style mutation noise.  BM_GraphAlignRace/64,
 * BM_GraphAlignFused/64, BM_GraphAlignServed/64 and
 * BM_GraphMapReadsBatch/1 are headline benches (tools/bench_compare.py)
 * -- refresh BENCH_baseline.json in the PR that changes them.
 */

#include <benchmark/benchmark.h>

#include "rl/api/api.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/graph_align_band.h"
#include "rl/pangraph/graph_align_dp.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/util/random.h"

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

namespace {

// Which sweep produced the fused-kernel numbers: 32 lanes (the
// AVX-512BW graph band) or 1 (the row sweep).  Printed in the run's context, where tools/bench_compare.py
// reads it to pick each headline row's baseline.
const bool kSweepContext = [] {
    benchmark::AddCustomContext("sweep_lanes",
                                std::to_string(core::sweepLanes()));
    return true;
}();

struct Workload {
    std::shared_ptr<const pangraph::VariationGraph> graph;
    Sequence read;

    explicit Workload(size_t backbone, uint64_t seed = 17)
        : read(Alphabet::dna())
    {
        util::Rng rng(seed);
        pangraph::VariationGraphParams params;
        params.backboneSegments = backbone;
        params.maxLabel = 8;
        params.snpDensity = 0.4;
        params.insertDensity = 0.2;
        params.deleteDensity = 0.2;
        graph = std::make_shared<pangraph::VariationGraph>(
            pangraph::randomVariationGraph(rng, Alphabet::dna(),
                                           params));
        read = pangraph::sampleRead(rng, *graph,
                                    bio::MutationModel::uniform(0.2));
    }
};

void
BM_GraphAlignBuild(benchmark::State &state)
{
    // Product-DAG construction alone: the per-read planning cost the
    // race pays on top of the cached graph compile.
    Workload w(size_t(state.range(0)));
    pangraph::GraphAligner aligner(w.graph,
                                   ScoreMatrix::dnaShortestPath());
    for (auto _ : state)
        benchmark::DoNotOptimize(pangraph::buildAlignmentGraph(
            aligner.compiled(), w.read, aligner.costs()));
}
BENCHMARK(BM_GraphAlignBuild)->Arg(16)->Arg(64);

void
BM_GraphAlignRace(benchmark::State &state)
{
    // The GraphAlign hot path: one read against a cached plan via
    // the default align() -- the fused kernel, on the wrapper's
    // per-thread scratch, plus score recovery (headline bench;
    // BM_GraphAlignFused isolates the raw kernel sweep).
    Workload w(size_t(state.range(0)));
    pangraph::GraphAligner aligner(w.graph,
                                   ScoreMatrix::dnaShortestPath());
    for (auto _ : state)
        benchmark::DoNotOptimize(aligner.align(w.read));
    state.SetItemsProcessed(
        int64_t(state.iterations()) * int64_t(w.read.size()) *
        int64_t(w.graph->totalLabelLength()));
}
BENCHMARK(BM_GraphAlignRace)->Arg(16)->Arg(64);

void
BM_GraphAlignFused(benchmark::State &state)
{
    // Steady-state fused sweep: working rows and weight rows reused
    // across reads, the per-thread shape of the engine's read-mapping
    // batch body (headline bench).  Same workload as
    // BM_GraphAlignOracle, so the pair compares the race kernel with
    // the graph DP it models (CI gates the ratio).
    Workload w(size_t(state.range(0)));
    pangraph::GraphAligner aligner(w.graph,
                                   ScoreMatrix::dnaShortestPath());
    pangraph::GraphAlignScratch scratch;
    for (auto _ : state)
        benchmark::DoNotOptimize(pangraph::raceAlignmentGrid(
            aligner.compiled(), w.read, aligner.costs(),
            sim::kTickInfinity, scratch));
    state.SetItemsProcessed(
        int64_t(state.iterations()) * int64_t(w.read.size()) *
        int64_t(w.graph->totalLabelLength()));
}
BENCHMARK(BM_GraphAlignFused)->Arg(16)->Arg(64);

void
BM_GraphAlignFusedScalar(benchmark::State &state)
{
    // BM_GraphAlignFused on the row sweep, called directly: the sweep
    // raceAlignmentGrid runs on hosts without AVX-512BW.  CI gates it
    // against BM_GraphAlignOracle as well, so the fallback stays gated
    // on runners whose raceAlignmentGrid takes the band.
    Workload w(size_t(state.range(0)));
    pangraph::GraphAligner aligner(w.graph,
                                   ScoreMatrix::dnaShortestPath());
    pangraph::GraphAlignScratch scratch;
    for (auto _ : state)
        benchmark::DoNotOptimize(pangraph::detail::raceAlignmentGridRows(
            aligner.compiled(), w.read, aligner.costs(),
            sim::kTickInfinity, scratch));
    state.SetItemsProcessed(
        int64_t(state.iterations()) * int64_t(w.read.size()) *
        int64_t(w.graph->totalLabelLength()));
}
BENCHMARK(BM_GraphAlignFusedScalar)->Arg(16)->Arg(64);

void
BM_GraphAlignServed(benchmark::State &state)
{
    // The race a serve worker runs per GraphAlign request: the
    // unbounded policy's inhibited race (GraphAligner::alignUnbounded),
    // score-only, counters on, scratch reused across requests.
    // BM_GraphAlignFused fills the arrival vector instead.
    Workload w(size_t(state.range(0)));
    pangraph::GraphAligner aligner(w.graph,
                                   ScoreMatrix::dnaShortestPath());
    pangraph::GraphAlignScratch scratch;
    core::KernelCounters counters;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            aligner
                .alignUnbounded(w.read, scratch, nullptr, &counters,
                                /*arrivals=*/false)
                .racedCost);
    benchmark::DoNotOptimize(counters.events);
    state.SetItemsProcessed(
        int64_t(state.iterations()) * int64_t(w.read.size()) *
        int64_t(w.graph->totalLabelLength()));
}
BENCHMARK(BM_GraphAlignServed)->Arg(64);

void
BM_GraphAlignServedPlain(benchmark::State &state)
{
    // BM_GraphAlignServed's race before the inhibit: every product
    // state races.  CI holds the pair in one run.
    Workload w(size_t(state.range(0)));
    pangraph::GraphAligner aligner(w.graph,
                                   ScoreMatrix::dnaShortestPath());
    pangraph::GraphAlignScratch scratch;
    core::KernelCounters counters;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pangraph::raceAlignmentGrid(aligner.compiled(), w.read,
                                        aligner.costs(), sim::kTickInfinity,
                                        scratch, nullptr, &counters,
                                        /*arrivals=*/false)
                .racedCost);
    benchmark::DoNotOptimize(counters.events);
    state.SetItemsProcessed(
        int64_t(state.iterations()) * int64_t(w.read.size()) *
        int64_t(w.graph->totalLabelLength()));
}
BENCHMARK(BM_GraphAlignServedPlain)->Arg(64);

void
BM_GraphAlignReference(benchmark::State &state)
{
    // The materialized path the fused kernel replaced: build the
    // product graph::Dag, then race it on core::raceDag -- the
    // GateLevel GraphAlign product race.  Kept as the before number
    // (and the gate-level synthesis path).
    Workload w(size_t(state.range(0)));
    pangraph::GraphAligner aligner(w.graph,
                                   ScoreMatrix::dnaShortestPath());
    for (auto _ : state)
        benchmark::DoNotOptimize(aligner.align(pangraph::buildAlignmentGraph(
            aligner.compiled(), w.read, aligner.costs())));
}
BENCHMARK(BM_GraphAlignReference)->Arg(16)->Arg(64);

void
BM_GraphAlignOracle(benchmark::State &state)
{
    // The software graph-NW baseline over the same workload.
    Workload w(size_t(state.range(0)));
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pangraph::graphAlignDp(*w.graph, w.read, costs));
}
BENCHMARK(BM_GraphAlignOracle)->Arg(16)->Arg(64);

void
BM_GraphAlignTraceback(benchmark::State &state)
{
    // (walk, CIGAR) reconstruction alone: race once outside the
    // loop, then walk tight edges of the arrival vector per
    // iteration.  (It used to re-run build+race per iteration, which
    // made the row meaningless as a traceback number.)
    Workload w(size_t(state.range(0)));
    pangraph::GraphAligner aligner(w.graph,
                                   ScoreMatrix::dnaShortestPath());
    pangraph::GraphRaceResult raced = aligner.align(w.read);
    for (auto _ : state)
        benchmark::DoNotOptimize(pangraph::mappingFromArrival(
            aligner.compiled(), w.read, aligner.costs(),
            raced.arrival));
}
BENCHMARK(BM_GraphAlignTraceback)->Arg(16)->Arg(64);

void
BM_GraphMapReadsBatch(benchmark::State &state)
{
    // Engine read-mapping: 64 reads against one cached plan, with a
    // screening threshold; range = worker threads (flat on 1-CPU
    // hosts -- see docs/performance.md).
    Workload w(24);
    util::Rng rng(5);
    std::vector<Sequence> reads;
    for (int i = 0; i < 64; ++i)
        reads.push_back(pangraph::sampleRead(
            rng, *w.graph, bio::MutationModel::uniform(0.25)));
    const bio::Score threshold =
        static_cast<bio::Score>(w.graph->spelledLengthRange().second +
                                8);
    api::EngineConfig cfg;
    cfg.workerThreads = size_t(state.range(0));
    cfg.withEstimates = false;
    api::RaceEngine engine(cfg);
    for (auto _ : state) {
        auto outcome = engine.mapReads(w.graph,
                                       ScoreMatrix::dnaShortestPath(),
                                       threshold, reads);
        benchmark::DoNotOptimize(outcome.results.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(reads.size()));
}
BENCHMARK(BM_GraphMapReadsBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

} // namespace
