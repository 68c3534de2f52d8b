/**
 * @file
 * Saturation benchmark for the racelogic::serve daemon: a real
 * AlignServer on a Unix socket, a real pipelined client, end-to-end
 * through decode, admission, dispatch, the race, and the
 * response path.  On the 1-CPU dev host the absolute req/s is mostly
 * a context-switch measurement; the regression-gated story is that
 * the serve overhead stays bounded relative to the raw solve
 * (BM_ApiEngineSolveCached) and the counters stay clean -- the
 * plan-cache hit rate is exported as a benchmark counter and must pin
 * to ~1.0 once the plan is warm.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include <unistd.h>

#include "rl/serve/client.h"
#include "rl/serve/server.h"
#include "rl/telemetry/registry.h"
#include "rl/util/random.h"

using namespace racelogic;

namespace {

std::string
randomDna(uint64_t seed, size_t n)
{
    util::Rng rng(seed);
    static const char letters[] = "ACGT";
    std::string s;
    s.reserve(n);
    for (size_t i = 0; i < n; ++i)
        s.push_back(letters[rng.index(4)]);
    return s;
}

std::string
benchSocketPath()
{
    return "/tmp/rl-bench-serve-" + std::to_string(getpid()) + ".sock";
}

/**
 * End-to-end serve throughput at a saturating pipeline depth: every
 * iteration keeps `window` same-shape pairwise requests outstanding,
 * so the daemon runs decode/admit/solve/reply back to back with a
 * warm cached plan.  A 65 x 65 race is under serve::kInlineCells, so
 * the connection thread solves most of these itself whenever a slot
 * is free; `inline_share` exports the fraction it solved (telemetry
 * on only: it reads rl_serve_inline_solves_total).
 */
void
serveSaturation(benchmark::State &state, bool telemetry)
{
    const size_t n = size_t(state.range(0));
    const size_t window = 16;

    serve::ServerConfig cfg;
    cfg.unixPath = benchSocketPath();
    cfg.workers = 2;
    cfg.queueDepth = 2 * window;
    cfg.engine.withEstimates = false;
    cfg.telemetry = telemetry;
    serve::AlignServer server(std::move(cfg));
    if (!server.start()) {
        state.SkipWithError("failed to bind bench socket");
        return;
    }
    serve::ServeClient client =
        serve::ServeClient::overUnix(benchSocketPath());

    const bio::ScoreMatrix costs = bio::ScoreMatrix::dnaShortestPath();
    const std::string a = randomDna(1, n), b = randomDna(2, n);

    // Warm the engine's plan cache so the timed loop measures the
    // steady state, not the one-off synthesis.
    uint32_t id = 1;
    client.submitPairwise(id++, costs, a, b);
    serve::Response response;
    client.receive(response);

    int64_t served = 0;
    for (auto _ : state) {
        for (size_t w = 0; w < window; ++w)
            client.submitPairwise(id++, costs, a, b);
        for (size_t w = 0; w < window; ++w) {
            if (!client.receive(response)) {
                state.SkipWithError("daemon disconnected");
                return;
            }
            served += response.status == serve::Status::Ok;
        }
    }
    state.SetItemsProcessed(served);

    // The queueing-metrics story (docs/performance.md): a warm
    // same-shape workload must be all plan-cache hits.
    const api::EngineStats stats = server.engineStats();
    state.counters["plan_hit_rate"] =
        stats.solves ? double(stats.planCacheHits) / double(stats.solves)
                     : 0.0;
    state.counters["queue_high_water"] =
        double(server.queueStats().highWater);
    const telemetry::Snapshot snap = server.metricsSnapshot();
    if (const telemetry::CounterSnapshot *claims =
            snap.counter("rl_serve_inline_solves_total"))
        state.counters["inline_share"] =
            stats.solves ? double(claims->value) / double(stats.solves)
                         : 0.0;

    server.stop();
}

void
BM_ServeSaturation(benchmark::State &state)
{
    serveSaturation(state, true);
}
BENCHMARK(BM_ServeSaturation)->Arg(64)->UseRealTime();

/**
 * The same saturation loop with telemetry disabled (no metric
 * registration, no trace recording): the regression-gated pair.
 * CI's bench_compare --pair check holds BM_ServeSaturation within 5%
 * of this -- the observability tax must stay in the noise.
 */
void
BM_ServeSaturationNoTelemetry(benchmark::State &state)
{
    serveSaturation(state, false);
}
BENCHMARK(BM_ServeSaturationNoTelemetry)->Arg(64)->UseRealTime();

/**
 * Overload with a class mix: bursts of batch, normal, and interactive
 * pairwise requests twice the queue depth.  Each worker pops the next
 * job the moment it is free, so the two of them keep up with most of
 * a burst and admission sheds only when one outruns them -- rarely.
 * Whatever is shed comes from below interactive: interactive's shed
 * count pins to 0 and batch absorbs the rest.  The counters export
 * that split (per-class served p99 in microseconds plus per-class
 * sheds, QueueFull + evictions, from the daemon's ledger).
 *
 * /64's 65 x 65 races are under serve::kInlineCells: the connection
 * thread solves them as they arrive and the queue stays empty, so
 * that row times the inline path.  /256's 257 x 257 races (66,049
 * cells) go to the workers and keep the weighted drain and the
 * admission sheds measured.
 */
void
BM_ServeMixedPriority(benchmark::State &state)
{
    const size_t n = size_t(state.range(0));
    const size_t window = 32; // twice the queue depth

    serve::ServerConfig cfg;
    cfg.unixPath = benchSocketPath();
    cfg.workers = 2;
    cfg.queueDepth = window / 2;
    cfg.engine.withEstimates = false;
    serve::AlignServer server(std::move(cfg));
    if (!server.start()) {
        state.SkipWithError("failed to bind bench socket");
        return;
    }
    serve::ServeClient client =
        serve::ServeClient::overUnix(benchSocketPath());

    const bio::ScoreMatrix costs = bio::ScoreMatrix::dnaShortestPath();
    const std::string a = randomDna(1, n), b = randomDna(2, n);

    uint32_t id = 1;
    serve::Response response;
    client.submitPairwise(id++, costs, a, b); // warm the plan
    client.receive(response);

    // Submit stamps per id so pipelined receives still yield honest
    // per-request latencies; class is id % 3, recomputed on receive.
    // Each iteration fires one 2x-depth burst and drains it fully:
    // resubmitting on rejection would couple the offered rate to the
    // (fast) rejection rate and turn 2x overload into a spiral.
    std::vector<std::chrono::steady_clock::time_point> stamp(1 << 16);
    std::vector<std::vector<double>> latencyUs(serve::kPriorityClasses);
    int64_t served = 0;
    for (auto _ : state) {
        for (size_t w = 0; w < window; ++w) {
            stamp[id % stamp.size()] = std::chrono::steady_clock::now();
            client.submitPairwise(
                id, costs, a, b, 0,
                static_cast<serve::Priority>(id % 3));
            ++id;
        }
        for (size_t w = 0; w < window; ++w) {
            if (!client.receive(response)) {
                state.SkipWithError("daemon disconnected");
                return;
            }
            if (response.status == serve::Status::Ok) {
                const double us =
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(
                        std::chrono::steady_clock::now() -
                        stamp[response.id % stamp.size()])
                        .count();
                latencyUs[response.id % 3].push_back(us);
                ++served;
            }
        }
    }
    state.SetItemsProcessed(served);

    static const char *const kClassName[serve::kPriorityClasses] = {
        "batch", "normal", "interactive"};
    for (size_t c = 0; c < serve::kPriorityClasses; ++c) {
        std::vector<double> &lat = latencyUs[c];
        double p99 = 0.0;
        if (!lat.empty()) {
            std::sort(lat.begin(), lat.end());
            p99 = lat[(lat.size() * 99) / 100 -
                      ((lat.size() * 99) % 100 == 0 && lat.size() > 1
                           ? 1
                           : 0)];
        }
        state.counters[std::string(kClassName[c]) + "_p99_us"] = p99;
    }
    const serve::QueueStats q = server.queueStats();
    for (size_t c = 0; c < serve::kPriorityClasses; ++c)
        state.counters[std::string(kClassName[c]) + "_shed"] =
            double(q.classes[c].rejectedQueueFull +
                   q.classes[c].shedEvicted);

    server.stop();
}
BENCHMARK(BM_ServeMixedPriority)->Arg(64)->Arg(256)->UseRealTime();

/**
 * Protocol floor: a Ping round trip is pure wire + socket overhead
 * (no queue, no engine), the lower bound any serve request pays.
 */
void
BM_ServePingRoundTrip(benchmark::State &state)
{
    serve::ServerConfig cfg;
    cfg.unixPath = benchSocketPath();
    cfg.workers = 1;
    serve::AlignServer server(std::move(cfg));
    if (!server.start()) {
        state.SkipWithError("failed to bind bench socket");
        return;
    }
    serve::ServeClient client =
        serve::ServeClient::overUnix(benchSocketPath());

    uint32_t id = 1;
    serve::Response response;
    for (auto _ : state) {
        client.submitPing(id++);
        if (!client.receive(response)) {
            state.SkipWithError("daemon disconnected");
            return;
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
    server.stop();
}
BENCHMARK(BM_ServePingRoundTrip)->UseRealTime();

/**
 * Admission-control micro: tryPush/drain/markDone cycles on the bare
 * bounded queue, no sockets -- what the daemon's ledger itself costs.
 */
void
BM_ServeQueueCycle(benchmark::State &state)
{
    serve::RequestQueue queue(64);
    for (auto _ : state) {
        for (int i = 0; i < 32; ++i)
            benchmark::DoNotOptimize(
                queue.tryPush(serve::QueuedJob{[] {}}));
        auto batch = queue.drain(32);
        queue.markDone(batch.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 32);
}
BENCHMARK(BM_ServeQueueCycle);

/**
 * The raw recording hot path: what one traced request pays in metric
 * arithmetic alone -- a counter add plus the nine histogram records
 * (eight stages + end-to-end) the serve loop performs, on a
 * contended-lane-free registry.  Nanoseconds per iteration here is
 * the theoretical floor of the telemetry tax measured end-to-end by
 * the BM_ServeSaturation pair.
 */
void
BM_MetricsOverhead(benchmark::State &state)
{
    telemetry::Registry registry;
    telemetry::Counter *requests =
        registry.addCounter("bench_requests_total").valueOrFatal();
    telemetry::Histogram *stages[9];
    for (int i = 0; i < 9; ++i)
        stages[i] =
            registry.addHistogram("bench_stage_" + std::to_string(i))
                .valueOrFatal();

    uint64_t fake = 1;
    for (auto _ : state) {
        requests->add(1, 1);
        for (int i = 0; i < 9; ++i)
            stages[i]->record(fake + uint64_t(i), 1);
        fake = fake * 2862933555777941757ull + 3037000493ull;
        fake &= 0xFFFF; // keep values in realistic microsecond range
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MetricsOverhead);

} // namespace
