/**
 * raceload: load generator / saturation probe for raceserved.
 *
 * Opens one pipelined connection, keeps up to --window requests
 * outstanding, and reports client-side latency percentiles,
 * throughput, and the admission-control verdict mix.  On a 1-CPU
 * host the interesting output is the daemon-side counters fetched at
 * the end (queue high-water, plans built vs. plan-cache hits) -- see
 * docs/performance.md.
 *
 * Connect and reconnect time is measured apart from serve latency:
 * the per-request clock starts at (re)submit, after any reconnect
 * completed, so transport repair cost never pollutes the serving
 * percentiles and is reported on its own line instead.
 *
 *   raceload --unix /tmp/rl.sock --requests 200 --window 8
 *   raceload --tcp 7411 --mode mixed --expect-no-rejections
 *   raceload --tcp 7411 --dump-histograms --expect-metrics
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "rl/serve/client.h"
#include "rl/telemetry/registry.h"

using namespace racelogic;
using Clock = std::chrono::steady_clock;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s (--unix PATH | --tcp PORT) [options]\n"
        "\n"
        "  --requests N            requests to send (default 200)\n"
        "  --window N              max outstanding requests (default 8)\n"
        "  --len N                 sequence length (default 64)\n"
        "  --mode M                pairwise | screen | dtw | graph | mixed\n"
        "                          (default pairwise; graph needs a\n"
        "                          daemon started with --gfa)\n"
        "  --threshold T           screen/graph threshold (default 2*len)\n"
        "  --priority P            batch | normal | interactive | mixed\n"
        "                          (default normal; mixed cycles the\n"
        "                          three classes request by request and\n"
        "                          reports per-class columns)\n"
        "  --seed N                RNG seed (default 42)\n"
        "  --timeout-ms MS         per-request deadline: rides the wire\n"
        "                          (the daemon sheds/cancels expired\n"
        "                          work) and bounds the client-side wait\n"
        "                          (default 0 = none)\n"
        "  --retries N             resubmits after a client-side timeout\n"
        "                          or disconnect (default 0)\n"
        "  --expect-no-rejections  exit 1 unless every request was Ok\n"
        "                          (client-side timeouts count too)\n"
        "  --expect-interactive-clean\n"
        "                          exit 1 if any interactive-class\n"
        "                          request was rejected or timed out --\n"
        "                          the overload contract says only\n"
        "                          lower classes shed\n"
        "  --dump-histograms       print client-side log2 histograms of\n"
        "                          serve latency and connect/retry time\n"
        "                          (p50/p90/p99/p999)\n"
        "  --expect-metrics        scrape the daemon's Metrics frame at\n"
        "                          the end; exit 1 unless it shows\n"
        "                          served requests and latency samples\n",
        argv0);
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) / 100.0 + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    std::string unixPath;
    int tcpPort = -1;
    size_t requests = 200;
    size_t window = 8;
    size_t len = 64;
    std::string mode = "pairwise";
    std::string priorityMode = "normal";
    long long threshold = -1;
    unsigned seed = 42;
    long long timeoutMs = 0;
    int retries = 0;
    bool expectNoRejections = false;
    bool expectInteractiveClean = false;
    bool dumpHistograms = false;
    bool expectMetrics = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--unix") {
            unixPath = value();
        } else if (arg == "--tcp") {
            tcpPort = std::atoi(value());
        } else if (arg == "--requests") {
            requests = static_cast<size_t>(std::atol(value()));
        } else if (arg == "--window") {
            window = static_cast<size_t>(std::atol(value()));
        } else if (arg == "--len") {
            len = static_cast<size_t>(std::atol(value()));
        } else if (arg == "--mode") {
            mode = value();
        } else if (arg == "--threshold") {
            threshold = std::atoll(value());
        } else if (arg == "--priority") {
            priorityMode = value();
        } else if (arg == "--seed") {
            seed = static_cast<unsigned>(std::atol(value()));
        } else if (arg == "--timeout-ms") {
            timeoutMs = std::atoll(value());
        } else if (arg == "--retries") {
            retries = std::atoi(value());
        } else if (arg == "--expect-no-rejections") {
            expectNoRejections = true;
        } else if (arg == "--expect-interactive-clean") {
            expectInteractiveClean = true;
        } else if (arg == "--dump-histograms") {
            dumpHistograms = true;
        } else if (arg == "--expect-metrics") {
            expectMetrics = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if ((unixPath.empty() && tcpPort < 0) || requests == 0 ||
        window == 0) {
        usage(argv[0]);
        return 2;
    }
    if (threshold < 0)
        threshold = static_cast<long long>(2 * len);
    if (priorityMode != "batch" && priorityMode != "normal" &&
        priorityMode != "interactive" && priorityMode != "mixed") {
        std::fprintf(stderr, "raceload: unknown priority '%s'\n",
                     priorityMode.c_str());
        return 2;
    }
    // Deterministic in the request id so a retried request keeps its
    // class, and response accounting can recompute it.
    auto priorityFor = [&](uint32_t id) {
        if (priorityMode == "batch")
            return serve::Priority::Batch;
        if (priorityMode == "interactive")
            return serve::Priority::Interactive;
        if (priorityMode == "mixed")
            return static_cast<serve::Priority>(id % 3);
        return serve::Priority::Normal;
    };

    // Client-side telemetry: serve latency and connect/retry time go
    // into *separate* histograms so transport repair cost (reconnect
    // + resubmit) never leaks into the serving percentiles.
    telemetry::Registry registry;
    telemetry::Histogram *latencyHist =
        registry.addHistogram("raceload_request_us").valueOrFatal();
    telemetry::Histogram *connectHist =
        registry.addHistogram("raceload_connect_us").valueOrFatal();

    const int64_t connectMs = timeoutMs > 0 ? timeoutMs : -1;
    const Clock::time_point connectBegin = Clock::now();
    serve::ServeClient client =
        unixPath.empty()
            ? serve::ServeClient::overTcp(static_cast<uint16_t>(tcpPort),
                                          connectMs)
            : serve::ServeClient::overUnix(unixPath, connectMs);
    connectHist->record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - connectBegin)
            .count()));
    if (!client.ok()) {
        std::perror("raceload: connect failed");
        return 1;
    }
    auto timedReconnect = [&]() {
        const Clock::time_point t0 = Clock::now();
        const bool ok = client.reconnect(timeoutMs > 0 ? timeoutMs : -1);
        connectHist->record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count()));
        return ok;
    };

    const bio::Alphabet dna("ACGT");
    // Fig. 2b: match 1, mismatch 2, indel 1 -- race-ready weights.
    const bio::ScoreMatrix costs = bio::ScoreMatrix::dnaShortestPath();
    std::mt19937 rng(seed);
    auto randSeq = [&](size_t n) {
        static const char letters[] = "ACGT";
        std::string s;
        s.reserve(n);
        std::uniform_int_distribution<int> pick(0, 3);
        for (size_t i = 0; i < n; ++i)
            s.push_back(letters[pick(rng)]);
        return s;
    };
    auto randSignal = [&](size_t n) {
        std::vector<apps::Sample> s(n);
        std::uniform_int_distribution<int> pick(0, 31);
        for (apps::Sample &v : s)
            v = pick(rng);
        return s;
    };

    const uint32_t wireDeadlineMs =
        timeoutMs > 0 ? static_cast<uint32_t>(timeoutMs) : 0;
    auto submit = [&](uint32_t id) {
        const serve::Priority prio = priorityFor(id);
        std::string pickMode = mode;
        if (mode == "mixed") {
            static const char *kinds[] = {"pairwise", "screen", "dtw"};
            pickMode = kinds[id % 3];
        }
        if (pickMode == "pairwise")
            return client.submitPairwise(id, costs, randSeq(len),
                                         randSeq(len), wireDeadlineMs,
                                         prio);
        if (pickMode == "screen")
            return client.submitScreen(id, costs, threshold, randSeq(len),
                                       randSeq(len), wireDeadlineMs,
                                       prio);
        if (pickMode == "dtw")
            return client.submitDtw(id, randSignal(len), randSignal(len),
                                    wireDeadlineMs, prio);
        if (pickMode == "graph")
            return client.submitGraphAlign(id, randSeq(len), threshold,
                                           wireDeadlineMs, prio);
        std::fprintf(stderr, "raceload: unknown mode '%s'\n",
                     mode.c_str());
        std::exit(2);
    };

    std::unordered_map<uint32_t, Clock::time_point> pending;
    std::unordered_map<uint32_t, int> attempts;
    std::vector<double> latenciesUs;
    latenciesUs.reserve(requests);
    uint64_t okCount = 0, rejectedByStatus[7] = {0, 0, 0, 0, 0, 0, 0};
    uint64_t timeouts = 0, retriesUsed = 0;
    // Per-class ledgers, indexed by serve::Priority.
    uint64_t okByClass[serve::kPriorityClasses] = {0, 0, 0};
    uint64_t rejectedByClass[serve::kPriorityClasses] = {0, 0, 0};
    uint64_t timeoutsByClass[serve::kPriorityClasses] = {0, 0, 0};
    std::vector<double> latenciesByClass[serve::kPriorityClasses];

    const Clock::time_point begin = Clock::now();
    uint32_t nextId = 1;
    size_t sent = 0, resolved = 0;
    while (resolved < requests) {
        while (sent < requests && pending.size() < window) {
            const uint32_t id = nextId++;
            if (!submit(id)) {
                std::fprintf(stderr, "raceload: send failed\n");
                return 1;
            }
            pending.emplace(id, Clock::now());
            ++sent;
        }
        serve::Response response;
        const serve::IoStatus got = client.receive(
            response,
            serve::deadlineAfterMs(timeoutMs > 0 ? timeoutMs : -1));
        if (got != serve::IoStatus::Ok) {
            if (got != serve::IoStatus::Timeout && retries == 0) {
                std::fprintf(stderr, "raceload: daemon disconnected\n");
                return 1;
            }
            // A receive timeout (or disconnect, when retrying) puts
            // every outstanding request in limbo, and the old
            // connection's framing with it: resubmit what still has
            // retries on a fresh connection, fail the rest as
            // timeouts.
            std::vector<uint32_t> limbo;
            limbo.reserve(pending.size());
            for (const auto &entry : pending)
                limbo.push_back(entry.first);
            std::sort(limbo.begin(), limbo.end());
            std::vector<uint32_t> resubmit;
            for (uint32_t id : limbo) {
                if (attempts[id] < retries) {
                    resubmit.push_back(id);
                } else {
                    pending.erase(id);
                    ++timeouts;
                    ++timeoutsByClass[static_cast<size_t>(
                        priorityFor(id))];
                    ++resolved;
                }
            }
            if (resolved >= requests && resubmit.empty())
                break;
            if (!timedReconnect()) {
                std::fprintf(stderr, "raceload: reconnect failed\n");
                return 1;
            }
            for (uint32_t id : resubmit) {
                ++attempts[id];
                ++retriesUsed;
                if (!submit(id)) {
                    std::fprintf(stderr, "raceload: resend failed\n");
                    return 1;
                }
                pending[id] = Clock::now();
            }
            continue;
        }
        auto it = pending.find(response.id);
        if (it == pending.end()) {
            std::fprintf(stderr, "raceload: unsolicited response id %u\n",
                         response.id);
            return 1;
        }
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      it->second)
                .count();
        pending.erase(it);
        latenciesUs.push_back(us);
        latencyHist->record(static_cast<uint64_t>(us));
        ++resolved;
        const size_t cls =
            static_cast<size_t>(priorityFor(response.id));
        latenciesByClass[cls].push_back(us);
        if (response.status == serve::Status::Ok) {
            ++okCount;
            ++okByClass[cls];
        } else {
            ++rejectedByStatus[static_cast<uint8_t>(response.status)];
            ++rejectedByClass[cls];
        }
    }
    const double elapsedSec =
        std::chrono::duration<double>(Clock::now() - begin).count();

    std::sort(latenciesUs.begin(), latenciesUs.end());
    const uint64_t rejected = requests - okCount;
    std::printf("raceload: %zu requests in %.3f s (%.1f req/s)\n",
                requests, elapsedSec,
                static_cast<double>(requests) / elapsedSec);
    if (!latenciesUs.empty())
        std::printf(
            "raceload: latency p50=%.1f us  p99=%.1f us  max=%.1f us\n",
            percentile(latenciesUs, 50), percentile(latenciesUs, 99),
            latenciesUs.back());
    std::printf("raceload: ok=%llu rejected=%llu (%.2f%%)"
                " [queue-full=%llu oversized=%llu bad=%llu shutdown=%llu"
                " deadline=%llu resource=%llu timeout=%llu"
                " retries=%llu]\n",
                static_cast<unsigned long long>(okCount),
                static_cast<unsigned long long>(rejected),
                100.0 * static_cast<double>(rejected) /
                    static_cast<double>(requests),
                static_cast<unsigned long long>(rejectedByStatus[1]),
                static_cast<unsigned long long>(rejectedByStatus[2]),
                static_cast<unsigned long long>(rejectedByStatus[3]),
                static_cast<unsigned long long>(rejectedByStatus[4]),
                static_cast<unsigned long long>(rejectedByStatus[5]),
                static_cast<unsigned long long>(rejectedByStatus[6]),
                static_cast<unsigned long long>(timeouts),
                static_cast<unsigned long long>(retriesUsed));

    static const char *const kClassName[serve::kPriorityClasses] = {
        "batch", "normal", "interactive"};
    if (priorityMode == "mixed") {
        for (size_t c = 0; c < serve::kPriorityClasses; ++c) {
            std::vector<double> &lat = latenciesByClass[c];
            std::sort(lat.begin(), lat.end());
            std::printf("raceload: class %-11s ok=%llu rejected=%llu "
                        "timeout=%llu p50=%.1f us p99=%.1f us\n",
                        kClassName[c],
                        static_cast<unsigned long long>(okByClass[c]),
                        static_cast<unsigned long long>(
                            rejectedByClass[c]),
                        static_cast<unsigned long long>(
                            timeoutsByClass[c]),
                        percentile(lat, 50), percentile(lat, 99));
        }
    }

    if (dumpHistograms) {
        const telemetry::Snapshot snap = registry.snapshot();
        for (const telemetry::HistogramSnapshot &h : snap.histograms) {
            std::printf("raceload: %s count=%llu p50=%.1f p90=%.1f "
                        "p99=%.1f p999=%.1f\n",
                        h.name.c_str(),
                        static_cast<unsigned long long>(h.count),
                        h.percentile(50), h.percentile(90),
                        h.percentile(99), h.percentile(99.9));
        }
    }

    // The daemon-side ledger: admission counters and the shared
    // engine's plan-cache split.
    if (!client.ok())
        timedReconnect();
    if (client.submitStats(0)) {
        serve::Response stats;
        if (client.receive(stats) && stats.queueStats) {
            const serve::QueueStatsWire &q = *stats.queueStats;
            std::printf("raceload: daemon enqueued=%llu completed=%llu "
                        "rejected=%llu shed-deadline=%llu "
                        "shed-evicted=%llu high-water=%llu\n",
                        static_cast<unsigned long long>(q.enqueued),
                        static_cast<unsigned long long>(q.completed),
                        static_cast<unsigned long long>(
                            q.rejectedQueueFull + q.rejectedOversized +
                            q.rejectedBadRequest + q.rejectedResource +
                            q.rejectedShutdown),
                        static_cast<unsigned long long>(q.shedDeadline),
                        static_cast<unsigned long long>(q.shedEvicted),
                        static_cast<unsigned long long>(q.highWater));
            for (size_t c = 0; c < serve::kPriorityClasses; ++c) {
                const serve::ClassStatsWire &cw = q.classes[c];
                std::printf(
                    "raceload: daemon class %-11s enqueued=%llu "
                    "completed=%llu rejected-full=%llu "
                    "rejected-resource=%llu shed-deadline=%llu "
                    "shed-evicted=%llu\n",
                    kClassName[c],
                    static_cast<unsigned long long>(cw.enqueued),
                    static_cast<unsigned long long>(cw.completed),
                    static_cast<unsigned long long>(cw.rejectedQueueFull),
                    static_cast<unsigned long long>(cw.rejectedResource),
                    static_cast<unsigned long long>(cw.shedDeadline),
                    static_cast<unsigned long long>(cw.shedEvicted));
            }
            for (const serve::ShardStatsWire &s : stats.shardStats)
                std::printf(
                    "raceload: daemon engine solves=%llu "
                    "plans-built=%llu plan-hits=%llu\n",
                    static_cast<unsigned long long>(s.solves),
                    static_cast<unsigned long long>(s.plansBuilt),
                    static_cast<unsigned long long>(s.planCacheHits));
        }
    }

    // The daemon's own telemetry, over the wire: after a load run the
    // served-request counter and the end-to-end latency histogram
    // must both have moved, or the observability plumbing is broken.
    if (expectMetrics) {
        if (!client.ok() && !timedReconnect()) {
            std::fprintf(stderr,
                         "raceload: FAIL -- cannot scrape metrics\n");
            return 1;
        }
        serve::Response metrics;
        if (!client.submitMetrics(0) || !client.receive(metrics) ||
            metrics.status != serve::Status::Ok ||
            !metrics.metrics.has_value()) {
            std::fprintf(stderr,
                         "raceload: FAIL -- Metrics scrape failed\n");
            return 1;
        }
        const telemetry::Snapshot &snap = *metrics.metrics;
        const telemetry::CounterSnapshot *served =
            snap.counter("rl_serve_requests_total");
        const telemetry::HistogramSnapshot *e2e =
            snap.histogram("rl_serve_request_us");
        if (!served || served->value == 0) {
            std::fprintf(stderr, "raceload: FAIL -- daemon served us "
                                 "but rl_serve_requests_total is %s\n",
                         served ? "zero" : "absent");
            return 1;
        }
        if (!e2e || e2e->count == 0) {
            std::fprintf(stderr, "raceload: FAIL -- rl_serve_request_us "
                                 "has %s samples\n",
                         e2e ? "zero" : "no");
            return 1;
        }
        std::printf("raceload: daemon metrics ok -- requests=%llu "
                    "latency-samples=%llu p99=%.1f us\n",
                    static_cast<unsigned long long>(served->value),
                    static_cast<unsigned long long>(e2e->count),
                    e2e->percentile(99));
    }

    if (expectNoRejections && rejected != 0) {
        std::fprintf(stderr,
                     "raceload: FAIL -- %llu rejections, none expected\n",
                     static_cast<unsigned long long>(rejected));
        return 1;
    }
    if (expectInteractiveClean) {
        const size_t cls =
            static_cast<size_t>(serve::Priority::Interactive);
        const uint64_t dirty =
            rejectedByClass[cls] + timeoutsByClass[cls];
        if (dirty != 0) {
            std::fprintf(stderr,
                         "raceload: FAIL -- %llu interactive requests "
                         "rejected/timed out; overload must shed lower "
                         "classes first\n",
                         static_cast<unsigned long long>(dirty));
            return 1;
        }
    }
    return 0;
}
