/**
 * @file
 * End-to-end tests for the serve daemon: a real AlignServer on a real
 * socket, a real client, and three load-bearing claims --
 *
 *  1. a served solve is bit-identical to a direct api::RaceEngine
 *     solve of the same problem;
 *  2. admission control bounds outstanding work and rejects the
 *     excess with typed QueueFull statuses, visibly in the counters;
 *  3. every worker solves on one shared engine: warm same-shape
 *     traffic plans once and hits the cache after, and same-shape
 *     requests race on several workers at once.
 *
 * Plus the protocol abuse the daemon must shrug off: oversized
 * length prefixes, unknown tags, and mid-frame disconnects; which
 * thread solves what; and connections that release their fd and
 * thread once the peer hangs up.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "rl/api/api.h"
#include "rl/core/scratch_registry.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/gfa.h"
#include "rl/serve/client.h"
#include "rl/serve/server.h"

namespace {

using namespace racelogic;
using namespace racelogic::serve;
using Status = racelogic::serve::Status; // not rl::Status (library errors)

bio::ScoreMatrix
fig2b()
{
    return bio::ScoreMatrix::dnaShortestPath();
}

/** A tiny two-bubble pangenome, parsed like a real GFA file. */
std::shared_ptr<const pangraph::VariationGraph>
bubbleGraph()
{
    const std::string gfa = "H\tVN:Z:1.0\n"
                            "S\ts1\tACG\n"
                            "S\ts2\tT\n"
                            "S\ts3\tC\n"
                            "S\ts4\tGGA\n"
                            "L\ts1\t+\ts2\t+\t0M\n"
                            "L\ts1\t+\ts3\t+\t0M\n"
                            "L\ts2\t+\ts4\t+\t0M\n"
                            "L\ts3\t+\ts4\t+\t0M\n";
    std::istringstream in(gfa);
    return std::make_shared<pangraph::VariationGraph>(
        pangraph::readGfa(in, bio::Alphabet("ACGT")));
}

ServerConfig
tcpConfig()
{
    ServerConfig cfg;
    cfg.tcpPort = 0; // ephemeral
    cfg.workers = 2;
    cfg.queueDepth = 16;
    cfg.graph = bubbleGraph();
    cfg.graphMatrix = fig2b();
    return cfg;
}

/** Deterministic pseudo-DNA so tests need no RNG plumbing. */
std::string
dnaString(size_t length, uint32_t seed)
{
    static const char letters[] = "ACGT";
    std::string s;
    s.reserve(length);
    uint32_t state = seed * 2654435761u + 1;
    for (size_t i = 0; i < length; ++i) {
        state = state * 1664525u + 1013904223u;
        s.push_back(letters[(state >> 24) & 3]);
    }
    return s;
}

// ----------------------------------------------------------- fidelity

bio::Sequence
dnaSeq(const std::string &text)
{
    return bio::Sequence(bio::Alphabet("ACGT"), text);
}

/**
 * The daemon solves score-only; every field its reply carries must
 * still equal a full-detail solve on a direct engine.
 */
void
expectReplyMatches(const Response &response, const api::RaceResult &expected)
{
    ASSERT_EQ(response.status, Status::Ok);
    ASSERT_TRUE(response.solve.has_value());
    EXPECT_EQ(response.solve->score, expected.score);
    EXPECT_EQ(response.solve->racedCost, expected.racedCost);
    EXPECT_EQ(response.solve->latencyCycles,
              static_cast<uint64_t>(expected.latencyCycles));
    EXPECT_EQ(response.solve->cyclesUsed,
              static_cast<uint64_t>(expected.cyclesUsed));
    EXPECT_EQ(response.solve->events, expected.events);
    EXPECT_EQ(response.solve->nodes, expected.nodes);
    EXPECT_EQ(response.solve->cellsFired, expected.cellsFired);
    EXPECT_EQ(response.solve->completed, expected.completed);
    EXPECT_EQ(response.solve->accepted, expected.accepted);
}

TEST(ServeServer, ServedSolveIsBitIdenticalToDirectEngine)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());
    ASSERT_TRUE(client.ok());

    api::EngineConfig direct;
    direct.workerThreads = 1;
    api::RaceEngine engine(direct);

    const std::string a = dnaString(40, 1), b = dnaString(40, 2);
    ASSERT_TRUE(client.submitPairwise(31, fig2b(), a, b));
    Response response;
    ASSERT_TRUE(client.receive(response));
    expectReplyMatches(response,
                       engine.solve(api::RaceProblem::pairwiseAlignment(
                           fig2b(), dnaSeq(a), dnaSeq(b))));

    // A screen the Section 6 horizon rejects: every cell costs at
    // least 1 on Fig. 2b, so a 40 x 40 race cannot finish by cycle 30.
    ASSERT_TRUE(client.submitScreen(32, fig2b(), 30, a, b));
    ASSERT_TRUE(client.receive(response));
    const api::RaceResult rejected =
        engine.solve(api::RaceProblem::thresholdScreen(fig2b(), 30,
                                                       dnaSeq(a), dnaSeq(b)));
    ASSERT_FALSE(rejected.accepted);
    expectReplyMatches(response, rejected);

    server.stop();
}

TEST(ServeServer, OneConnectionAlternatingTwoMatricesMatchesDirectEngine)
{
    // The connection keeps the last matrix it decoded: a repeat is a
    // copy of it, and a switch decodes the other matrix afresh.  Every
    // reply must still be the direct solve under its own matrix.
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());
    ASSERT_TRUE(client.ok());

    api::EngineConfig direct;
    direct.workerThreads = 1;
    api::RaceEngine engine(direct);

    const bio::ScoreMatrix light = fig2b();
    bio::ScoreMatrix heavy = fig2b();
    for (bio::Symbol x = 0; x < 4; ++x)
        for (bio::Symbol y = 0; y < 4; ++y)
            if (x != y)
                heavy.setPair(x, y, 5);
    heavy.setAllGaps(3);
    const bio::ScoreMatrix *matrices[] = {&heavy, &heavy, &light, &heavy,
                                          &light, &light, &heavy};
    uint32_t id = 40;
    for (const bio::ScoreMatrix *costs : matrices) {
        const std::string a = dnaString(24, id), b = dnaString(28, id + 1);
        const api::RaceResult expected =
            engine.solve(api::RaceProblem::pairwiseAlignment(
                *costs, dnaSeq(a), dnaSeq(b)));
        const api::RaceResult other =
            engine.solve(api::RaceProblem::pairwiseAlignment(
                costs == &heavy ? light : heavy, dnaSeq(a),
                dnaSeq(b)));
        ASSERT_NE(expected.score, other.score); // a wrong matrix shows
        ASSERT_TRUE(client.submitPairwise(id, *costs, a, b));
        Response response;
        ASSERT_TRUE(client.receive(response));
        EXPECT_EQ(response.id, id);
        expectReplyMatches(response, expected);
        ++id;
    }
    server.stop();
}

TEST(ServeServer, GraphAlignMatchesDirectEngineOverUnixSocket)
{
    const std::string path =
        testing::TempDir() + "rl-serve-" + std::to_string(getpid()) +
        ".sock";
    ServerConfig cfg = tcpConfig();
    cfg.tcpPort = -1;
    cfg.unixPath = path;
    auto graph = cfg.graph;
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overUnix(path);
    ASSERT_TRUE(client.ok());

    ASSERT_TRUE(client.submitGraphAlign(5, "ACGTGA", bio::kScoreInfinity));
    Response response;
    ASSERT_TRUE(client.receive(response));

    api::EngineConfig direct;
    direct.workerThreads = 1;
    api::RaceEngine engine(direct);
    expectReplyMatches(response, engine.solve(api::RaceProblem::graphAlign(
                                     fig2b(), dnaSeq("ACGTGA"), graph)));

    // A MapReads batch, one verdict per read: near, far (aborted at
    // the threshold) and off by a substitution.
    const std::vector<std::string> reads = {"ACGTGA", "TTTTTTTTTTTT",
                                            "ACGCGA"};
    std::string fasta;
    for (size_t r = 0; r < reads.size(); ++r)
        fasta += ">r" + std::to_string(r) + "\n" + reads[r] + "\n";
    ASSERT_TRUE(client.submitMapReads(6, fasta, 10));
    ASSERT_TRUE(client.receive(response));
    ASSERT_EQ(response.status, Status::Ok);
    ASSERT_EQ(response.reads.size(), reads.size());
    for (size_t r = 0; r < reads.size(); ++r) {
        const api::RaceResult expected =
            engine.solve(api::RaceProblem::graphAlign(
                fig2b(), dnaSeq(reads[r]), graph, 10));
        EXPECT_EQ(response.reads[r].score, expected.score);
        EXPECT_EQ(response.reads[r].cyclesUsed,
                  static_cast<uint64_t>(expected.cyclesUsed));
        EXPECT_EQ(response.reads[r].accepted, expected.accepted);
    }
    EXPECT_FALSE(response.reads[1].accepted);

    server.stop();
    EXPECT_NE(::access(path.c_str(), F_OK), 0)
        << "stop() must unlink the socket file";
}

TEST(ServeServer, MapReadsScreensABatch)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // One read on the graph's spine, one distant.  Fig. 2b charges
    // matches cost 1, so a perfect 7-char mapping costs 7; threshold
    // 10 admits the near read and aborts the far one.
    const std::string fasta = ">ok\nACGTGA\n>far\nTTTTTTTTTTTT\n";
    ASSERT_TRUE(client.submitMapReads(9, fasta, 10));
    Response response;
    ASSERT_TRUE(client.receive(response));
    ASSERT_EQ(response.status, Status::Ok);
    ASSERT_EQ(response.reads.size(), 2u);
    EXPECT_TRUE(response.reads[0].accepted);
    EXPECT_FALSE(response.reads[1].accepted);

    server.stop();
}

// ---------------------------------------------------- admission control

TEST(ServeServer, SaturationRejectsWithTypedQueueFull)
{
    ServerConfig cfg = tcpConfig();
    cfg.workers = 1;
    cfg.queueDepth = 2;
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // Pipeline far more work than depth 2 admits before reading any
    // response; each solve is a 201x201 grid, so the single worker
    // cannot drain between the back-to-back frames.
    const size_t total = 24;
    const std::string a = dnaString(200, 3), b = dnaString(200, 4);
    for (size_t i = 0; i < total; ++i)
        ASSERT_TRUE(client.submitPairwise(
            static_cast<uint32_t>(100 + i), fig2b(), a, b));

    size_t ok = 0, queueFull = 0, other = 0;
    for (size_t i = 0; i < total; ++i) {
        Response response;
        ASSERT_TRUE(client.receive(response));
        if (response.status == Status::Ok)
            ++ok;
        else if (response.status == Status::QueueFull)
            ++queueFull;
        else
            ++other;
    }
    EXPECT_EQ(ok + queueFull, total);
    EXPECT_EQ(other, 0u);
    EXPECT_GE(ok, 2u) << "admitted work must still complete";
    EXPECT_GE(queueFull, 1u) << "saturation must be visible";

    // stop() drains, so completed has caught up with the replies.
    server.stop();
    const QueueStats stats = server.queueStats();
    EXPECT_EQ(stats.enqueued, ok);
    EXPECT_EQ(stats.completed, ok);
    EXPECT_EQ(stats.rejectedQueueFull, queueFull);
    EXPECT_LE(stats.highWater, 2u);
}

TEST(ServeServer, StatsAnswerInlineWhileQueueIsBusy)
{
    ServerConfig cfg = tcpConfig();
    cfg.workers = 1;
    cfg.queueDepth = 4;
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient loader = ServeClient::overTcp(server.port());
    ServeClient prober = ServeClient::overTcp(server.port());

    const std::string a = dnaString(200, 5), b = dnaString(200, 6);
    for (uint32_t i = 0; i < 4; ++i)
        ASSERT_TRUE(loader.submitPairwise(i, fig2b(), a, b));

    // The probe rides a different connection and must not wait for
    // the queue: Stats bypasses admission entirely.
    ASSERT_TRUE(prober.submitStats(77));
    Response stats;
    ASSERT_TRUE(prober.receive(stats));
    EXPECT_EQ(stats.status, Status::Ok);
    ASSERT_TRUE(stats.queueStats.has_value());
    ASSERT_EQ(stats.shardStats.size(), 1u);

    for (int i = 0; i < 4; ++i) {
        Response r;
        ASSERT_TRUE(loader.receive(r));
    }
    server.stop();
}

// --------------------------------------------------------- telemetry

/** Sum of the eight stage durations of one finalized trace. */
uint64_t
stageSum(const telemetry::RequestTrace &t)
{
    return t.readUs() + t.decodeUs() + t.admitUs() + t.queueWaitUs() +
           t.dispatchUs() + t.solveUs() + t.encodeUs() + t.writeUs();
}

TEST(ServeServer, TraceHookSeesCoherentStages)
{
    std::mutex mutex;
    std::vector<telemetry::RequestTrace> traces;
    ServerConfig cfg = tcpConfig();
    cfg.traceHook = [&](const telemetry::RequestTrace &t) {
        std::lock_guard<std::mutex> lock(mutex);
        traces.push_back(t);
    };
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());
    ASSERT_TRUE(client.ok());

    const std::string a = dnaString(60, 7), b = dnaString(60, 8);
    ASSERT_TRUE(client.submitPairwise(41, fig2b(), a, b));
    Response response;
    ASSERT_TRUE(client.receive(response));
    ASSERT_EQ(response.status, Status::Ok);
    ASSERT_TRUE(client.submitPing(42));
    ASSERT_TRUE(client.receive(response));
    server.stop();

    std::lock_guard<std::mutex> lock(mutex);
    const telemetry::RequestTrace *solve = nullptr, *ping = nullptr;
    for (const telemetry::RequestTrace &t : traces) {
        if (t.id == 41)
            solve = &t;
        if (t.id == 42)
            ping = &t;
    }
    ASSERT_NE(solve, nullptr) << "raced request must be traced";
    ASSERT_NE(ping, nullptr) << "inline answers must be traced too";

    EXPECT_EQ(solve->tag, static_cast<uint8_t>(RequestTag::Pairwise));
    EXPECT_EQ(solve->status, static_cast<uint8_t>(Status::Ok));
    EXPECT_GT(solve->solveUs(), 0u) << "a 61x61 race takes time";
    EXPECT_GT(solve->totalUs(), 0u);

    // Stage durations are differences of consecutive stamps: each is
    // nonnegative by construction, and their sum reproduces the
    // end-to-end latency up to one microsecond of truncation per
    // stage boundary.
    for (const telemetry::RequestTrace &t : traces) {
        const uint64_t sum = stageSum(t);
        EXPECT_LE(sum, t.totalUs()) << "id " << t.id;
        EXPECT_LE(t.totalUs() - sum, 8u) << "id " << t.id;
    }

    // The inline ping never raced, so its queue/solve stages are
    // zero-length by finalize()'s carry-forward.
    EXPECT_EQ(ping->queueWaitUs(), 0u);
    EXPECT_EQ(ping->solveUs(), 0u);
}

TEST(ServeServer, MetricsOverWireStaysCoherentWithStats)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());
    ASSERT_TRUE(client.ok());

    const std::string a = dnaString(40, 9), b = dnaString(40, 10);
    for (uint32_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(client.submitPairwise(50 + i, fig2b(), a, b));
        Response r;
        ASSERT_TRUE(client.receive(r));
        ASSERT_EQ(r.status, Status::Ok);
    }

    // The end-to-end sample lands after the reply is flushed, so
    // scrape until the histogram count has caught up with the three
    // solves the client already saw complete.
    Response metricsResponse;
    const telemetry::HistogramSnapshot *e2e = nullptr;
    for (int attempt = 0; attempt < 200; ++attempt) {
        ASSERT_TRUE(client.submitMetrics(90));
        ASSERT_TRUE(client.receive(metricsResponse));
        ASSERT_EQ(metricsResponse.status, Status::Ok);
        ASSERT_TRUE(metricsResponse.metrics.has_value());
        e2e = metricsResponse.metrics->histogram("rl_serve_request_us");
        ASSERT_NE(e2e, nullptr);
        if (e2e->count >= 3)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const telemetry::Snapshot &snap = *metricsResponse.metrics;
    EXPECT_EQ(e2e->count, 3u);
    EXPECT_GT(e2e->sum, 0u);

    // Request accounting: three solves plus at least one Metrics
    // scrape have arrived by the time the snapshot was taken.
    const telemetry::CounterSnapshot *requests =
        snap.counter("rl_serve_requests_total");
    ASSERT_NE(requests, nullptr);
    EXPECT_GE(requests->value, 4u);

    // Kernel profiling flowed through the wire: the races drained
    // events through real Dial buckets.
    const telemetry::CounterSnapshot *events =
        snap.counter("rl_kernel_events_total");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->value, 0u);

    // ...and the snapshot names the sweep that raced them.
    const telemetry::GaugeSnapshot *lanes =
        snap.gauge("rl_kernel_sweep_lanes");
    ASSERT_NE(lanes, nullptr);
    EXPECT_EQ(lanes->value,
              static_cast<int64_t>(core::sweepLanes()));

    // Plan-cache coherence (the satellite claim): the synthetic
    // shard series aggregate to the same ledger Stats reports --
    // every solve was either a plan build or a cache hit.
    ASSERT_TRUE(client.submitStats(91));
    Response statsResponse;
    ASSERT_TRUE(client.receive(statsResponse));
    ASSERT_TRUE(statsResponse.queueStats.has_value());

    ASSERT_EQ(statsResponse.shardStats.size(), 1u);
    const ShardStatsWire &engineRow = statsResponse.shardStats.front();
    const uint64_t solves = engineRow.solves;
    const uint64_t built = engineRow.plansBuilt;
    const uint64_t hits = engineRow.planCacheHits;
    EXPECT_EQ(solves, 3u);
    // Every solve either built its plan or hit the cache, and the one
    // shape cost exactly one synthesis.
    EXPECT_EQ(hits + built, solves);
    EXPECT_EQ(built, 1u);
    EXPECT_EQ(engineRow.shardHits, 0u);
    EXPECT_EQ(engineRow.buildLocks, 0u);

    const telemetry::CounterSnapshot *solvesSeries =
        snap.counter("rl_solves_total");
    const telemetry::CounterSnapshot *builtSeries =
        snap.counter("rl_plans_built_total");
    const telemetry::CounterSnapshot *hitsSeries =
        snap.counter("rl_plan_cache_hits_total");
    ASSERT_NE(solvesSeries, nullptr);
    ASSERT_NE(builtSeries, nullptr);
    ASSERT_NE(hitsSeries, nullptr);
    EXPECT_EQ(solvesSeries->value, solves);
    EXPECT_EQ(builtSeries->value, built);
    EXPECT_EQ(hitsSeries->value, hits);
    EXPECT_EQ(snap.counter("rl_shard0_solves_total"), nullptr);
    EXPECT_EQ(snap.counter("rl_build_locks_total"), nullptr);

    // Queue ledger, one source of truth: the synthetic series carry
    // the same numbers the Stats response does.
    const telemetry::CounterSnapshot *enqueued =
        snap.counter("rl_queue_enqueued_total");
    ASSERT_NE(enqueued, nullptr);
    EXPECT_EQ(enqueued->value, statsResponse.queueStats->enqueued);

    server.stop();
}

TEST(ServeServer, MetricsStillAnswersWithTelemetryOff)
{
    ServerConfig cfg = tcpConfig();
    cfg.telemetry = false;
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    const std::string a = dnaString(30, 11), b = dnaString(30, 12);
    ASSERT_TRUE(client.submitPairwise(60, fig2b(), a, b));
    Response r;
    ASSERT_TRUE(client.receive(r));
    ASSERT_EQ(r.status, Status::Ok);

    // No registered series -- but the synthetic queue/engine series
    // still answer, so scrapes degrade instead of 404ing.
    ASSERT_TRUE(client.submitMetrics(61));
    ASSERT_TRUE(client.receive(r));
    ASSERT_EQ(r.status, Status::Ok);
    ASSERT_TRUE(r.metrics.has_value());
    EXPECT_EQ(r.metrics->histogram("rl_serve_request_us"), nullptr);
    EXPECT_NE(r.metrics->counter("rl_solves_total"), nullptr);

    server.stop();
}

TEST(ServeServer, QueueWaitInflatesUnderSaturation)
{
    std::mutex mutex;
    std::vector<telemetry::RequestTrace> traces;
    ServerConfig cfg = tcpConfig();
    cfg.workers = 1;
    cfg.queueDepth = 2;
    cfg.traceHook = [&](const telemetry::RequestTrace &t) {
        std::lock_guard<std::mutex> lock(mutex);
        traces.push_back(t);
    };
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // Same harness as SaturationRejectsWithTypedQueueFull: one slow
    // worker, tiny depth, a pipelined flood.
    const size_t total = 24;
    const std::string a = dnaString(200, 3), b = dnaString(200, 4);
    for (size_t i = 0; i < total; ++i)
        ASSERT_TRUE(client.submitPairwise(
            static_cast<uint32_t>(300 + i), fig2b(), a, b));
    size_t ok = 0;
    for (size_t i = 0; i < total; ++i) {
        Response response;
        ASSERT_TRUE(client.receive(response));
        if (response.status == Status::Ok)
            ++ok;
    }
    ASSERT_GE(ok, 2u);
    server.stop();

    // With depth 2 and one worker, at least one admitted request sat
    // behind another's full race.  The bound is self-calibrating:
    // queue-wait is measured against the fastest solve this same run
    // actually performed, not a wall-clock guess.
    std::lock_guard<std::mutex> lock(mutex);
    uint64_t maxWait = 0;
    uint64_t minSolve = UINT64_MAX;
    size_t raced = 0;
    for (const telemetry::RequestTrace &t : traces) {
        if (t.status != static_cast<uint8_t>(Status::Ok) ||
            t.tag != static_cast<uint8_t>(RequestTag::Pairwise))
            continue;
        ++raced;
        maxWait = std::max(maxWait, t.queueWaitUs());
        minSolve = std::min(minSolve, t.solveUs());
        EXPECT_LE(stageSum(t), t.totalUs());
    }
    EXPECT_EQ(raced, ok);
    EXPECT_GE(maxWait, minSolve / 4)
        << "saturation must surface as queue-wait";
}

// ------------------------------------------------ the shared plan cache

TEST(ServeServer, WarmShapeTrafficBuildsOnePlan)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // Same plan every time (one matrix): after the first request
    // plans it, every later one hits the shared cache.
    const size_t total = 12;
    for (size_t i = 0; i < total; ++i) {
        ASSERT_TRUE(client.submitPairwise(
            static_cast<uint32_t>(i), fig2b(), dnaString(32, 10 + i),
            dnaString(32, 50 + i)));
        Response response; // serialize: no same-shape races on warmup
        ASSERT_TRUE(client.receive(response));
        ASSERT_EQ(response.status, Status::Ok);
    }

    const api::EngineStats stats = server.engineStats();
    EXPECT_EQ(stats.solves, total);
    EXPECT_EQ(stats.plansBuilt, 1u) << "only the cold miss may build";
    EXPECT_EQ(stats.planCacheHits, total - 1);

    server.stop();
}

TEST(ServeServer, SameShapeRequestsRaceOnSeveralWorkersAtOnce)
{
    // One matrix, one length pair, so one plan key.  Any worker takes
    // any job on the shared engine, so with 16 pipelined requests and
    // two workers at least two solve intervals must overlap.
    const size_t total = 16;
    std::mutex mutex;
    std::condition_variable recorded;
    std::vector<telemetry::RequestTrace> traces;
    ServerConfig cfg = tcpConfig();
    cfg.workers = 2;
    cfg.traceHook = [&](const telemetry::RequestTrace &t) {
        std::lock_guard<std::mutex> lock(mutex);
        traces.push_back(t);
        if (traces.size() == total)
            recorded.notify_one();
    };
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // 2000 x 2000 grids: each solve outlasts the arrival of the rest
    // even on the fastest sweep, the AVX-512BW band, so the
    // queue holds several jobs whenever a worker frees up.
    for (size_t i = 0; i < total; ++i)
        ASSERT_TRUE(client.submitPairwise(
            static_cast<uint32_t>(700 + i), fig2b(),
            dnaString(2000, 70 + i), dnaString(2000, 90 + i)));
    // Read the replies only once every job has run.  A reply sent
    // to a reader blocked on the socket wakes it, and on a host that
    // leaves the two workers one CPU between them that wake-up is
    // where the kernel switches from one worker to the other, so
    // their solves would never overlap there.
    {
        std::unique_lock<std::mutex> lock(mutex);
        ASSERT_TRUE(recorded.wait_for(lock, std::chrono::seconds(60), [&] {
            return traces.size() == total;
        }));
    }
    for (size_t i = 0; i < total; ++i) {
        Response response;
        ASSERT_TRUE(client.receive(response));
        ASSERT_EQ(response.status, Status::Ok);
    }
    server.stop();

    std::lock_guard<std::mutex> lock(mutex);
    size_t overlaps = 0, raced = 0;
    for (size_t i = 0; i < traces.size(); ++i) {
        const telemetry::RequestTrace &x = traces[i];
        if (x.tag != static_cast<uint8_t>(RequestTag::Pairwise))
            continue;
        ++raced;
        for (size_t j = i + 1; j < traces.size(); ++j) {
            const telemetry::RequestTrace &y = traces[j];
            if (y.tag == static_cast<uint8_t>(RequestTag::Pairwise) &&
                x.solveStart < y.solveDone && y.solveStart < x.solveDone)
                ++overlaps;
        }
    }
    EXPECT_EQ(raced, total);
    EXPECT_GE(overlaps, 1u)
        << "no two same-shape solves ever ran at the same time";
    EXPECT_EQ(server.engineStats().plansBuilt +
                  server.engineStats().planCacheHits,
              total);
}

TEST(ServeServer, ShortRequestsOvertakeALongSolve)
{
    // Each worker pulls its own next job, so a long solve holds one
    // worker and nothing else: short requests on another connection
    // run on the idle worker and all finish first.  The check reads
    // completion order from the trace hook, not timings.
    std::mutex mutex;
    std::vector<uint32_t> finished; // raced ids, in completion order
    ServerConfig cfg = tcpConfig();
    cfg.workers = 2;
    cfg.maxGridCells = 1ull << 28; // room for the long race below
    cfg.traceHook = [&](const telemetry::RequestTrace &t) {
        if (t.tag != static_cast<uint8_t>(RequestTag::Pairwise))
            return;
        std::lock_guard<std::mutex> lock(mutex);
        finished.push_back(t.id);
    };
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient slow = ServeClient::overTcp(server.port());
    ServeClient fast = ServeClient::overTcp(server.port());

    // 12001 x 12001 cells race for over 25 ms even on the skewed
    // AVX-512BW band (about 0.2 ns per cell), which keeps the race:
    // its latest arrival, the sink at 16172, stays below 2^14.  Off
    // the band, and under TSan, the race takes seconds, and the eight
    // 21 x 21 races below slow down about as much and still have some
    // 300 000 times fewer cells.
    ASSERT_TRUE(slow.submitPairwise(1, fig2b(), dnaString(12000, 61),
                                    dnaString(12000, 62)));

    // Send the shorts only once a worker has popped the long race.
    Response response;
    for (uint32_t probe = 100;; ++probe) {
        ASSERT_LT(probe, 20000u) << "the long race never went inflight";
        ASSERT_TRUE(fast.submitStats(probe));
        ASSERT_TRUE(fast.receive(response));
        ASSERT_TRUE(response.queueStats.has_value());
        if (response.queueStats->inflight == 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const size_t shorts = 8;
    for (uint32_t i = 0; i < shorts; ++i)
        ASSERT_TRUE(fast.submitPairwise(10 + i, fig2b(),
                                        dnaString(20, 70 + i),
                                        dnaString(20, 80 + i)));
    for (size_t i = 0; i < shorts; ++i) {
        ASSERT_TRUE(fast.receive(response));
        EXPECT_EQ(response.status, Status::Ok);
    }
    ASSERT_TRUE(slow.receive(response));
    EXPECT_EQ(response.status, Status::Ok);
    server.stop();

    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(finished.size(), shorts + 1);
    EXPECT_EQ(finished.back(), 1u)
        << "a short request waited behind the long solve";
}

TEST(ServeServer, SmallRequestsSolveOnTheirConnectionLargeOnesOnAWorker)
{
    // The trace hook runs on the thread that served the request, so
    // the thread each id was recorded on says who solved it.
    std::mutex mutex;
    std::map<uint32_t, std::thread::id> servedOn;
    ServerConfig cfg = tcpConfig();
    cfg.traceHook = [&](const telemetry::RequestTrace &t) {
        std::lock_guard<std::mutex> lock(mutex);
        servedOn[t.id] = std::this_thread::get_id();
    };
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());
    auto inlineSolves = [&server] {
        const telemetry::Snapshot snap = server.metricsSnapshot();
        const telemetry::CounterSnapshot *claims =
            snap.counter("rl_serve_inline_solves_total");
        return claims ? claims->value : UINT64_MAX;
    };
    EXPECT_EQ(inlineSolves(), 0u);

    // A 33 x 33 screen on an idle daemon: under the bound, solved on
    // the connection thread that also answers the Ping.
    static_assert(33 * 33 <= kInlineCells);
    Response response;
    ASSERT_TRUE(client.submitScreen(1, fig2b(), 40, dnaString(32, 21),
                                    dnaString(32, 22)));
    ASSERT_TRUE(client.receive(response));
    ASSERT_EQ(response.status, Status::Ok);
    EXPECT_EQ(inlineSolves(), 1u);
    ASSERT_TRUE(client.submitPing(2));
    ASSERT_TRUE(client.receive(response));

    // A 201 x 201 pairwise is over it and goes through a worker.
    static_assert(201 * 201 > kInlineCells);
    ASSERT_TRUE(client.submitPairwise(3, fig2b(), dnaString(200, 23),
                                      dnaString(200, 24)));
    ASSERT_TRUE(client.receive(response));
    ASSERT_EQ(response.status, Status::Ok);
    EXPECT_EQ(inlineSolves(), 1u);
    server.stop();

    // Both count in the one ledger, claimed or queued.
    const QueueStats stats = server.queueStats();
    EXPECT_EQ(stats.enqueued, 2u);
    EXPECT_EQ(stats.completed, 2u);
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(servedOn.size(), 3u);
    EXPECT_EQ(servedOn[1], servedOn[2])
        << "the screen was not solved on its connection thread";
    EXPECT_NE(servedOn[3], servedOn[2])
        << "the 201 x 201 race was not handed to a worker";
}

// ------------------------------------------------------- protocol abuse

TEST(ServeServer, OversizedLengthPrefixGetsTypedReplyThenClose)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    ASSERT_TRUE(client.sendBytes({0xFF, 0xFF, 0xFF, 0xFF}));
    Response response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::Oversized);
    EXPECT_EQ(response.id, 0u); // id unknowable from a hostile prefix

    // The framing is poisoned, so the daemon hangs up...
    EXPECT_FALSE(client.receive(response));
    EXPECT_EQ(server.queueStats().rejectedOversized, 1u);

    // ...but keeps serving fresh connections.
    ServeClient fresh = ServeClient::overTcp(server.port());
    ASSERT_TRUE(fresh.submitPing(1));
    ASSERT_TRUE(fresh.receive(response));
    EXPECT_EQ(response.status, Status::Ok);

    server.stop();
}

TEST(ServeServer, UnknownTagIsBadRequestAndConversationContinues)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    ASSERT_TRUE(client.submitRaw({9, 0, 0, 0, 250}));
    Response response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::BadRequest);
    EXPECT_EQ(response.id, 9u);
    EXPECT_EQ(response.message, "unknown-kind");

    // Frame boundaries are intact: the same connection still works.
    ASSERT_TRUE(client.submitPing(10));
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_EQ(server.queueStats().rejectedBadRequest, 1u);

    server.stop();
}

TEST(ServeServer, MidFrameDisconnectLeavesTheDaemonServing)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());

    {
        // Promise 100 bytes, send 3, vanish.
        ServeClient rude = ServeClient::overTcp(server.port());
        ASSERT_TRUE(rude.sendBytes({100, 0, 0, 0, 1, 2, 3}));
        rude.close();
    }

    ServeClient polite = ServeClient::overTcp(server.port());
    ASSERT_TRUE(polite.submitPing(4));
    Response response;
    ASSERT_TRUE(polite.receive(response));
    EXPECT_EQ(response.status, Status::Ok);

    server.stop();
}

TEST(ServeServer, InvalidProblemIsBadRequestNotACrash)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // A zero-weight matrix would trip the engine's race-ready assert;
    // the wire layer must bounce it long before the engine sees it.
    ASSERT_TRUE(client.submitPairwise(
        6, bio::ScoreMatrix::unitEdit(bio::Alphabet("ACGT")), "ACGT",
        "ACGT"));
    Response response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::BadRequest);

    ASSERT_TRUE(client.submitPing(7));
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::Ok);

    server.stop();
}

// ------------------------------------------------- slow peers & deadlines

TEST(ServeServer, MidFrameStallerIsSeveredWhileOthersAreServed)
{
    ServerConfig cfg = tcpConfig();
    cfg.ioTimeoutMs = 100;
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());

    // The staller promises 64 bytes, sends 3, and then just... waits.
    ServeClient staller = ServeClient::overTcp(server.port());
    ASSERT_TRUE(staller.sendBytes({64, 0, 0, 0, 1, 2, 3}));

    // While the staller holds its frame open, other connections get
    // full service -- the stall pins no shared thread.
    ServeClient polite = ServeClient::overTcp(server.port());
    Response response;
    for (uint32_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(polite.submitPairwise(i, fig2b(), dnaString(20, i),
                                          dnaString(20, i + 9)));
        ASSERT_TRUE(polite.receive(response));
        EXPECT_EQ(response.status, Status::Ok);
    }

    // After ioTimeoutMs the reader gives up and severs the staller.
    EXPECT_EQ(staller.receive(response, deadlineAfterMs(5000)),
              IoStatus::Eof);

    server.stop();
}

TEST(ServeServer, IdlePeerIsHungUpOnAfterIdleTimeout)
{
    ServerConfig cfg = tcpConfig();
    cfg.idleTimeoutMs = 50;
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());

    // Connect, say nothing: the daemon reclaims the connection.
    ServeClient idler = ServeClient::overTcp(server.port());
    ASSERT_TRUE(idler.ok());
    Response response;
    EXPECT_EQ(idler.receive(response, deadlineAfterMs(5000)),
              IoStatus::Eof);

    // An idle hangup is housekeeping, not an error: new connections
    // are welcome.
    ServeClient fresh = ServeClient::overTcp(server.port());
    ASSERT_TRUE(fresh.submitPing(1));
    ASSERT_TRUE(fresh.receive(response));
    EXPECT_EQ(response.status, Status::Ok);

    server.stop();
}

TEST(ServeServer, StoppedReaderIsSeveredByTheWriteDeadline)
{
    ServerConfig cfg = tcpConfig();
    cfg.workers = 1;
    cfg.queueDepth = 256;
    cfg.ioTimeoutMs = 150;
    cfg.sndbufBytes = 2048; // tiny send buffer: small responses stall
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());

    // A peer that submits a pile of work and never reads a byte.  A
    // raw socket with a deliberately tiny receive buffer (set before
    // connect, so the window is negotiated small) makes the daemon's
    // response writes stall after a few kilobytes; the write deadline
    // then trips and the connection is severed -- costing at most one
    // ioTimeoutMs of one worker's time.
    ScopedFd rude(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_TRUE(rude.valid());
    int rcvbuf = 1024;
    ::setsockopt(rude.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                 sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(rude.get(),
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    const std::string a = dnaString(24, 31), b = dnaString(24, 32);
    size_t sent = 0;
    for (; sent < 400; ++sent) {
        const auto framed = frame(encodePairwise(
            static_cast<uint32_t>(sent), fig2b(), a, b));
        if (writeAll(rude.get(), framed.data(), framed.size(),
                     deadlineAfterMs(2000)) != IoStatus::Ok)
            break; // severed mid-send: the daemon gave up on us
    }
    ASSERT_GT(sent, 0u);

    // Now genuinely stop reading for a window several times the write
    // deadline.  The replies to those requests overflow the ~3 KB of
    // socket buffering within the first few dozen, the daemon's reply
    // write stalls against our zero receive window, the 150 ms
    // deadline trips, and the connection is severed.  (Draining
    // *immediately* instead would make us a well-behaved reader and
    // rescue the stalled write -- the whole point is that we do not.)
    std::this_thread::sleep_for(std::chrono::milliseconds(2000));

    // The sever is observable as buffered-bytes-then-FIN (or a reset):
    // draining hits EOF/error long before the megabyte we ask for.
    std::vector<uint8_t> sink(1u << 20);
    EXPECT_NE(readExact(rude.get(), sink.data(), sink.size(),
                        deadlineAfterMs(10000)),
              IoStatus::Timeout);
    rude.reset();

    // And everyone else still gets answers afterwards.
    ServeClient polite = ServeClient::overTcp(server.port());
    ASSERT_TRUE(polite.submitPing(9));
    Response response;
    ASSERT_TRUE(polite.receive(response));
    EXPECT_EQ(response.status, Status::Ok);

    server.stop();
}

TEST(ServeServer, QueuedRequestPastDeadlineIsShedNotRaced)
{
    ServerConfig cfg = tcpConfig();
    cfg.workers = 1;
    cfg.queueDepth = 8;
    cfg.maxGridCells = 1ull << 26; // room for the blocker below
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // The blocker holds the single worker well past the doomed
    // request's 1 ms deadline -- 6400 x 6400 cells race for some 6 ms
    // or more even on the skewed AVX-512BW band at about 0.2 ns per
    // cell, and for hundreds off it -- so the doomed job is still
    // queued when the worker next pops, and it is shed without
    // touching the engine.
    ASSERT_TRUE(client.submitPairwise(1, fig2b(), dnaString(6400, 41),
                                      dnaString(6400, 42)));
    ASSERT_TRUE(client.submitPairwise(2, fig2b(), dnaString(500, 43),
                                      dnaString(500, 44), 1));

    size_t ok = 0, shed = 0;
    for (int i = 0; i < 2; ++i) {
        Response response;
        ASSERT_TRUE(client.receive(response));
        if (response.status == Status::Ok)
            ++ok;
        if (response.status == Status::DeadlineExceeded) {
            ++shed;
            EXPECT_EQ(response.id, 2u);
            EXPECT_EQ(response.message, "deadline expired while queued");
        }
    }
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(shed, 1u);

    server.stop();

    // The shed request never reached the engine: one solve, and the
    // ledger accounts the shed explicitly.
    EXPECT_EQ(server.engineStats().solves, 1u);
    const QueueStats stats = server.queueStats();
    EXPECT_EQ(stats.shedDeadline, 1u);
    EXPECT_EQ(stats.enqueued, stats.completed + stats.queued +
                                  stats.inflight + stats.shedDeadline);
}

TEST(ServeServer, DeadlineTrippingMidRaceCancelsCooperatively)
{
    ServerConfig cfg = tcpConfig();
    cfg.workers = 1;
    cfg.maxGridCells = 1ull << 32; // room for the race below
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // A 48001x48001 grid's row 0 alone reaches 2^14, so the skewed
    // band gives the race back before its first band, and the row
    // sweep races it for about 10 s (some 4.5 ns per cell), polling
    // the token every row of 48001 cells: over ten times the 150 ms
    // deadline.  The deadline counts from frame arrival, so it also
    // leaves room to decode the 96 KB request in an instrumented
    // build (about 60 ms under TSan).  The queue is otherwise empty,
    // so the job drains (and starts) well before the deadline, then
    // the token trips mid-sweep.
    ASSERT_TRUE(client.submitPairwise(3, fig2b(), dnaString(48000, 51),
                                      dnaString(48000, 52), 150));
    Response response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::DeadlineExceeded);
    EXPECT_FALSE(response.solve.has_value());

    server.stop();

    // Not shed: the race started and was cancelled from inside.
    EXPECT_EQ(server.queueStats().shedDeadline, 0u);
    EXPECT_EQ(server.engineStats().solves, 1u);
}

// ---------------------------------------------- health, brownout, reload

/** Same alphabet as bubbleGraph(), different spine: reload-compatible
 *  but alignment scores differ, so version swaps are observable. */
std::shared_ptr<const pangraph::VariationGraph>
forkGraph()
{
    const std::string gfa = "H\tVN:Z:1.0\n"
                            "S\ts1\tAAC\n"
                            "S\ts2\tGG\n"
                            "S\ts3\tTT\n"
                            "S\ts4\tCAA\n"
                            "L\ts1\t+\ts2\t+\t0M\n"
                            "L\ts1\t+\ts3\t+\t0M\n"
                            "L\ts2\t+\ts4\t+\t0M\n"
                            "L\ts3\t+\ts4\t+\t0M\n";
    std::istringstream in(gfa);
    return std::make_shared<pangraph::VariationGraph>(
        pangraph::readGfa(in, bio::Alphabet("ACGT")));
}

api::RaceResult
directGraphSolve(const std::shared_ptr<const pangraph::VariationGraph> &g,
                 const std::string &read)
{
    api::EngineConfig direct;
    direct.workerThreads = 1;
    api::RaceEngine engine(direct);
    return engine.solve(api::RaceProblem::graphAlign(
        fig2b(), bio::Sequence(bio::Alphabet("ACGT"), read), g));
}

TEST(ServeServer, HealthAnswersInlineEvenWhileSaturated)
{
    ServerConfig cfg = tcpConfig();
    cfg.workers = 1;
    cfg.queueDepth = 2;
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient loader = ServeClient::overTcp(server.port());
    ServeClient prober = ServeClient::overTcp(server.port());

    // Saturate the single worker with big grids...
    const std::string a = dnaString(200, 13), b = dnaString(200, 14);
    const size_t total = 8;
    for (size_t i = 0; i < total; ++i)
        ASSERT_TRUE(loader.submitPairwise(static_cast<uint32_t>(i),
                                          fig2b(), a, b));

    // ...and Health still answers inline on another connection, with
    // a bounded wait: it never enters the admission queue.
    ASSERT_TRUE(prober.submitHealth(70));
    Response health;
    ASSERT_EQ(prober.receive(health, deadlineAfterMs(2000)),
              IoStatus::Ok);
    ASSERT_EQ(health.status, Status::Ok);
    ASSERT_TRUE(health.health.has_value());
    EXPECT_EQ(health.health->state, HealthState::Ready);
    EXPECT_EQ(health.health->graphVersion, 1u);

    for (size_t i = 0; i < total; ++i) {
        Response r;
        ASSERT_TRUE(loader.receive(r));
    }
    server.stop();
}

TEST(ServeServer, TinyMemoryBudgetEntersAndExitsBrownoutObservably)
{
    ServerConfig cfg = tcpConfig();
    cfg.workers = 1;
    cfg.memBudgetBytes = 1; // any resident plan trips the budget
    cfg.janitorIntervalMs = 10;
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // A scratch the janitor cannot reclaim while `held` is set: it
    // keeps usage above the low watermark for as long as the test
    // probes the latch, which the 10 ms janitor could otherwise
    // release between the probes.  Zero bytes until armed; armed
    // before the solve, so the janitor's pass that latches the
    // brownout already reads it and the latch cannot flap.
    std::atomic<bool> held{false};
    core::ScratchRegistration hold([&held](bool) -> size_t {
        return held.load() ? 4096 : 0;
    });

    EXPECT_FALSE(server.brownedOut());

    // One solve leaves a resident plan; the next janitor tick crosses
    // the 1-byte high watermark and latches the brownout.
    held.store(true);
    ASSERT_TRUE(client.submitPairwise(1, fig2b(), dnaString(40, 15),
                                      dnaString(40, 16)));
    Response r;
    ASSERT_TRUE(client.receive(r));
    ASSERT_EQ(r.status, Status::Ok);
    for (int i = 0; i < 500 && !server.brownedOut(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(server.brownedOut());

    // Observable three ways: the Health state, the gauge, and the
    // typed shed of batch-class work at admission.
    ASSERT_TRUE(client.submitHealth(2));
    ASSERT_TRUE(client.receive(r));
    ASSERT_TRUE(r.health.has_value());
    EXPECT_EQ(r.health->state, HealthState::Brownout);

    const telemetry::Snapshot snap = server.metricsSnapshot();
    const telemetry::GaugeSnapshot *gauge =
        snap.gauge("rl_serve_brownout");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value, 1);
    EXPECT_NE(snap.gauge("rl_mem_plan_cache_bytes"), nullptr);
    EXPECT_NE(snap.gauge("rl_mem_budget_bytes"), nullptr);

    ASSERT_TRUE(client.submitPairwise(3, fig2b(), dnaString(40, 17),
                                      dnaString(40, 18), 0,
                                      Priority::Batch));
    ASSERT_TRUE(client.receive(r));
    EXPECT_EQ(r.status, Status::ResourceExhausted);

    // The janitor's reclaim (scratch shrink + plan eviction) drives
    // usage to zero, which is under the low watermark: the latch must
    // release on its own.
    held.store(false);
    for (int i = 0; i < 500 && server.brownedOut(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(server.brownedOut());

    // Interactive work was never shed at admission, before or after.
    ASSERT_TRUE(client.submitPairwise(4, fig2b(), dnaString(40, 19),
                                      dnaString(40, 20), 0,
                                      Priority::Interactive));
    ASSERT_TRUE(client.receive(r));
    EXPECT_EQ(r.status, Status::Ok);

    server.stop();
    const QueueStats stats = server.queueStats();
    EXPECT_GE(stats.rejectedResource, 1u);
    EXPECT_GE(stats.classes[0].rejectedResource, 1u);
    EXPECT_EQ(stats.enqueued, stats.completed + stats.shedDeadline +
                                  stats.shedEvicted);
}

TEST(ServeServer, ReloadSwapsGraphsWithVersionBumpAndFidelity)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    const std::string read = "ACGTGA";
    ASSERT_TRUE(client.submitGraphAlign(1, read, bio::kScoreInfinity));
    Response before;
    ASSERT_TRUE(client.receive(before));
    ASSERT_EQ(before.status, Status::Ok);
    const api::RaceResult v1 = directGraphSolve(bubbleGraph(), read);
    EXPECT_EQ(before.solve->score, v1.score);
    EXPECT_EQ(before.solve->racedCost, v1.racedCost);

    const racelogic::Status reload = server.reloadGraph(forkGraph());
    ASSERT_TRUE(reload.ok()) << reload.toString();
    EXPECT_EQ(server.graphVersion(), 2u);

    ASSERT_TRUE(client.submitGraphAlign(2, read, bio::kScoreInfinity));
    Response after;
    ASSERT_TRUE(client.receive(after));
    ASSERT_EQ(after.status, Status::Ok);
    const api::RaceResult v2 = directGraphSolve(forkGraph(), read);
    EXPECT_EQ(after.solve->score, v2.score);
    EXPECT_EQ(after.solve->racedCost, v2.racedCost);
    EXPECT_NE(after.solve->score, before.solve->score)
        << "the fork graph is chosen so the swap is observable";

    ASSERT_TRUE(client.submitHealth(3));
    Response health;
    ASSERT_TRUE(client.receive(health));
    ASSERT_TRUE(health.health.has_value());
    EXPECT_EQ(health.health->graphVersion, 2u);

    server.stop();
}

TEST(ServeServer, FailedReloadKeepsTheOldGraphServing)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    // A null graph is rejected with a typed status...
    EXPECT_FALSE(server.reloadGraph(nullptr).ok());

    // ...and so is a graph over a different alphabet: connections
    // decode against the serving alphabet, so swapping it mid-flight
    // would corrupt every pipelined request.
    const std::string gfa = "H\tVN:Z:1.0\n"
                            "S\ts1\tAC\n"
                            "S\ts2\tGA\n"
                            "L\ts1\t+\ts2\t+\t0M\n";
    std::istringstream in(gfa);
    auto foreign = std::make_shared<pangraph::VariationGraph>(
        pangraph::readGfa(in, bio::Alphabet("ACG")));
    EXPECT_FALSE(server.reloadGraph(foreign).ok());

    // Both failures left version and behavior untouched.
    EXPECT_EQ(server.graphVersion(), 1u);
    const std::string read = "ACGTGA";
    ASSERT_TRUE(client.submitGraphAlign(9, read, bio::kScoreInfinity));
    Response response;
    ASSERT_TRUE(client.receive(response));
    ASSERT_EQ(response.status, Status::Ok);
    const api::RaceResult expected = directGraphSolve(bubbleGraph(), read);
    EXPECT_EQ(response.solve->score, expected.score);
    EXPECT_EQ(response.solve->racedCost, expected.racedCost);

    server.stop();
}

// --------------------------------------------------------- lifecycle

/** Entries of a /proc/self directory: open fds or live threads. */
size_t
procEntries(const char *dir)
{
    size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++n;
    }
    return n;
}

TEST(ServeServer, HungUpConnectionsReleaseTheirFdAndThread)
{
    AlignServer server(tcpConfig());
    ASSERT_TRUE(server.start());
    const size_t fds = procEntries("/proc/self/fd");
    const size_t tasks = procEntries("/proc/self/task");
    const core::ScratchRegistry &scratch = core::ScratchRegistry::instance();
    const size_t slots = scratch.entryCount();

    // Each connection also races a screen on its own thread, which
    // registers that thread's solve scratch.
    const uint32_t cycles = 100;
    for (uint32_t i = 0; i < cycles; ++i) {
        ServeClient client = ServeClient::overTcp(server.port());
        ASSERT_TRUE(client.submitPing(i));
        Response response;
        ASSERT_TRUE(client.receive(response));
        ASSERT_EQ(response.status, Status::Ok);
        ASSERT_TRUE(client.submitScreen(i, fig2b(), 40, dnaString(32, i),
                                        dnaString(32, i + 1)));
        ASSERT_TRUE(client.receive(response));
        ASSERT_EQ(response.status, Status::Ok);
    }

    // Before stop(): the last few readers may still be seeing their
    // peer's hang-up, so allow them a moment and a small slack.
    const size_t slack = 4;
    auto settled = [&] {
        return procEntries("/proc/self/fd") <= fds + slack &&
               procEntries("/proc/self/task") <= tasks + slack &&
               scratch.entryCount() <= slots + slack;
    };
    for (int i = 0; i < 400 && !settled(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_LE(procEntries("/proc/self/fd"), fds + slack);
    EXPECT_LE(procEntries("/proc/self/task"), tasks + slack);
    EXPECT_LE(scratch.entryCount(), slots + slack)
        << "exited connection threads left their scratch slots behind";
    server.stop();
}

TEST(ServeServer, StopDrainsAdmittedWorkBeforeReturning)
{
    ServerConfig cfg = tcpConfig();
    cfg.workers = 1;
    cfg.queueDepth = 8;
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());

    const std::string a = dnaString(150, 7), b = dnaString(150, 8);
    for (uint32_t i = 0; i < 6; ++i)
        ASSERT_TRUE(client.submitPairwise(i, fig2b(), a, b));

    server.stop(); // must block until all six responses are flushed

    const QueueStats stats = server.queueStats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(stats.enqueued, stats.completed);

    // Every admitted request's response is already in our socket
    // buffer, even though the daemon is down.  Requests caught by the
    // shutdown may have typed ShuttingDown replies interleaved.
    uint64_t okReplies = 0;
    Response response;
    while (client.receive(response))
        okReplies += response.status == Status::Ok;
    EXPECT_EQ(okReplies, stats.completed);
}

} // namespace
