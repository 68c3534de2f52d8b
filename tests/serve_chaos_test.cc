/**
 * @file
 * Chaos suite: the full daemon under seeded fault schedules.
 *
 * Each schedule installs a deterministic FaultInjector (short I/O,
 * injected delays, connections severed at drawn byte offsets) under
 * every socket in the process -- the daemon's *and* the client's --
 * and drives a retrying client workload through it.  The claims, per
 * schedule:
 *
 *  1. no hang: the whole schedule finishes inside a hard wall-clock
 *     bound (timeouts + retries, never a pinned thread);
 *  2. no crash: the daemon survives to a clean stop();
 *  3. ledger coherence: after the drain, enqueued == completed +
 *     queued + inflight + shedDeadline + shedEvicted, every frame
 *     accounted;
 *  4. fidelity: every response that *does* survive the chaos is
 *     bit-identical to a direct api::RaceEngine solve of the same
 *     problem -- faults may lose answers, never corrupt them.
 *
 * The workload sets no wire deadlines: a cancelled race would
 * legitimately differ from a direct solve, and this suite is about
 * transport faults, not deadline semantics (serve_server_test covers
 * those).
 *
 * A second suite fires SIGHUP-equivalent graph reloads (valid swaps
 * and broken candidates, interleaving drawn from the seed) into the
 * middle of a live graph-align workload and pins the hot-swap
 * contract: no request is ever dropped by a reload, every answer is
 * bit-identical to a direct solve against one of the two known graph
 * versions (in-flight solves stay pinned to the version they admitted
 * under), and failed reloads leave the serving graph untouched.
 *
 * CI's smoke step runs one schedule via --gtest_filter; this file
 * runs twenty plus the reload schedules.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rl/api/api.h"
#include "rl/pangraph/gfa.h"
#include "rl/serve/client.h"
#include "rl/serve/fault.h"
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

/** One request of the chaos workload, with its direct-solve twin. */
struct ChaosCase {
    std::vector<uint8_t> payload;   ///< encoded request (no deadline)
    api::RaceProblem problem;       ///< the same problem, direct
};

class ServeChaosTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ServeChaosTest, ScheduleRunsCleanAndFaithful)
{
    const uint32_t seed = GetParam();
    const auto start = std::chrono::steady_clock::now();

    auto graph = bubbleGraph();

    // The fault schedule, entirely derived from the seed.
    FaultConfig faults;
    faults.seed = seed;
    faults.shortIoProbability = 0.3;
    faults.delayProbability = 0.2;
    faults.delayMaxMicros = 500;
    faults.dropProbability = 0.25 + 0.02 * (seed % 5);
    faults.dropMinBytes = 32;
    faults.dropMaxBytes = 2048;
    FaultInjector injector(faults);
    FaultInjector::install(&injector);

    ServerConfig cfg;
    cfg.tcpPort = 0;
    cfg.workers = 2;
    cfg.queueDepth = 16;
    cfg.ioTimeoutMs = 500;
    cfg.graph = graph;
    cfg.graphMatrix = fig2b();
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());

    // Twelve deterministic problems per schedule, mixed kinds.
    std::vector<ChaosCase> cases;
    for (uint32_t i = 0; i < 12; ++i) {
        const uint32_t id = 100 + i;
        const std::string a = dnaString(24 + 3 * i, seed * 97 + i);
        const std::string b = dnaString(24 + 2 * i, seed * 131 + i);
        switch (i % 3) {
        case 0:
            cases.push_back(
                {encodePairwise(id, fig2b(), a, b),
                 api::RaceProblem::pairwiseAlignment(
                     fig2b(), bio::Sequence(bio::Alphabet("ACGT"), a),
                     bio::Sequence(bio::Alphabet("ACGT"), b))});
            break;
        case 1:
            cases.push_back(
                {encodeScreen(id, fig2b(), 12, a, b),
                 api::RaceProblem::thresholdScreen(
                     fig2b(), 12,
                     bio::Sequence(bio::Alphabet("ACGT"), a),
                     bio::Sequence(bio::Alphabet("ACGT"), b))});
            break;
        default: {
            const std::string read = dnaString(6, seed * 17 + i);
            cases.push_back(
                {encodeGraphAlign(id, read, bio::kScoreInfinity),
                 api::RaceProblem::graphAlign(
                     fig2b(),
                     bio::Sequence(bio::Alphabet("ACGT"), read), graph,
                     bio::kScoreInfinity)});
            break;
        }
        }
    }

    // Drive the workload through the faulty transport: per-request
    // timeouts, seeded backoff, reconnect on severed connections.
    ServeClient client = ServeClient::overTcp(server.port(), 2000);
    RetryPolicy policy;
    policy.maxAttempts = 4;
    policy.timeoutMs = 2000;
    policy.backoffBaseMs = 5;
    policy.backoffMaxMs = 50;
    policy.jitterSeed = seed;

    std::vector<Response> survived(cases.size());
    std::vector<bool> gotOk(cases.size(), false);
    for (size_t i = 0; i < cases.size(); ++i) {
        Response response;
        if (client.call(cases[i].payload, response, policy) &&
            response.status == Status::Ok) {
            survived[i] = response;
            gotOk[i] = true;
        }
    }

    server.stop();
    FaultInjector::install(nullptr);

    // 1. No hang: schedule bounded in wall clock (generous, but a
    //    pinned thread would blow straight through it).
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed, 60000) << "chaos schedule " << seed
                              << " took implausibly long";

    // 3. Ledger coherence after the drain: nothing outstanding,
    //    every admitted frame accounted for exactly once.
    const QueueStats stats = server.queueStats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(stats.enqueued, stats.completed + stats.queued +
                                  stats.inflight + stats.shedDeadline +
                                  stats.shedEvicted);
    EXPECT_EQ(stats.shedDeadline, 0u)
        << "no wire deadlines were set, so nothing may be shed";
    EXPECT_EQ(stats.shedEvicted, 0u)
        << "a single-class workload has no lower class to evict";

    // 3b. Telemetry coherence after the drain: every retired job
    //     recorded exactly one end-to-end latency sample, so the
    //     histogram's count matches the queue's completed ledger, and
    //     the synthetic queue series mirror the same snapshot.
    const telemetry::Snapshot snap = server.metricsSnapshot();
    const telemetry::HistogramSnapshot *e2e =
        snap.histogram("rl_serve_request_us");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->count, stats.completed)
        << "raced latency samples must match the completed ledger";
    const telemetry::CounterSnapshot *completedSeries =
        snap.counter("rl_queue_completed_total");
    ASSERT_NE(completedSeries, nullptr);
    EXPECT_EQ(completedSeries->value, stats.completed);

    // 4. Fidelity: surviving responses are bit-identical to direct
    //    engine solves of the same problems.
    api::EngineConfig directConfig;
    directConfig.workerThreads = 1;
    api::RaceEngine direct(directConfig);
    for (size_t i = 0; i < cases.size(); ++i) {
        if (!gotOk[i])
            continue;
        ASSERT_TRUE(survived[i].solve.has_value())
            << "Ok response without a solve body (case " << i << ")";
        const api::RaceResult expected = direct.solve(cases[i].problem);
        const SolveReply &got = *survived[i].solve;
        EXPECT_EQ(got.score, expected.score) << "case " << i;
        EXPECT_EQ(got.racedCost, expected.racedCost) << "case " << i;
        EXPECT_EQ(got.latencyCycles,
                  static_cast<uint64_t>(expected.latencyCycles))
            << "case " << i;
        EXPECT_EQ(got.cyclesUsed,
                  static_cast<uint64_t>(expected.cyclesUsed))
            << "case " << i;
        EXPECT_EQ(got.events, expected.events) << "case " << i;
        EXPECT_EQ(got.nodes, expected.nodes) << "case " << i;
        EXPECT_EQ(got.cellsFired, expected.cellsFired) << "case " << i;
        EXPECT_EQ(got.completed, expected.completed) << "case " << i;
        EXPECT_EQ(got.accepted, expected.accepted) << "case " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Schedules, ServeChaosTest,
                         ::testing::Range(1u, 21u));

// ------------------------------------------------- reload under fire

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

/** A structurally fine graph over the wrong alphabet: the "broken
 *  GFA" reload candidate -- it parses, but can never serve alongside
 *  the daemon's ACGT score matrix. */
std::shared_ptr<const pangraph::VariationGraph>
foreignAlphabetGraph()
{
    const std::string gfa = "H\tVN:Z:1.0\n"
                            "S\ts1\tAC\n"
                            "S\ts2\tGA\n"
                            "L\ts1\t+\ts2\t+\t0M\n";
    std::istringstream in(gfa);
    return std::make_shared<pangraph::VariationGraph>(
        pangraph::readGfa(in, bio::Alphabet("ACG")));
}

class ReloadChaosTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ReloadChaosTest, HotSwapMidTrafficDropsNothing)
{
    const uint32_t seed = GetParam();
    const auto start = std::chrono::steady_clock::now();

    auto vOne = bubbleGraph();
    auto vTwo = forkGraph();

    ServerConfig cfg;
    cfg.tcpPort = 0;
    cfg.workers = 2;
    cfg.queueDepth = 16;
    cfg.graph = vOne;
    cfg.graphMatrix = fig2b();
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());

    // A reloader thread plays the SIGHUP role with a seeded cadence:
    // valid swaps to the fork graph, broken candidates (null and
    // alphabet-mismatched), valid swaps back.  Outcomes are collected
    // and asserted on the main thread after the join.
    std::atomic<bool> done{false};
    std::atomic<uint32_t> validReloads{0};
    std::atomic<uint32_t> validFailures{0};
    std::atomic<uint32_t> brokenAccepted{0};
    std::thread reloader([&] {
        uint32_t state = seed * 2654435761u + 1;
        size_t round = 0;
        while (!done.load(std::memory_order_acquire)) {
            state = state * 1664525u + 1013904223u;
            std::this_thread::sleep_for(
                std::chrono::microseconds(100 + state % 900));
            switch (round++ % 4) {
            case 0:
            case 2: {
                const racelogic::Status swap = server.reloadGraph(
                    (round / 2) % 2 ? vTwo : vOne);
                if (swap.ok())
                    validReloads.fetch_add(1);
                else
                    validFailures.fetch_add(1);
                break;
            }
            case 1:
                if (server.reloadGraph(nullptr).ok())
                    brokenAccepted.fetch_add(1);
                break;
            default:
                if (server.reloadGraph(foreignAlphabetGraph()).ok())
                    brokenAccepted.fetch_add(1);
                break;
            }
        }
    });

    // The workload: graph-align reads, no deadlines, no transport
    // faults -- every single request must come back Ok, whatever the
    // reloader is doing.  Each answer must be bit-identical to a
    // direct solve against one of the two known versions (a solve
    // admitted under v1 finishes on v1 even if the swap lands
    // mid-race).
    api::EngineConfig directConfig;
    directConfig.workerThreads = 1;
    api::RaceEngine direct(directConfig);
    const auto directSolve = [&](const std::shared_ptr<
                                     const pangraph::VariationGraph> &g,
                                 const std::string &read) {
        return direct.solve(api::RaceProblem::graphAlign(
            fig2b(), bio::Sequence(bio::Alphabet("ACGT"), read), g,
            bio::kScoreInfinity));
    };
    const auto matches = [](const SolveReply &got,
                            const api::RaceResult &want) {
        return got.score == want.score &&
               got.racedCost == want.racedCost &&
               got.latencyCycles ==
                   static_cast<uint64_t>(want.latencyCycles) &&
               got.events == want.events && got.nodes == want.nodes &&
               got.cellsFired == want.cellsFired &&
               got.completed == want.completed &&
               got.accepted == want.accepted;
    };

    ServeClient client = ServeClient::overTcp(server.port(), 4000);
    constexpr size_t kRequests = 48;
    size_t answered = 0;
    for (size_t i = 0; i < kRequests; ++i) {
        const std::string read = dnaString(5 + i % 4, seed * 29 + i);
        ASSERT_TRUE(client.submitGraphAlign(
            static_cast<uint32_t>(100 + i), read, bio::kScoreInfinity));
        Response response;
        ASSERT_TRUE(client.receive(response)) << "request " << i;
        ASSERT_EQ(response.status, Status::Ok) << "request " << i;
        ASSERT_TRUE(response.solve.has_value()) << "request " << i;
        ++answered;
        const bool onOld = matches(*response.solve,
                                   directSolve(vOne, read));
        const bool onNew = matches(*response.solve,
                                   directSolve(vTwo, read));
        EXPECT_TRUE(onOld || onNew)
            << "request " << i
            << " matches neither graph version bit-for-bit";
    }

    done.store(true, std::memory_order_release);
    reloader.join();
    server.stop();

    // No hang, no drop, nothing evicted or shed: a reload must never
    // cost an admitted request.
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed, 60000);
    EXPECT_EQ(answered, kRequests);
    EXPECT_EQ(brokenAccepted.load(), 0u)
        << "a broken reload candidate must be rejected";
    EXPECT_EQ(validFailures.load(), 0u)
        << "a well-formed same-alphabet swap must succeed";
    EXPECT_GT(validReloads.load(), 0u)
        << "the schedule must actually exercise a swap";

    const QueueStats stats = server.queueStats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_EQ(stats.enqueued, stats.completed + stats.queued +
                                  stats.inflight + stats.shedDeadline +
                                  stats.shedEvicted);
    EXPECT_EQ(stats.shedDeadline, 0u);
    EXPECT_EQ(stats.shedEvicted, 0u);
}

INSTANTIATE_TEST_SUITE_P(ReloadSchedules, ReloadChaosTest,
                         ::testing::Range(1u, 6u));

} // namespace
