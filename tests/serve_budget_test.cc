/**
 * @file
 * The serve plane's per-request budget, counted instead of timed: an
 * in-process AlignServer answers warm screen and pairwise requests,
 * one at a time (window 1) and as 8-frame bursts written with one
 * send(), and the test counts what the daemon's threads spend on each
 * request, and how many of them a worker had to take:
 *
 *  - heap allocations, with a counting global operator new (the idiom
 *    of core_kernel_alloc_test) that skips the client thread's own;
 *  - recv(), send() and poll() calls, read from an installed
 *    serve::FaultInjector whose fault probabilities are all zero.  The
 *    client here talks raw syscalls, so every counted call is the
 *    daemon's.
 *
 * Both counts are checked against the budgets below; a failing run
 * prints the measured counts.  Every reply is also checked against a
 * direct engine solve, so a budget can never be met by a wrong answer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "rl/api/api.h"
#include "rl/serve/fault.h"
#include "rl/serve/server.h"
#include "rl/util/random.h"

namespace {

std::atomic<uint64_t> gDaemonAllocations{0};

/** Set on the client (test) thread: its allocations are not the
 *  daemon's. */
thread_local bool tClientThread = false;

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (!tClientThread)
        gDaemonAllocations.fetch_add(1, std::memory_order_relaxed);
    n = n == 0 ? 1 : n;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t align)
{
    return countedAlloc(n, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t n, std::align_val_t align)
{
    return countedAlloc(n, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace racelogic;
using namespace racelogic::serve;
using Status = racelogic::serve::Status;

/** @name The committed budgets, per warm request.
 * These requests are under kInlineCells, so the connection thread
 * that reads one solves it: no worker drains a job.  Allocations: the
 * decoded matrix's table and the two sequences' symbols, which move
 * into the race problem.  The matrix is a copy of the connection's
 * last one (serve::MatrixSlot), whose alphabet table every copy
 * shares; no job closure is built.  Syscalls at window 1: the
 * connection thread's recv() of the frame and its send() of the
 * reply, plus a recv() that finds the socket empty and a poll()
 * whenever the client's next frame is not there yet.  How often that
 * is depends on where the scheduler wakes the client: most runs read
 * 2.4-2.9, but a run whose every wake-up lands on another CPU reads
 * exactly 4, so the budget is that worst case.  A burst of 8 shares
 * one recv(), one send() and at most one empty recv() and poll():
 * 0.30-0.37 measured, 0.5 at worst.
 * @{ */
constexpr double kAllocationsPerRequest = 3;
constexpr double kSyscallsPerRequestWindow1 = 4;
constexpr double kSyscallsPerRequestBurst8 = 0.5;
/** @} */

constexpr size_t kWarmRequests = 64;
constexpr size_t kMeasuredRequests = 256;
constexpr size_t kBurst = 8;

/** Raw blocking client over a Unix socket: no serve helper, so the
 *  injector counts none of its syscalls. */
class RawClient
{
  public:
    explicit RawClient(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
        if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ~RawClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool ok() const { return fd >= 0; }

    bool
    send(const std::vector<uint8_t> &bytes)
    {
        size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t rc = ::send(fd, bytes.data() + sent,
                                      bytes.size() - sent, MSG_NOSIGNAL);
            if (rc <= 0)
                return false;
            sent += static_cast<size_t>(rc);
        }
        return true;
    }

    bool
    receive(Response &out)
    {
        uint8_t header[kFrameHeaderBytes];
        uint32_t length = 0;
        if (!readAll(header, sizeof(header)) ||
            parseFrameHeader(header, sizeof(header), kDefaultMaxFrameBytes,
                             length) != WireError::None)
            return false;
        std::vector<uint8_t> payload(length);
        return readAll(payload.data(), length) &&
               decodeResponse(payload, out) == WireError::None;
    }

  private:
    bool
    readAll(uint8_t *out, size_t n)
    {
        size_t got = 0;
        while (got < n) {
            const ssize_t rc = ::recv(fd, out + got, n - got, 0);
            if (rc <= 0)
                return false;
            got += static_cast<size_t>(rc);
        }
        return true;
    }

    int fd = -1;
};

std::string
randomDna(util::Rng &rng, size_t n)
{
    static const char kLetters[] = "ACGT";
    std::string s(n, 'A');
    for (char &c : s)
        c = kLetters[rng.uniformInt(0, 3)];
    return s;
}

/** One pre-encoded request frame and the reply it must earn. */
struct Item {
    std::vector<uint8_t> frame;
    api::RaceResult expected;
};

/** What the daemon's threads spent over a measured window. */
struct Spent {
    double allocations = 0;
    double syscalls = 0;
    FaultInjector::Stats calls;
    uint64_t workerJobs = 0; ///< admitted jobs not solved inline
};

class ServeBudget : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        tClientThread = true;
        path = testing::TempDir() + "rl-budget-" +
               std::to_string(::getpid()) + ".sock";
        FaultInjector::install(&injector);
        ServerConfig cfg;
        cfg.unixPath = path;
        // One worker, so the warm-up is sure to have warmed every
        // thread the measured window runs on: a worker's first solve
        // grows its thread-local scratch and reply buffer, and under
        // load a second worker may take its first job only then.
        cfg.workers = 1;
        // Regrowing a worker's scratch after an idle shrink is a
        // memory policy, not a per-request cost: keep it out of the
        // count.
        cfg.scratchIdleMs = 0;
        cfg.engine.withEstimates = false; // as raceserved
        server = std::make_unique<AlignServer>(std::move(cfg));
        ASSERT_TRUE(server->start());
        client = std::make_unique<RawClient>(path);
        ASSERT_TRUE(client->ok());
    }

    void
    TearDown() override
    {
        client.reset();
        if (server)
            server->stop();
        server.reset();
        FaultInjector::install(nullptr);
    }

    /** Frames of `count` screen (32 nt, threshold 40) or pairwise
     *  (128 nt) requests, each with its direct engine answer. */
    std::vector<Item>
    items(RequestTag tag, size_t count)
    {
        util::Rng rng(tag == RequestTag::Screen ? 7 : 11);
        const bio::ScoreMatrix costs = bio::ScoreMatrix::dnaShortestPath();
        api::EngineConfig direct;
        direct.withEstimates = false;
        api::RaceEngine engine(direct);
        std::vector<Item> out;
        for (size_t i = 0; i < count; ++i) {
            const bool screen = tag == RequestTag::Screen;
            const std::string a = randomDna(rng, screen ? 32 : 128);
            const std::string b = randomDna(rng, screen ? 32 : 128);
            const uint32_t id = static_cast<uint32_t>(i + 1);
            Item item;
            item.frame = frame(screen ? encodeScreen(id, costs, 40, a, b)
                                      : encodePairwise(id, costs, a, b));
            const bio::Sequence sa(bio::Alphabet::dna(), a);
            const bio::Sequence sb(bio::Alphabet::dna(), b);
            item.expected = engine.solve(
                screen ? api::RaceProblem::thresholdScreen(costs, 40, sa, sb)
                       : api::RaceProblem::pairwiseAlignment(costs, sa, sb));
            out.push_back(std::move(item));
        }
        return out;
    }

    /** Send `n` requests cycling over `pool`, `window` frames per
     *  send(), and check every reply. */
    void
    exchange(const std::vector<Item> &pool, size_t n, size_t window)
    {
        for (size_t sent = 0; sent < n; sent += window) {
            std::vector<uint8_t> bytes;
            for (size_t k = 0; k < window; ++k) {
                const std::vector<uint8_t> &f =
                    pool[(sent + k) % pool.size()].frame;
                bytes.insert(bytes.end(), f.begin(), f.end());
            }
            ASSERT_TRUE(client->send(bytes));
            for (size_t k = 0; k < window; ++k) {
                Response r;
                ASSERT_TRUE(client->receive(r));
                ASSERT_EQ(r.status, Status::Ok) << r.message;
                ASSERT_TRUE(r.solve.has_value());
                const api::RaceResult &want =
                    pool[(r.id - 1) % pool.size()].expected;
                EXPECT_EQ(r.solve->score, want.score);
                EXPECT_EQ(r.solve->accepted, want.accepted);
                EXPECT_EQ(r.solve->completed, want.completed);
            }
        }
    }

    /** Warm up, then count a window of `kMeasuredRequests`. */
    Spent
    measure(RequestTag tag, size_t window)
    {
        const std::vector<Item> pool = items(tag, 32);
        exchange(pool, kWarmRequests, window);
        settle();
        const uint64_t queuedBefore = handedOff();
        const uint64_t allocsBefore = gDaemonAllocations.load();
        const FaultInjector::Stats before = injector.stats();
        exchange(pool, kMeasuredRequests, window);
        settle();
        const uint64_t allocsAfter = gDaemonAllocations.load();
        const FaultInjector::Stats after = injector.stats();

        Spent spent;
        spent.workerJobs = handedOff() - queuedBefore;
        spent.calls.recvs = after.recvs - before.recvs;
        spent.calls.sends = after.sends - before.sends;
        spent.calls.polls = after.polls - before.polls;
        const double n = static_cast<double>(kMeasuredRequests);
        spent.allocations = static_cast<double>(allocsAfter - allocsBefore) / n;
        spent.syscalls = static_cast<double>(spent.calls.recvs +
                                             spent.calls.sends +
                                             spent.calls.polls) /
                         n;
        return spent;
    }

    /** Admitted requests so far that were not solved on their
     *  connection thread: the queue's ledger less the claims. */
    uint64_t
    handedOff() const
    {
        const telemetry::Snapshot snap = server->metricsSnapshot();
        const telemetry::CounterSnapshot *claims =
            snap.counter("rl_serve_inline_solves_total");
        return server->queueStats().enqueued - (claims ? claims->value : 0);
    }

    /**
     * Let the daemon's threads finish their trailing calls (the
     * connection thread's empty recv() and its poll()) so each
     * window counts whole requests.
     */
    static void
    settle()
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    static std::string
    describe(const Spent &spent)
    {
        return "measured per request: " + std::to_string(spent.allocations) +
               " allocations, " + std::to_string(spent.syscalls) +
               " I/O syscalls (window totals: recv " +
               std::to_string(spent.calls.recvs) + ", send " +
               std::to_string(spent.calls.sends) + ", poll " +
               std::to_string(spent.calls.polls) + ", worker jobs " +
               std::to_string(spent.workerJobs) + " over " +
               std::to_string(kMeasuredRequests) + " requests)";
    }

    void
    expectBudget(RequestTag tag, size_t window, double syscallBudget)
    {
        const Spent spent = measure(tag, window);
        EXPECT_LE(spent.allocations, kAllocationsPerRequest)
            << describe(spent);
        EXPECT_LE(spent.syscalls, syscallBudget) << describe(spent);
        EXPECT_EQ(spent.workerJobs, 0u) << describe(spent);
        std::cout << requestTagName(tag) << " window " << window << ": "
                  << describe(spent) << "\n";
    }

    FaultInjector injector{FaultConfig{}};
    std::string path;
    std::unique_ptr<AlignServer> server;
    std::unique_ptr<RawClient> client;
};

TEST_F(ServeBudget, ScreenAtWindowOne)
{
    expectBudget(RequestTag::Screen, 1, kSyscallsPerRequestWindow1);
}

TEST_F(ServeBudget, PairwiseAtWindowOne)
{
    expectBudget(RequestTag::Pairwise, 1, kSyscallsPerRequestWindow1);
}

TEST_F(ServeBudget, ScreenInBurstsOfEight)
{
    expectBudget(RequestTag::Screen, kBurst, kSyscallsPerRequestBurst8);
}

TEST_F(ServeBudget, PairwiseInBurstsOfEight)
{
    expectBudget(RequestTag::Pairwise, kBurst, kSyscallsPerRequestBurst8);
}

} // namespace
