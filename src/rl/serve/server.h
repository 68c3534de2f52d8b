/**
 * @file
 * AlignServer: the racelogic::serve daemon core.
 *
 * A long-lived alignment service around api::RaceEngine: connection
 * threads decode length-prefixed frames (rl/serve/wire.h), admission
 * control bounces anything oversized, undecodable, or beyond the
 * bounded queue's depth with a typed status, and each worker thread
 * pops its own next job, so a long solve holds only its worker.
 * Every thread solves on one shared, thread-safe api::RaceEngine, so
 * any worker takes any job and all of them hit the same plan cache.
 *
 * A request cheaper to race than to hand off -- a dense sweep of at
 * most kInlineCells cells on the Behavioral backend -- is solved on
 * the connection thread that decoded it, when the queue grants it a
 * solve slot (RequestQueue::tryClaim).  Stats, Ping, Metrics and
 * Health are answered on the connection thread too -- the metrics
 * endpoint must work *because* the daemon is saturated, not when the
 * queue gets around to it.  The connection thread batches every reply
 * it writes and sends the batch with one send() before it next waits
 * for bytes, just after it wakes workers for the jobs it queued;
 * workers write their replies at once.
 *
 * Shutdown is a drain, not an abort: stop() parts with the listeners,
 * lets every admitted request finish, flushes its response, and only
 * then joins the workers.  tools/raceserved.cc wires this to SIGTERM.
 */

#ifndef RACELOGIC_SERVE_SERVER_H
#define RACELOGIC_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rl/api/api.h"
#include "rl/core/kernel_counters.h"
#include "rl/pangraph/variation_graph.h"
#include "rl/serve/budget.h"
#include "rl/serve/queue.h"
#include "rl/serve/socket.h"
#include "rl/serve/wire.h"
#include "rl/telemetry/registry.h"
#include "rl/telemetry/trace.h"

namespace racelogic::serve {

/**
 * One coherent view of the daemon's preloaded pangenome.
 *
 * Graph requests copy a snapshot at admission; the shared_ptr pins the
 * graph for as long as any queued or in-flight solve still references
 * it, so a hot reload can swap the registry without ever yanking a
 * graph out from under a race.  `version` increments on every
 * successful swap (Health reports it, so an operator can confirm a
 * reload actually landed).
 */
struct GraphSnapshot {
    std::shared_ptr<const pangraph::VariationGraph> graph;
    std::shared_ptr<const bio::ScoreMatrix> matrix;
    uint64_t version = 0;
};

/**
 * The most cells a request's sweeps may touch for the connection
 * thread that decoded it to race it, instead of handing it to a
 * worker: grid cells (api::gridCells) for Pairwise and Screen, product
 * states (api::productStates) for GraphAlign, summed over a MapReads
 * batch.  A hand-off costs the daemon about 13-15 us of CPU beyond the
 * solve (the worker's wake-up, its queue lock, its own send()), and
 * the AVX-512BW band sweeps about 0.36 ns per pairwise cell and 0.43
 * ns per graph state, so 2^15 cells cost about one hand-off.  A larger
 * solve goes to a worker, so it cannot hold this connection's later
 * frames behind it while other cores sit idle.
 */
inline constexpr uint64_t kInlineCells = uint64_t{1} << 15;

/** Reads admitted per MapReads batch. */
inline constexpr size_t kMaxBatchReads = 256;

/** Everything an AlignServer needs to start. */
struct ServerConfig {
    /** Unix-domain socket path; empty disables the Unix listener. */
    std::string unixPath;

    /**
     * Loopback TCP port; 0 asks the kernel for an ephemeral port
     * (query it with AlignServer::port()).  Negative disables the
     * TCP listener.
     */
    int tcpPort = -1;

    /** Worker threads; all of them solve on the one shared engine. */
    size_t workers = 4;

    /** Admission bound on outstanding (queued + inflight) requests. */
    size_t queueDepth = 64;

    /** Admission bound while browned out (0 = half of queueDepth). */
    size_t brownoutDepth = 0;

    /**
     * Daemon-wide memory budget in bytes over plan caches + kernel
     * scratch arenas (0 = unlimited).  Crossing it latches brownout:
     * admission depth drops to brownoutDepth, batch-class work sheds
     * with typed ResourceExhausted, and the janitor reclaims (scratch
     * shrink-to-fit, LRU plan eviction) until usage is back under the
     * low watermark (3/4 of the budget).
     */
    size_t memBudgetBytes = 0;

    /** Janitor tick: budget evaluation + idle scratch shrink (ms). */
    int64_t janitorIntervalMs = 50;

    /**
     * A worker's thread-local scratch arenas are shrunk after this
     * much idle time (ms; 0 disables the idle shrink -- brownout
     * reclaim still shrinks them).
     */
    int64_t scratchIdleMs = 2000;

    /** Grid-cell ceiling per solve ((|a|+1)*(|b|+1); Dtw likewise). */
    uint64_t maxGridCells = 1ull << 22;

    /**
     * Idle timeout waiting for the *next* request header on an open
     * connection (ms; 0 = wait forever).  An idle peer is hung up on;
     * a well-behaved client simply reconnects.
     */
    int64_t idleTimeoutMs = 0;

    /**
     * Mid-frame timeout (ms; 0 = wait forever): bounds reading the
     * rest of a frame whose header already arrived (slow-loris) and
     * writing a response to a peer that stopped reading (stalled
     * receive window).  Tripping it severs the connection -- framing
     * is gone either way -- so one bad peer costs at most ioTimeoutMs
     * of one thread's time, never a pinned reader or worker.
     */
    int64_t ioTimeoutMs = 10000;

    /**
     * Test hook: SO_SNDBUF on accepted connections (0 = kernel
     * default).  A small buffer makes a stopped-reader peer hit the
     * write timeout with small responses, which is what the
     * slow-peer regression tests need.
     */
    int sndbufBytes = 0;

    /**
     * Preloaded pangenome for GraphAlign/MapReads (null rejects those
     * tags with BadRequest) and the matrix reads race against it.
     */
    std::shared_ptr<const pangraph::VariationGraph> graph;
    std::optional<bio::ScoreMatrix> graphMatrix;

    /** Configuration of the shared engine. */
    api::EngineConfig engine;

    /**
     * Register and record telemetry (request counters, per-stage
     * latency histograms, kernel profiling counters).  Off skips
     * registration entirely -- every record site is a null-pointer
     * check -- which is what the BM_ServeSaturation telemetry-overhead
     * comparison measures.  The Metrics request still answers (with
     * only the synthetic queue/engine series) so scrapes never 404.
     */
    bool telemetry = true;

    /**
     * Slow-request log threshold in milliseconds (0 disables): any
     * request whose end-to-end latency reaches it earns one
     * structured warn line with its per-stage breakdown.
     */
    int64_t slowMs = 0;

    /**
     * Test hook: called with every finalized RequestTrace (inline
     * answers included), after the response was written, on the
     * thread that served the request.  Must be thread-safe.
     */
    std::function<void(const telemetry::RequestTrace &)> traceHook;
};

/**
 * The serving daemon.  start() spawns the accept and worker threads
 * and returns; stop() drains and joins everything.  One start/stop
 * cycle per instance.
 */
class AlignServer
{
  public:
    explicit AlignServer(ServerConfig config);
    ~AlignServer();

    AlignServer(const AlignServer &) = delete;
    AlignServer &operator=(const AlignServer &) = delete;

    /** Bind listeners and spawn threads; false if no listener bound. */
    bool start();

    /** Drain admitted work, flush responses, join all threads. */
    void stop();

    /** The bound TCP port (0 when the TCP listener is disabled). */
    uint16_t port() const { return boundPort; }

    /** Coherent admission counters (safe from any thread). */
    QueueStats queueStats() const { return queue.stats(); }

    /**
     * Current brownout state (safe from any thread): the admission
     * queue's latch, so whenever this reads true, batch-class work is
     * already being shed.  Health and rl_serve_brownout report it too.
     */
    bool brownedOut() const { return queue.brownout(); }

    /** The graph registry's current version (0 = none loaded). */
    uint64_t graphVersion() const;

    /**
     * Hot-swap the preloaded pangenome without dropping a request --
     * the SIGHUP reload path (tools/raceserved.cc re-parses its --gfa
     * file and calls this; tests call it directly).
     *
     * Validate, swap, evict: the new graph is compile-checked on the
     * *calling* thread (never a worker), then swapped into the
     * versioned registry, then the engine's graph-keyed plans are
     * evicted (grid-family plans survive).  In-flight and queued
     * solves keep racing the snapshot they admitted with -- pinned by
     * shared_ptr, bit-identical results -- while new admissions see
     * the new version and plan it on their first solve.
     *
     * Any failure (null graph, alphabet mismatch with the serving
     * alphabet, uncompilable graph/matrix) leaves the old graph
     * serving and returns the typed reason.
     */
    racelogic::Status
    reloadGraph(std::shared_ptr<const pangraph::VariationGraph> graph,
                std::optional<bio::ScoreMatrix> matrix = std::nullopt);

    /** The shared engine's counters (safe from any thread). */
    api::EngineStats engineStats() const { return engine.stats(); }

    /**
     * Full telemetry snapshot: every registered series plus synthetic
     * rl_queue_* / rl_solves_total / rl_plan* series derived from the
     * same QueueStats and engine counters Stats reports, so the two
     * endpoints can never disagree.  This is the Metrics request's
     * body and the --metrics-dump exposition source.
     */
    telemetry::Snapshot metricsSnapshot() const;

  private:
    /** One accepted connection: fd plus a reply-serializing mutex
     *  shared between its reader thread and the workers. */
    struct Connection {
        ScopedFd fd;
        std::mutex writeMutex;
    };

    /** A live connection and the thread that reads it. */
    struct Reader {
        std::shared_ptr<Connection> conn;
        std::thread thread;
    };

    /** One admitted race: everything solve() reads, on either the
     *  worker that drained it or the connection thread that claimed
     *  it. */
    struct SolveJob {
        uint32_t id = 0;
        RequestTag tag = RequestTag::Pairwise;
        std::chrono::steady_clock::time_point deadline;
        telemetry::RequestTrace trace;
        api::RaceProblem problem;            ///< every kind but MapReads
        std::vector<api::RaceProblem> reads; ///< MapReads: one per read
    };

    /**
     * What a connection thread defers until it next waits for bytes:
     * the wake-up of workers for the jobs it queued, and the replies
     * it has encoded, each with the trace flush() stamps and records
     * once they are written.  Reused, so it allocates only while it
     * grows.
     */
    struct Batch {
        struct Pending {
            telemetry::RequestTrace trace;
            bool raced = false;
        };
        std::vector<uint8_t> frames;
        std::vector<Pending> pending;
        size_t queued = 0; ///< jobs pushed without waking a worker
    };

    /**
     * Handles to every registered telemetry series; all null when
     * cfg.telemetry is off, so each record site is one branch.
     */
    struct MetricSet {
        telemetry::Counter *requests = nullptr; ///< every decoded frame
        telemetry::Counter *solvedOk = nullptr; ///< raced, replied Ok
        telemetry::Counter *rejected = nullptr; ///< typed bounces
        telemetry::Counter *shed = nullptr;     ///< shed while queued
        telemetry::Counter *inlineAnswers = nullptr; ///< ping/stats/metrics/health
        telemetry::Counter *inlineSolves = nullptr;  ///< solve slots claimed
        telemetry::Counter *slow = nullptr;     ///< over cfg.slowMs
        telemetry::Counter *kernelEvents = nullptr;
        telemetry::Counter *kernelBuckets = nullptr;
        telemetry::Counter *kernelLanes = nullptr;
        telemetry::Counter *kernelCancels = nullptr;
        telemetry::Counter *kernelHorizonAborts = nullptr;
        telemetry::Gauge *scratchHighWater = nullptr;
        telemetry::Histogram *stageRead = nullptr;
        telemetry::Histogram *stageDecode = nullptr;
        telemetry::Histogram *stageAdmit = nullptr;
        telemetry::Histogram *stageQueueWait = nullptr;
        telemetry::Histogram *stageDispatch = nullptr;
        telemetry::Histogram *stageSolve = nullptr;
        telemetry::Histogram *stageEncode = nullptr;
        telemetry::Histogram *stageWrite = nullptr;
        telemetry::Histogram *request = nullptr; ///< raced e2e latency
    };

    void acceptLoop(int listenFd);

    /** Read and answer frames, batching this thread's replies, until
     *  the peer hangs up; the caller flushes what is left. */
    void connectionLoop(const std::shared_ptr<Connection> &conn,
                        Batch &batch);

    /** A reader's exit: hand its thread to the next reap and drop the
     *  list's share of its connection, so the fd closes once no
     *  queued reply still needs it. */
    void retireReader(std::list<Reader>::iterator reader);

    /** Join the readers that have exited (accept loop and stop()). */
    void reapReaders();

    /** Pop, run and retire one job at a time until shutdown empties
     *  the queue. */
    void workerLoop();

    /**
     * Periodic housekeeping on its own thread: samples plan
     * cache + scratch arena bytes into the memory budget, drives the
     * brownout latch (admission depth, batch shedding, reclaim), and
     * shrinks idle workers' scratch arenas.
     */
    void janitorLoop();

    /** One budget evaluation + reclaim pass (janitor tick body). */
    void evaluateBudget();

    /**
     * Encode one response, stamp the trace's encodeDone, and either
     * append it to the connection thread's `batch` (flush() writes it
     * and records the trace) or, with `batch` null, write it at once
     * under the write lock and record the trace.
     */
    void respond(Connection &conn, Batch *batch,
                 const Response &response, telemetry::RequestTrace &trace,
                 bool raced);

    /** Wake the workers for the batch's queued jobs, then write its
     *  replies with one writeAll() and stamp writeDone on and record
     *  each of their traces. */
    void flush(Connection &conn, Batch &batch);

    /** writeAll() under the write lock; a write that times out severs
     *  the connection. */
    void writeFrames(Connection &conn, const std::vector<uint8_t> &frames);

    /**
     * Race one admitted job and reply: the deadline's cancel token,
     * the score-only solve, the kernel counters, one raced trace.
     * `batch` is the connection thread's when it claimed the job, and
     * null on a worker.
     */
    void solve(Connection &conn, SolveJob &job, Batch *batch);

    /**
     * Handle one decoded request (solve it here, queue it, answer it
     * here, or bounce it), batching every reply this thread writes.
     * `arrival` is the frame's receipt instant -- the anchor the
     * request's relative deadlineMs counts from.  `trace` carries the
     * read/decode stamps the connection loop already took.
     */
    void handleRequest(const std::shared_ptr<Connection> &conn,
                       Batch &batch, Request request,
                       std::chrono::steady_clock::time_point arrival,
                       telemetry::RequestTrace trace);

    /** Register every series (constructor, cfg.telemetry only). */
    void registerMetrics();

    /**
     * Finalize `trace`, feed the stage histograms (raced requests
     * only -- their count stays coherent with the queue's completed
     * ledger), emit the slow-request line, and call the trace hook.
     * Records go to the calling thread's own telemetry lane.
     */
    void recordTrace(telemetry::RequestTrace &trace, bool raced);

    /** Fold one job's kernel counters into the rl_kernel_* series. */
    void drainKernelCounters(const core::KernelCounters &kernel);

    /** Copy the current graph snapshot (safe from any thread). */
    GraphSnapshot graphSnapshot() const;

    const ServerConfig cfg;

    api::RaceEngine engine;
    RequestQueue queue;
    MemoryBudget budget;

    /** Alphabet requests decode against; fixed across reloads. */
    const bio::Alphabet serveAlphabet;

    /** The versioned graph registry (hot reload swaps it). */
    GraphSnapshot graphs;
    mutable std::mutex graphMutex;

    std::chrono::steady_clock::time_point startTime{};

    telemetry::Registry registry;
    MetricSet metrics;

    ScopedFd unixListener;
    ScopedFd tcpListener;
    uint16_t boundPort = 0;

    std::atomic<bool> stopping{false};
    std::vector<std::thread> acceptThreads;
    std::vector<std::thread> workers;

    std::thread janitor;
    std::mutex janitorMutex;
    std::condition_variable janitorCv;

    /** Live connections and their readers; an exiting reader moves
     *  its thread to `exitedReaders` and erases its entry. */
    std::mutex connectionsMutex;
    std::list<Reader> connections;
    std::vector<std::thread> exitedReaders;

    bool started = false;
    bool stopped = false;
};

} // namespace racelogic::serve

#endif // RACELOGIC_SERVE_SERVER_H
