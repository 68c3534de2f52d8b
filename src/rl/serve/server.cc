#include "rl/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <thread>
#include <utility>

#include "rl/core/cancel.h"
#include "rl/core/scratch_registry.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/util/logging.h"

namespace racelogic::serve {

namespace {

Response
errorResponse(uint32_t id, RequestTag tag, Status status,
              std::string message)
{
    Response r;
    r.id = id;
    r.tag = tag;
    r.status = status;
    r.message = std::move(message);
    return r;
}

SolveReply
toSolveReply(const api::RaceResult &result)
{
    SolveReply s;
    s.score = result.score;
    s.racedCost = result.racedCost;
    s.latencyCycles = result.latencyCycles;
    s.cyclesUsed = result.cyclesUsed;
    s.events = result.events;
    s.nodes = result.nodes;
    s.cellsFired = result.cellsFired;
    s.completed = result.completed;
    s.accepted = result.accepted;
    return s;
}

/**
 * The calling thread's telemetry writer lane.  Each thread that serves
 * requests, worker or connection thread, takes its own lane on first
 * use, cycling over all kMetricLanes lanes, so threads that record at
 * once rarely share a lane's cache lines.
 */
size_t
threadLane()
{
    static std::atomic<size_t> next{0};
    thread_local const size_t lane =
        next.fetch_add(1) % telemetry::kMetricLanes;
    return lane;
}

} // namespace

AlignServer::AlignServer(ServerConfig config)
    : cfg(std::move(config)), engine(cfg.engine),
      queue(cfg.queueDepth, cfg.brownoutDepth,
            std::max<size_t>(cfg.workers, 1)),
      budget(cfg.memBudgetBytes),
      serveAlphabet(cfg.graph ? cfg.graph->alphabet()
                              : bio::Alphabet("ACGT"))
{
    if (cfg.graph) {
        rl_assert(cfg.graphMatrix.has_value(),
                  "a preloaded pangenome needs its score matrix");
        graphs.graph = cfg.graph;
        graphs.matrix =
            std::make_shared<const bio::ScoreMatrix>(*cfg.graphMatrix);
        graphs.version = 1;
    }
    if (cfg.telemetry)
        registerMetrics();
}

GraphSnapshot
AlignServer::graphSnapshot() const
{
    std::lock_guard<std::mutex> lock(graphMutex);
    return graphs;
}

uint64_t
AlignServer::graphVersion() const
{
    std::lock_guard<std::mutex> lock(graphMutex);
    return graphs.version;
}

racelogic::Status
AlignServer::reloadGraph(
    std::shared_ptr<const pangraph::VariationGraph> graph,
    std::optional<bio::ScoreMatrix> matrix)
{
    if (!graph)
        return racelogic::Status::error(
            racelogic::ErrorCode::InvalidArgument,
            "reload needs a graph; the old graph keeps serving");
    // Connections snapshot their decode alphabet once; a reload that
    // changed it would silently re-interpret reads mid-stream.
    if (!(graph->alphabet() == serveAlphabet))
        return racelogic::Status::error(
            racelogic::ErrorCode::InvalidArgument,
            "reloaded graph changes the serving alphabet; rejected");
    std::shared_ptr<const bio::ScoreMatrix> current =
        graphSnapshot().matrix;
    if (!matrix.has_value() && current)
        matrix = *current;
    if (!matrix.has_value())
        return racelogic::Status::error(
            racelogic::ErrorCode::InvalidArgument,
            "reload needs a score matrix (none currently loaded)");
    // Compile-check on the calling thread -- the same validation a
    // GraphAlign plan build runs -- so an uncompilable graph/matrix
    // pair is a typed failure here, never a worker fatal later.
    Expected<pangraph::GraphAligner> compiled =
        pangraph::GraphAligner::tryMake(graph, *matrix);
    if (!compiled.ok())
        return compiled.status();
    uint64_t version;
    {
        std::lock_guard<std::mutex> lock(graphMutex);
        graphs.graph = std::move(graph);
        graphs.matrix =
            std::make_shared<const bio::ScoreMatrix>(std::move(*matrix));
        version = ++graphs.version;
    }
    // The old graph's plans are unreachable now (their keys embed the
    // old fingerprint); drop them instead of waiting for LRU churn.
    // A solve admitted under the old graph may still insert one old
    // plan after this; no new request can hit it, and LRU or brownout
    // churn reclaims it.
    engine.evictGraphPlans();
    rl_inform("serve: graph reloaded, version=", version);
    return racelogic::Status{};
}

void
AlignServer::registerMetrics()
{
    // Names are compile-time literals registered exactly once, so a
    // collision here is a programming error, not a runtime condition.
    auto counter = [this](const char *name) {
        return registry.addCounter(name).valueOrFatal();
    };
    auto histogram = [this](const char *name) {
        return registry.addHistogram(name).valueOrFatal();
    };
    metrics.requests = counter("rl_serve_requests_total");
    metrics.solvedOk = counter("rl_serve_solved_ok_total");
    metrics.rejected = counter("rl_serve_rejected_total");
    metrics.shed = counter("rl_serve_shed_total");
    metrics.inlineAnswers = counter("rl_serve_inline_total");
    metrics.inlineSolves = counter("rl_serve_inline_solves_total");
    metrics.slow = counter("rl_serve_slow_total");
    metrics.kernelEvents = counter("rl_kernel_events_total");
    metrics.kernelBuckets = counter("rl_kernel_buckets_drained_total");
    metrics.kernelLanes = counter("rl_kernel_lanes_occupied_total");
    metrics.kernelCancels = counter("rl_kernel_cancels_total");
    metrics.kernelHorizonAborts =
        counter("rl_kernel_horizon_aborts_total");
    metrics.scratchHighWater =
        registry.addGauge("rl_kernel_scratch_high_water").valueOrFatal();
    metrics.stageRead = histogram("rl_serve_stage_read_us");
    metrics.stageDecode = histogram("rl_serve_stage_decode_us");
    metrics.stageAdmit = histogram("rl_serve_stage_admit_us");
    metrics.stageQueueWait = histogram("rl_serve_stage_queue_wait_us");
    metrics.stageDispatch = histogram("rl_serve_stage_dispatch_us");
    metrics.stageSolve = histogram("rl_serve_stage_solve_us");
    metrics.stageEncode = histogram("rl_serve_stage_encode_us");
    metrics.stageWrite = histogram("rl_serve_stage_write_us");
    metrics.request = histogram("rl_serve_request_us");
}

telemetry::Snapshot
AlignServer::metricsSnapshot() const
{
    telemetry::Snapshot snap = registry.snapshot();
    auto counter = [&snap](std::string name, uint64_t v) {
        snap.counters.push_back({std::move(name), v});
    };
    auto gauge = [&snap](std::string name, int64_t v) {
        snap.gauges.push_back({std::move(name), v});
    };

    // Synthetic series, derived from the exact snapshots the Stats
    // response carries -- one source of truth, two expositions.
    const QueueStats q = queue.stats();
    counter("rl_queue_enqueued_total", q.enqueued);
    counter("rl_queue_completed_total", q.completed);
    counter("rl_queue_rejected_queue_full_total", q.rejectedQueueFull);
    counter("rl_queue_rejected_oversized_total", q.rejectedOversized);
    counter("rl_queue_rejected_bad_request_total", q.rejectedBadRequest);
    counter("rl_queue_rejected_resource_total", q.rejectedResource);
    counter("rl_queue_rejected_shutdown_total", q.rejectedShutdown);
    counter("rl_queue_shed_deadline_total", q.shedDeadline);
    counter("rl_queue_shed_evicted_total", q.shedEvicted);
    gauge("rl_queue_queued", static_cast<int64_t>(q.queued));
    gauge("rl_queue_inflight", static_cast<int64_t>(q.inflight));
    gauge("rl_queue_high_water", static_cast<int64_t>(q.highWater));

    static const char *const kClassName[kPriorityClasses] = {
        "batch", "normal", "interactive"};
    for (size_t c = 0; c < kPriorityClasses; ++c) {
        const ClassStats &cls = q.classes[c];
        const std::string prefix =
            std::string("rl_queue_") + kClassName[c] + "_";
        counter(prefix + "enqueued_total", cls.enqueued);
        counter(prefix + "completed_total", cls.completed);
        counter(prefix + "rejected_queue_full_total",
                cls.rejectedQueueFull);
        counter(prefix + "rejected_resource_total", cls.rejectedResource);
        counter(prefix + "shed_deadline_total", cls.shedDeadline);
        counter(prefix + "shed_evicted_total", cls.shedEvicted);
        gauge(prefix + "queued", static_cast<int64_t>(cls.queued));
    }

    // Which sweeps produced the kernel series, in both dense kernels
    // (raceEditGrid and raceAlignmentGrid): 32 lanes for the AVX-512BW
    // band, 1 for the row sweeps.
    gauge("rl_kernel_sweep_lanes",
          static_cast<int64_t>(core::sweepLanes()));

    // Brownout observability: the gauge mirrors exactly what Health
    // reports, and the rl_mem_* gauges expose the same usage the
    // janitor feeds into the budget latch.
    gauge("rl_serve_brownout", brownedOut() ? 1 : 0);
    gauge("rl_mem_plan_cache_bytes",
          static_cast<int64_t>(engine.planCacheBytes()));
    gauge("rl_mem_scratch_bytes",
          static_cast<int64_t>(
              core::ScratchRegistry::instance().totalResidentBytes()));
    gauge("rl_mem_budget_bytes", static_cast<int64_t>(budget.high()));

    const api::EngineStats e = engine.stats();
    counter("rl_solves_total", e.solves);
    counter("rl_plans_built_total", e.plansBuilt);
    counter("rl_plan_cache_hits_total", e.planCacheHits);
    counter("rl_inhibit_misses_total", e.inhibitMisses);
    return snap;
}

void
AlignServer::recordTrace(telemetry::RequestTrace &trace, bool raced)
{
    const size_t lane = threadLane();
    trace.finalize();
    if (raced && metrics.request) {
        metrics.stageRead->record(trace.readUs(), lane);
        metrics.stageDecode->record(trace.decodeUs(), lane);
        metrics.stageAdmit->record(trace.admitUs(), lane);
        metrics.stageQueueWait->record(trace.queueWaitUs(), lane);
        metrics.stageDispatch->record(trace.dispatchUs(), lane);
        metrics.stageSolve->record(trace.solveUs(), lane);
        metrics.stageEncode->record(trace.encodeUs(), lane);
        metrics.stageWrite->record(trace.writeUs(), lane);
        metrics.request->record(trace.totalUs(), lane);
        if (trace.status == static_cast<uint8_t>(Status::Ok))
            metrics.solvedOk->add(1, lane);
    }
    if (cfg.slowMs > 0 &&
        trace.totalUs() >= static_cast<uint64_t>(cfg.slowMs) * 1000) {
        if (metrics.slow)
            metrics.slow->add(1, lane);
        rl_warn("serve: slow request id=", trace.id, " tag=",
                requestTagName(static_cast<RequestTag>(trace.tag)),
                " status=",
                statusName(static_cast<Status>(trace.status)),
                " total_us=", trace.totalUs(),
                " read_us=", trace.readUs(),
                " decode_us=", trace.decodeUs(),
                " admit_us=", trace.admitUs(),
                " queue_wait_us=", trace.queueWaitUs(),
                " dispatch_us=", trace.dispatchUs(),
                " solve_us=", trace.solveUs(),
                " encode_us=", trace.encodeUs(),
                " write_us=", trace.writeUs());
    }
    if (cfg.traceHook)
        cfg.traceHook(trace);
}

void
AlignServer::drainKernelCounters(const core::KernelCounters &kernel)
{
    if (!metrics.kernelEvents)
        return;
    const size_t lane = threadLane();
    metrics.kernelEvents->add(kernel.events, lane);
    metrics.kernelBuckets->add(kernel.bucketsDrained, lane);
    metrics.kernelLanes->add(kernel.lanesOccupied, lane);
    metrics.kernelCancels->add(kernel.cancels, lane);
    metrics.kernelHorizonAborts->add(kernel.horizonAborts, lane);
    metrics.scratchHighWater->max(
        static_cast<int64_t>(kernel.scratchHighWater));
}

AlignServer::~AlignServer()
{
    if (started && !stopped)
        stop();
}

bool
AlignServer::start()
{
    rl_assert(!started, "AlignServer::start() called twice");
    started = true;

    if (!cfg.unixPath.empty()) {
        unixListener = listenUnix(cfg.unixPath);
        if (!unixListener.valid())
            return false;
    }
    if (cfg.tcpPort >= 0) {
        tcpListener =
            listenTcp(static_cast<uint16_t>(cfg.tcpPort), boundPort);
        if (!tcpListener.valid())
            return false;
    }
    if (!unixListener.valid() && !tcpListener.valid())
        return false;

    startTime = std::chrono::steady_clock::now();
    for (size_t i = 0; i < std::max<size_t>(cfg.workers, 1); ++i)
        workers.emplace_back([this] { workerLoop(); });
    janitor = std::thread([this] { janitorLoop(); });
    if (unixListener.valid())
        acceptThreads.emplace_back(
            [this, fd = unixListener.get()] { acceptLoop(fd); });
    if (tcpListener.valid())
        acceptThreads.emplace_back(
            [this, fd = tcpListener.get()] { acceptLoop(fd); });
    return true;
}

void
AlignServer::stop()
{
    if (!started || stopped)
        return;
    stopped = true;

    // 1. Stop taking new connections and new frames.  Shutting the
    //    read side of every live connection unblocks its reader
    //    without cutting off responses still flowing the other way.
    stopping.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(janitorMutex);
        janitorCv.notify_all();
    }
    if (janitor.joinable())
        janitor.join();
    if (unixListener.valid())
        ::shutdown(unixListener.get(), SHUT_RDWR);
    if (tcpListener.valid())
        ::shutdown(tcpListener.get(), SHUT_RDWR);
    for (std::thread &t : acceptThreads)
        t.join();
    acceptThreads.clear();

    // A reader erases its own entry as it exits, so join the threads
    // taken here off the lock.
    std::vector<std::thread> live;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex);
        for (Reader &reader : connections) {
            ::shutdown(reader.conn->fd.get(), SHUT_RD);
            live.push_back(std::move(reader.thread));
        }
    }
    for (std::thread &t : live)
        t.join();
    reapReaders();

    // 2. Drain: workers exit only once the shut queue is empty, so
    //    every admitted job has run and flushed its response.  The
    //    last job holding a connection closes its fd.
    queue.beginShutdown();
    for (std::thread &t : workers)
        t.join();
    workers.clear();

    unixListener.reset();
    tcpListener.reset();
    if (!cfg.unixPath.empty())
        ::unlink(cfg.unixPath.c_str());
}

void
AlignServer::acceptLoop(int listenFd)
{
    while (!stopping.load(std::memory_order_acquire)) {
        reapReaders();
        pollfd pfd{listenFd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, 200);
        if (rc < 0 && errno == EINTR)
            continue;
        if (stopping.load(std::memory_order_acquire))
            return;
        if (rc <= 0)
            continue;
        ScopedFd client = acceptConnection(listenFd);
        if (!client.valid()) {
            // Descriptor exhaustion is a load condition, not a fatal
            // error: back off briefly (letting in-flight connections
            // retire their fds) and keep serving.  Anything else is a
            // transient accept hiccup; just poll again.
            if (errno == EMFILE || errno == ENFILE ||
                errno == ENOBUFS || errno == ENOMEM) {
                rl_warn("serve: accept failed (", std::strerror(errno),
                        "); backing off");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
            continue;
        }
        if (cfg.sndbufBytes > 0)
            ::setsockopt(client.get(), SOL_SOCKET, SO_SNDBUF,
                         &cfg.sndbufBytes, sizeof(cfg.sndbufBytes));
        auto conn = std::make_shared<Connection>();
        conn->fd = std::move(client);
        std::lock_guard<std::mutex> lock(connectionsMutex);
        const auto reader =
            connections.insert(connections.end(), Reader{conn, {}});
        reader->thread = std::thread([this, reader, conn] {
            Batch batch;
            connectionLoop(conn, batch);
            flush(*conn, batch);
            retireReader(reader);
        });
    }
}

void
AlignServer::retireReader(std::list<Reader>::iterator reader)
{
    std::lock_guard<std::mutex> lock(connectionsMutex);
    // stop() may already have taken the thread to join it.
    if (reader->thread.joinable())
        exitedReaders.push_back(std::move(reader->thread));
    connections.erase(reader);
}

void
AlignServer::reapReaders()
{
    std::vector<std::thread> exited;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex);
        exited.swap(exitedReaders);
    }
    for (std::thread &t : exited)
        t.join();
}

void
AlignServer::connectionLoop(const std::shared_ptr<Connection> &conn,
                            Batch &batch)
{
    // The decode alphabet is fixed for the daemon's lifetime --
    // reloadGraph() rejects a graph that would change it, so an open
    // connection never re-interprets reads mid-stream.
    const bio::Alphabet &graphAlphabet = serveAlphabet;

    const int64_t idleMs = cfg.idleTimeoutMs > 0 ? cfg.idleTimeoutMs : -1;
    const int64_t ioMs = cfg.ioTimeoutMs > 0 ? cfg.ioTimeoutMs : -1;

    // Every frame is read through one reused buffer: one recv() takes
    // whatever the peer has sent, and each complete frame in it is
    // answered before the next recv().  The workers for the jobs it
    // queued are woken just before it waits for more bytes or hangs
    // up, and the replies this thread writes leave together then, in
    // one send().
    RecvBuffer in(conn->fd.get());
    // The connection's last inline matrix: a peer that repeats its
    // matrix has each repeat copied rather than rebuilt.
    MatrixSlot matrixSlot;
    auto fill = [&](size_t n, int64_t timeoutMs) {
        if (in.size() < n)
            flush(*conn, batch);
        return in.fill(n, deadlineAfterMs(timeoutMs));
    };
    auto hangUp = [&] {
        flush(*conn, batch);
        ::shutdown(conn->fd.get(), SHUT_RDWR);
    };
    for (;;) {
        const IoStatus headerRead = fill(kFrameHeaderBytes, idleMs);
        if (headerRead != IoStatus::Ok) {
            // Clean EOF, disconnect, or an idle peer: hang up.  On
            // timeout the shutdown tells the peer explicitly instead
            // of leaving it half-open.
            if (headerRead == IoStatus::Timeout)
                hangUp();
            return;
        }

        // The trace's clock starts once the header is in hand --
        // idle time waiting for a peer to *send* something is the
        // peer's latency, not this request's.
        telemetry::RequestTrace trace;
        trace.readStart = telemetry::RequestTrace::Clock::now();

        uint32_t length = 0;
        WireError headerError = parseFrameHeader(
            in.data(), in.size(), kDefaultMaxFrameBytes, length);
        if (headerError != WireError::None) {
            // A hostile length prefix poisons the framing itself --
            // reply once (id unknowable) and hang up; without the
            // shutdown the peer would block forever on a connection
            // the daemon has silently stopped reading.
            queue.noteRejected(Status::Oversized);
            if (metrics.rejected)
                metrics.rejected->add(1, threadLane());
            trace.status = static_cast<uint8_t>(Status::Oversized);
            respond(*conn, &batch,
                    errorResponse(0, RequestTag::Ping, Status::Oversized,
                                  "frame exceeds kDefaultMaxFrameBytes"),
                    trace, false);
            hangUp();
            return;
        }

        // The header committed the peer to `length` more bytes; a
        // peer that stalls mid-frame (slow-loris) is cut off after
        // ioTimeoutMs instead of pinning this reader forever.
        const size_t frameBytes = kFrameHeaderBytes + size_t{length};
        const IoStatus bodyRead = fill(frameBytes, ioMs);
        if (bodyRead != IoStatus::Ok) {
            if (bodyRead == IoStatus::Timeout)
                hangUp();
            return;
        }
        const auto arrival = std::chrono::steady_clock::now();
        trace.readDone = arrival;
        if (metrics.requests)
            metrics.requests->add(1, threadLane());

        // Decode in place; the request keeps its own copies, so the
        // frame's bytes are released before it is handled.
        Request request;
        WireError decodeError = decodeRequest(
            {in.data() + kFrameHeaderBytes, length}, graphAlphabet,
            request, &matrixSlot);
        in.consume(frameBytes);
        trace.decodeDone = telemetry::RequestTrace::Clock::now();
        trace.id = request.id;
        trace.tag = static_cast<uint8_t>(request.tag);
        if (decodeError != WireError::None) {
            // Frame boundaries are intact, so the conversation can
            // continue -- the *request* is bad, not the stream.
            Status status = decodeError == WireError::Oversized
                                ? Status::Oversized
                                : Status::BadRequest;
            queue.noteRejected(status);
            if (metrics.rejected)
                metrics.rejected->add(1, threadLane());
            trace.status = static_cast<uint8_t>(status);
            respond(*conn, &batch,
                    errorResponse(request.id, request.tag, status,
                                  wireErrorName(decodeError)),
                    trace, false);
            continue;
        }
        handleRequest(conn, batch, std::move(request), arrival,
                      std::move(trace));
    }
}

void
AlignServer::handleRequest(const std::shared_ptr<Connection> &conn,
                           Batch &batch, Request request,
                           std::chrono::steady_clock::time_point arrival,
                           telemetry::RequestTrace trace)
{
    const uint32_t id = request.id;
    const RequestTag tag = request.tag;

    // Stats, Ping, Metrics, and Health bypass the queue: the
    // observability endpoints must answer precisely when the daemon
    // is saturated -- Health doubly so, since the load balancer's
    // probe is what routes traffic *away* from a browned-out daemon.
    if (tag == RequestTag::Ping || tag == RequestTag::Stats ||
        tag == RequestTag::Metrics || tag == RequestTag::Health) {
        Response r;
        r.id = id;
        r.tag = tag;
        if (tag == RequestTag::Stats) {
            r.queueStats = queue.stats();
            // One row, the shared engine's.  shardHits and buildLocks
            // stay 0: they keep the frame layout until the wire
            // protocol carries a version byte.
            const api::EngineStats e = engine.stats();
            ShardStatsWire row;
            row.solves = e.solves;
            row.plansBuilt = e.plansBuilt;
            row.planCacheHits = e.planCacheHits;
            r.shardStats = {row};
        } else if (tag == RequestTag::Metrics) {
            r.metrics = metricsSnapshot();
        } else if (tag == RequestTag::Health) {
            HealthReply h;
            if (stopping.load(std::memory_order_acquire))
                h.state = HealthState::Draining;
            else if (brownedOut())
                h.state = HealthState::Brownout;
            else
                h.state = HealthState::Ready;
            h.uptimeMs = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - startTime)
                    .count());
            h.graphVersion = graphVersion();
            r.health = h;
        }
        trace.admitDone = telemetry::RequestTrace::Clock::now();
        if (metrics.inlineAnswers)
            metrics.inlineAnswers->add(1, threadLane());
        respond(*conn, &batch, r, trace, false);
        return;
    }

    // A typed bounce on the connection thread: counted, stamped, and
    // traced exactly once, so the rejected ledger and the trace hook
    // agree on every path out of admission.  tryPush keeps its own
    // ledger, so its verdicts pass note=false.
    auto bounce = [&](Status status, std::string message,
                      bool note = true) {
        if (note)
            queue.noteRejected(status, request.priority);
        if (metrics.rejected)
            metrics.rejected->add(1, threadLane());
        trace.status = static_cast<uint8_t>(status);
        trace.admitDone = telemetry::RequestTrace::Clock::now();
        respond(*conn, &batch,
                errorResponse(id, tag, status, std::move(message)), trace,
                false);
    };

    // Build the race problem(s); every wire-level validation already
    // passed, so the remaining admission gate is the library's own
    // budget check below -- one call covers grid cells and graph
    // product states for every kind, instead of a per-tag copy.  The
    // decoded matrix, sequences and signals move into the problem.
    // Graph kinds copy the registry snapshot *here*, at admission:
    // the shared_ptr pins that graph version for this request's whole
    // lifetime, so a reload can swap the registry underneath without
    // perturbing a single queued or in-flight solve.  Grid kinds never
    // read the graph and take no snapshot.
    SolveJob job;
    job.id = id;
    job.tag = tag;
    switch (tag) {
    case RequestTag::Pairwise:
        job.problem = api::RaceProblem::pairwiseAlignment(
            std::move(*request.matrix), std::move(*request.a),
            std::move(*request.b));
        break;
    case RequestTag::Affine:
        job.problem = api::RaceProblem::affineAlignment(
            std::move(*request.matrix),
            bio::AffineGapCosts{request.open, request.extend},
            std::move(*request.a), std::move(*request.b));
        break;
    case RequestTag::Screen:
        job.problem = api::RaceProblem::thresholdScreen(
            std::move(*request.matrix), request.threshold,
            std::move(*request.a), std::move(*request.b));
        break;
    case RequestTag::Dtw:
        job.problem = api::RaceProblem::dtw(std::move(request.x),
                                            std::move(request.y));
        break;
    case RequestTag::GraphAlign: {
        const GraphSnapshot graphSnap = graphSnapshot();
        if (!graphSnap.graph) {
            bounce(Status::BadRequest, "no pangenome loaded");
            return;
        }
        job.problem = api::RaceProblem::graphAlign(
            *graphSnap.matrix, std::move(*request.read), graphSnap.graph,
            request.threshold);
        break;
    }
    case RequestTag::MapReads: {
        const GraphSnapshot graphSnap = graphSnapshot();
        if (!graphSnap.graph) {
            bounce(Status::BadRequest, "no pangenome loaded");
            return;
        }
        if (request.reads.empty()) {
            bounce(Status::BadRequest, "batch carries no reads");
            return;
        }
        if (request.reads.size() > kMaxBatchReads) {
            bounce(Status::Oversized, "batch exceeds kMaxBatchReads");
            return;
        }
        job.reads.reserve(request.reads.size());
        for (bio::Sequence &read : request.reads)
            job.reads.push_back(api::RaceProblem::graphAlign(
                *graphSnap.matrix, std::move(read), graphSnap.graph,
                request.threshold));
        break;
    }
    case RequestTag::Stats:
    case RequestTag::Ping:
    case RequestTag::Metrics:
    case RequestTag::Health:
        rl_panic("inline tags handled above");
    }

    // One admission gate for all queued kinds: a grid lattice over
    // maxGridCells bounces as Oversized, a graph-align product over
    // maxProductStates (or the kernel's 32-bit id space) as
    // ResourceExhausted.  statusForCode() maps the library verdict
    // mechanically; there is no per-tag judgment left here.  The same
    // pass counts the cells the request's sweeps can touch.
    api::ProblemLimits limits;
    limits.maxGridCells = cfg.maxGridCells;
    limits.maxProductStates = cfg.engine.maxProductStates;
    const std::span<const api::RaceProblem> admitted =
        tag == RequestTag::MapReads
            ? std::span<const api::RaceProblem>(job.reads)
            : std::span(&job.problem, 1);
    uint64_t cells = 0;
    for (const api::RaceProblem &p : admitted) {
        racelogic::Status budget = api::checkBudgets(p, limits);
        if (!budget.ok()) {
            bounce(statusForCode(budget.code()), budget.message());
            return;
        }
        cells += p.kind == api::ProblemKind::GraphAlign
                     ? api::productStates(p)
                     : api::gridCells(p);
    }

    // The request's relative deadline, anchored at frame arrival
    // (client and daemon clocks need not agree).
    job.deadline = std::chrono::steady_clock::time_point::max();
    if (request.deadlineMs > 0)
        job.deadline =
            arrival + std::chrono::milliseconds(request.deadlineMs);

    // admitDone is stamped here so queue-wait (admitDone ->
    // dispatchStart) starts the moment the job is ready to run.
    trace.admitDone = telemetry::RequestTrace::Clock::now();
    job.trace = trace;

    // Solve it here when that costs less than a hand-off and the
    // queue grants a slot: a dense sweep (Dtw, Affine and DagPath
    // still race per-solve lattices) of at most kInlineCells cells.
    // A throwing solve is logged as on a worker, and its slot is
    // still retired.
    const bool denseSweep =
        tag == RequestTag::Pairwise || tag == RequestTag::Screen ||
        tag == RequestTag::GraphAlign || tag == RequestTag::MapReads;
    if (denseSweep && cfg.engine.backend == api::BackendKind::Behavioral &&
        cells <= kInlineCells && queue.tryClaim(request.priority)) {
        if (metrics.inlineSolves)
            metrics.inlineSolves->add(1, threadLane());
        try {
            solve(*conn, job, &batch);
        } catch (const std::exception &e) {
            rl_warn("serve: solve raised '", e.what(),
                    "'; connection continues");
        }
        std::array<uint64_t, kPriorityClasses> done{};
        done[static_cast<size_t>(request.priority)] = 1;
        queue.markDone(done);
        return;
    }

    // A MapReads batch runs as one job.
    QueuedJob queued;
    queued.deadline = job.deadline;
    queued.priority = request.priority;
    queued.onShed = [this, conn, id, tag, trace](Status status) mutable {
        // Shed jobs were never inflight, so they stay out of the
        // raced histograms -- the rl_serve_request_us count must keep
        // matching the queue's completed ledger.
        if (metrics.shed)
            metrics.shed->add(1, threadLane());
        trace.status = static_cast<uint8_t>(status);
        trace.dispatchStart = telemetry::RequestTrace::Clock::now();
        const char *message =
            status == Status::QueueFull
                ? "evicted by a higher-priority arrival"
                : "deadline expired while queued";
        respond(*conn, nullptr, errorResponse(id, tag, status, message),
                trace, false);
    };
    queued.run = [this, conn, job = std::move(job)]() mutable {
        solve(*conn, job, nullptr);
    };

    QueuedJob evicted;
    switch (queue.tryPush(std::move(queued), &evicted, false)) {
    case RequestQueue::Admit::Accepted:
        ++batch.queued; // flush() wakes a worker for it
        // A higher-class arrival may have claimed a queued lower-class
        // job's slot; the victim's typed QueueFull reply runs here,
        // off the queue lock, on this connection thread.
        if (evicted.onShed)
            evicted.onShed(Status::QueueFull);
        break; // the job itself replies once it has raced
    case RequestQueue::Admit::QueueFull:
        bounce(Status::QueueFull, "admission queue at depth", false);
        break;
    case RequestQueue::Admit::Brownout:
        bounce(Status::ResourceExhausted,
               "brownout: batch-class work shed at admission", false);
        break;
    case RequestQueue::Admit::ShuttingDown:
        bounce(Status::ShuttingDown, "daemon draining", false);
        break;
    }
}

void
AlignServer::solve(Connection &conn, SolveJob &job, Batch *batch)
{
    telemetry::RequestTrace &trace = job.trace;
    trace.dispatchStart = telemetry::RequestTrace::Clock::now();

    // A live deadline becomes a cooperative cancel token: the
    // sweep kernels poll it once per swept row and
    // abort with a typed result instead of finishing a race
    // nobody is waiting for.  No deadline, no token -- the solve
    // path stays bit-identical to a direct engine call.
    const bool hasDeadline =
        job.deadline != std::chrono::steady_clock::time_point::max();
    core::CancelToken token(job.deadline);
    const core::CancelToken *cancel = hasDeadline ? &token : nullptr;

    // Kernel profiling rides the same null-is-off convention:
    // with telemetry disabled no counter pointer is installed and
    // the kernels never see it.
    core::KernelCounters kernel;
    core::KernelCounters *counters = cfg.telemetry ? &kernel : nullptr;

    // A reply carries no arrival detail, so every solve is
    // score-only: the grid and graph kernels then allocate no
    // arrival grid, a per-request allocation the memory budget
    // cannot see.
    auto prepare = [&](api::RaceProblem &p) {
        p.arrivals = false;
        p.cancel = cancel;
        p.counters = counters;
    };

    Response r;
    r.id = job.id;
    r.tag = job.tag;
    trace.solveStart = telemetry::RequestTrace::Clock::now();
    // trySolve re-validates before any plan build, so even a
    // problem that slipped past admission earns a typed reply
    // here instead of tripping a library fatal.
    // Every exit assigns `r` and falls through: the job must
    // record exactly one raced trace, because its slot is retired
    // from the completed ledger no matter how it replied.
    if (job.tag == RequestTag::MapReads) {
        r.reads.reserve(job.reads.size());
        for (api::RaceProblem &read : job.reads) {
            prepare(read);
            Expected<api::RaceResult> result = engine.trySolve(read);
            if (!result.ok()) {
                r = errorResponse(job.id, job.tag,
                                  statusForCode(result.status().code()),
                                  result.status().message());
                break;
            }
            if (result.value().cancelled) {
                // The deadline covers the whole batch; once it
                // trips there is no point racing the rest.
                r = errorResponse(job.id, job.tag,
                                  Status::DeadlineExceeded,
                                  "deadline expired mid-batch");
                break;
            }
            ReadReply rr;
            rr.score = result.value().score;
            rr.cyclesUsed = result.value().cyclesUsed;
            rr.accepted = result.value().accepted;
            r.reads.push_back(rr);
        }
    } else {
        prepare(job.problem);
        Expected<api::RaceResult> result = engine.trySolve(job.problem);
        if (!result.ok()) {
            r = errorResponse(job.id, job.tag,
                              statusForCode(result.status().code()),
                              result.status().message());
        } else if (result.value().cancelled) {
            r = errorResponse(job.id, job.tag, Status::DeadlineExceeded,
                              "deadline expired mid-race");
        } else {
            r.solve = toSolveReply(result.value());
        }
    }
    trace.solveDone = telemetry::RequestTrace::Clock::now();
    drainKernelCounters(kernel);
    trace.status = static_cast<uint8_t>(r.status);
    respond(conn, batch, r, trace, true);
}

void
AlignServer::workerLoop()
{
    // Reused across jobs: each drain refills them in place and first
    // retires the job the previous pass ran, so a job costs one queue
    // lock and no vector allocation.  Shed jobs were never inflight;
    // only raced jobs retire, each in its class, so the class ledgers
    // stay coherent with the global one.
    std::vector<QueuedJob> popped, shed;
    std::array<uint64_t, kPriorityClasses> ran{};
    for (;;) {
        queue.drain(1, popped, shed, ran);
        if (popped.empty() && shed.empty())
            return; // shut down with nothing left
        try {
            for (QueuedJob &job : shed)
                if (job.onShed)
                    job.onShed(Status::DeadlineExceeded);
            for (QueuedJob &job : popped)
                job.run();
        } catch (const std::exception &e) {
            // A throwing job must not take its worker down with it;
            // the affected request simply never gets a reply.
            rl_warn("serve: job raised '", e.what(),
                    "'; worker continues");
        }
        ran = {};
        for (const QueuedJob &job : popped)
            ++ran[static_cast<size_t>(job.priority)];
    }
}

void
AlignServer::evaluateBudget()
{
    const size_t planBytes = engine.planCacheBytes();
    const size_t scratchBytes =
        core::ScratchRegistry::instance().totalResidentBytes();
    const size_t usage = planBytes + scratchBytes;

    switch (budget.observe(usage)) {
    case MemoryBudget::Transition::Entered:
        rl_warn("serve: BROWNOUT entered, usage=", usage,
                " bytes (plans=", planBytes, " scratch=", scratchBytes,
                ") high=", budget.high(), " low=", budget.low());
        queue.setBrownout(true);
        break;
    case MemoryBudget::Transition::Exited:
        rl_inform("serve: brownout exited, usage=", usage,
                  " bytes <= low=", budget.low());
        queue.setBrownout(false);
        break;
    case MemoryBudget::Transition::None:
        break;
    }

    if (budget.browned()) {
        // Reclaim until back under the low watermark: scratch arenas
        // first (cheap to regrow), then LRU plans (expensive to
        // rebuild, so only as much as the overshoot demands).
        core::ScratchRegistry::instance().shrinkAll();
        const size_t afterScratch =
            planBytes +
            core::ScratchRegistry::instance().totalResidentBytes();
        for (size_t freed = 0; afterScratch > budget.low() + freed;) {
            const size_t got = engine.evictLruPlan();
            if (got == 0)
                break;
            freed += got;
        }
    } else if (cfg.scratchIdleMs > 0) {
        core::ScratchRegistry::instance().shrinkIdle(
            std::chrono::milliseconds(cfg.scratchIdleMs));
    }
}

void
AlignServer::janitorLoop()
{
    const auto tick = std::chrono::milliseconds(
        cfg.janitorIntervalMs > 0 ? cfg.janitorIntervalMs : 50);
    std::unique_lock<std::mutex> lock(janitorMutex);
    while (!stopping.load(std::memory_order_acquire)) {
        janitorCv.wait_for(lock, tick, [this] {
            return stopping.load(std::memory_order_acquire);
        });
        if (stopping.load(std::memory_order_acquire))
            return;
        lock.unlock();
        evaluateBudget();
        lock.lock();
    }
}

void
AlignServer::respond(Connection &conn, Batch *batch,
                     const Response &response,
                     telemetry::RequestTrace &trace, bool raced)
{
    if (batch) {
        encodeResponseFrame(response, batch->frames);
        trace.encodeDone = telemetry::RequestTrace::Clock::now();
        batch->pending.push_back({trace, raced});
        return;
    }
    // One framed reply buffer per thread, reused: a reply allocates
    // only while the buffer grows to the thread's largest.
    static thread_local std::vector<uint8_t> framed;
    framed.clear();
    encodeResponseFrame(response, framed);
    trace.encodeDone = telemetry::RequestTrace::Clock::now();
    writeFrames(conn, framed);
    trace.writeDone = telemetry::RequestTrace::Clock::now();
    recordTrace(trace, raced);
}

void
AlignServer::flush(Connection &conn, Batch &batch)
{
    // Workers are woken only now, as this thread is about to wait: a
    // worker woken mid-batch can take this thread's CPU for a whole
    // solve, and the frames behind its job would then be read, and
    // their deadlines anchored, that much later.  They are woken
    // before the write, which may block for up to ioTimeoutMs.
    queue.wake(batch.queued);
    batch.queued = 0;
    if (!batch.frames.empty()) {
        writeFrames(conn, batch.frames);
        const auto written = telemetry::RequestTrace::Clock::now();
        for (Batch::Pending &p : batch.pending) {
            p.trace.writeDone = written;
            recordTrace(p.trace, p.raced);
        }
        batch.frames.clear();
        batch.pending.clear();
    }
}

void
AlignServer::writeFrames(Connection &conn,
                         const std::vector<uint8_t> &frames)
{
    const IoDeadline deadline =
        deadlineAfterMs(cfg.ioTimeoutMs > 0 ? cfg.ioTimeoutMs : -1);
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    // A vanished peer is its own problem; the daemon just moves on.
    // A peer that stopped *reading* is worse: once the write deadline
    // trips the connection is severed, so a stalled receive window
    // costs at most ioTimeoutMs of one thread's time -- it can never
    // wedge the workers behind one slow socket.
    const IoStatus wrote =
        writeAll(conn.fd.get(), frames.data(), frames.size(), deadline);
    if (wrote == IoStatus::Timeout)
        ::shutdown(conn.fd.get(), SHUT_RDWR);
}

} // namespace racelogic::serve
