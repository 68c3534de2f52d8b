/**
 * perfbench_replay: the traced per-layer run of one workload.
 *
 * Three parts, all on the inputs perfbench_load sends for the same
 * seed:
 *
 *  1. the first requests of the stream replayed through one
 *     RaceEngine (the plan-cache miss rate a single engine sees);
 *  2. the same requests as a fixed-count closed loop against a fresh
 *     raceserved, with the daemon's Stats and Metrics scraped before
 *     and after (the serve.* stage and counter deltas);
 *  3. a fixed prefix replayed one request at a time through every
 *     layer's public entry point -- oracle, kernel, RaceEngine, wire
 *     codec, queue, daemon round trip -- with a span around each call,
 *     pass after pass until the measured seconds are used up.
 *
 * The first replay pass warms caches and is not counted; every timing
 * is the median over the remaining passes of a per-pass mean.  Layer
 * self times are differences of those medians, so kernel + api.self +
 * serve.self + client.self equals the round trip exactly.
 *
 *   perfbench_replay --workload graph-map --seed 1 --seconds 10 \
 *       --dir SCRATCH_DIR
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>

#include <unistd.h>

#include "count_new.h"
#include "daemon.h"
#include "load.h"
#include "report.h"
#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/alignment_graph.h"
#include "rl/pangraph/graph_align_dp.h"
#include "rl/pangraph/graph_align_kernel.h"
#include "rl/serve/queue.h"
#include "rl/serve/wire.h"
#include "rl/telemetry/trace.h"

using namespace perfbench;
namespace api = rl::api;
namespace bio = rl::bio;
namespace pangraph = rl::pangraph;
namespace serve = rl::serve;

namespace {

constexpr const char *kSocket = "rl.sock";

/** Replay passes: at least this many (the first is warm-up)... */
constexpr size_t kMinPasses = 3;
/** ...and at most this many, which bounds the span log's memory. */
constexpr size_t kMaxPasses = 2000;

/** Calls per in-process layer and request; the fastest is its span. */
constexpr int kCalls = 3;

/** A time limit the fixed-count phase never reaches. */
constexpr double kNoTimeLimitSec = 3600.0;

/** The traced layers, in the order each request visits them. */
enum Layer : uint8_t {
    BioDp,
    PangraphDp,
    CoreRace,
    PangraphRace,
    ApiValidate,
    ApiSolve,
    WireCodec,
    QueueCycle,
    RoundTrip,
    kLayers,
    kNoParent = 0xff,
};

const char *const kLayerName[kLayers] = {
    "bio.dp",       "pangraph.dp",  "core.race",
    "pangraph.race", "api.validate", "api.solve",
    "wire.codec",   "queue.cycle",  "client.round_trip"};

/** The fastest call so far of one layer on one request. */
struct Fastest {
    int64_t startNs = 0;
    int64_t durationNs = std::numeric_limits<int64_t>::max();
};

/** One timed call: which request, which layer, inside which layer. */
struct Span {
    uint32_t request;
    uint16_t pass;
    uint8_t layer;
    uint8_t parent;
    int64_t startNs;
    int64_t durationNs;
};

/** Requests per workload for the engine replay and the daemon phase. */
size_t
fixedRequests(Kind kind)
{
    switch (kind) {
    case Kind::PairwiseFull:
        return 1024;
    case Kind::ScreenShort:
        return 8192;
    case Kind::GraphMap:
        return 128;
    }
    return 0;
}

/** Replay prefix: small enough that every plan stays cached. */
size_t
prefixRequests(Kind kind)
{
    return kind == Kind::GraphMap ? 16 : 64;
}

/** The RaceEngine configuration each raceserved shard runs with. */
api::EngineConfig
daemonEngineConfig()
{
    api::EngineConfig cfg;
    cfg.withEstimates = false;
    cfg.workerThreads = 1;
    return cfg;
}

/** The API problem one stream request describes. */
api::RaceProblem
problemFor(const Workload &w, const Item &item)
{
    const bio::Alphabet &dna = bio::Alphabet::dna();
    switch (w.kind) {
    case Kind::PairwiseFull:
        return api::RaceProblem::pairwiseAlignment(
            w.costs, bio::Sequence(dna, item.a), bio::Sequence(dna, item.b));
    case Kind::ScreenShort:
        return api::RaceProblem::thresholdScreen(w.costs, w.threshold,
                                                 bio::Sequence(dna, item.a),
                                                 bio::Sequence(dna, item.b));
    case Kind::GraphMap:
        break;
    }
    return api::RaceProblem::graphAlign(w.costs, bio::Sequence(dna, item.a),
                                        w.graph);
}

/** The wire request one stream request is encoded as. */
std::vector<uint8_t>
encodeItem(const Workload &w, const Item &item, uint32_t id)
{
    switch (w.kind) {
    case Kind::PairwiseFull:
        return serve::encodePairwise(id, w.costs, item.a, item.b);
    case Kind::ScreenShort:
        return serve::encodeScreen(id, w.costs, w.threshold, item.a, item.b);
    case Kind::GraphMap:
        break;
    }
    return serve::encodeGraphAlign(id, item.a, bio::kScoreInfinity);
}

/** Per-request inputs of the replay, built before any span. */
struct Prepared {
    bio::Sequence a, b;
    api::RaceProblem problem;
    /** Pairwise workloads: b as a one-segment pangenome. */
    std::shared_ptr<const pangraph::VariationGraph> linear;
    std::shared_ptr<const pangraph::CompiledGraph> compiled;
};

/** Agreement of a raced (completed, score) pair with an oracle score. */
bool
agrees(bool completed, bio::Score score, bio::Score oracle,
       const Workload &w)
{
    if (oracle > w.threshold)
        return !completed;
    return completed && score == oracle;
}

/** Per-pass mean of one layer's span durations, in microseconds. */
std::vector<double>
passMeans(const std::vector<Span> &spans, Layer layer, size_t passes)
{
    std::vector<double> sum(passes, 0.0), count(passes, 0.0);
    for (const Span &s : spans)
        if (s.layer == layer) {
            sum[s.pass] += static_cast<double>(s.durationNs) / 1000.0;
            count[s.pass] += 1.0;
        }
    std::vector<double> out;
    for (size_t p = 1; p < passes; ++p)
        out.push_back(count[p] > 0 ? sum[p] / count[p] : 0.0);
    return out;
}

std::vector<double>
minus(const std::vector<double> &x, const std::vector<double> &y)
{
    std::vector<double> out(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        out[i] = x[i] - y[i];
    return out;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (::chdir(args.dir.c_str()) != 0) {
        std::perror("perfbench_replay: chdir");
        return 1;
    }
    printBuildInfo();
    const Workload w = makeWorkload(args.kind, args.seed, ".");
    const bool graphWorkload = w.kind == Kind::GraphMap;
    const rl::sim::Tick horizon =
        w.kind == Kind::ScreenShort ? static_cast<rl::sim::Tick>(w.threshold)
                                    : rl::sim::kTickInfinity;
    const size_t fixed = fixedRequests(w.kind);
    const size_t prefix = prefixRequests(w.kind);
    uint64_t mismatches = 0;

    // ---- 1. the request stream through one engine -------------------
    api::EngineStats oneEngine;
    {
        api::RaceEngine engine(daemonEngineConfig());
        for (size_t i = 0; i < fixed; ++i) {
            rl::Expected<api::RaceResult> r = engine.trySolve(
                problemFor(w, w.items[i % w.items.size()]));
            if (!r.ok())
                ++mismatches;
        }
        oneEngine = engine.stats();
    }

    // ---- 2. fixed-count closed loop against a fresh daemon ----------
    Daemon daemon(w.daemonArgs(kSocket), "daemon.log");
    if (daemon.waitReady(kSocket, 60.0) < 0) {
        std::fprintf(stderr, "perfbench_replay: daemon never became ready "
                             "(see daemon.log)\n");
        return 1;
    }
    serve::ServeClient client = serve::ServeClient::overUnix(kSocket, 5000);
    Scrape before, after;
    if (!client.ok() || !scrape(client, before)) {
        std::fprintf(stderr, "perfbench_replay: cannot reach the daemon\n");
        return 1;
    }
    Stream stream;
    const LoadOutcome phase =
        runClosedLoop(client, w, stream, kWindow, kNoTimeLimitSec, fixed);
    if (!scrape(client, after)) {
        std::fprintf(stderr, "perfbench_replay: scrape failed\n");
        return 1;
    }
    mismatches += phase.mismatches;

    // ---- 3. the traced replay ----------------------------------------
    std::vector<Prepared> prep;
    std::shared_ptr<const pangraph::CompiledGraph> pangenome;
    if (graphWorkload)
        pangenome = std::make_shared<const pangraph::CompiledGraph>(
            pangraph::compileGraph(*w.graph, w.costs));
    for (size_t i = 0; i < prefix; ++i) {
        const Item &item = w.items[i];
        Prepared p{bio::Sequence(bio::Alphabet::dna(), item.a),
                   bio::Sequence(bio::Alphabet::dna(), item.b),
                   problemFor(w, item), nullptr, pangenome};
        if (!graphWorkload) {
            auto g = std::make_shared<pangraph::VariationGraph>(
                bio::Alphabet::dna());
            g->addSegment("b", p.b);
            p.linear = g;
            p.compiled = std::make_shared<const pangraph::CompiledGraph>(
                pangraph::compileGraph(*g, w.costs));
        }
        prep.push_back(std::move(p));
    }

    api::RaceEngine engine(daemonEngineConfig());
    serve::RequestQueue queue(64);
    rl::core::RaceGridScratch gridScratch;
    pangraph::GraphAlignScratch graphScratch;

    // The kernel whose time api.solve contains, and so the parent rows.
    const Layer kernel = graphWorkload ? PangraphRace : CoreRace;
    uint8_t parentOf[kLayers];
    for (uint8_t &p : parentOf)
        p = kNoParent;
    parentOf[kernel] = ApiSolve;
    parentOf[ApiSolve] = RoundTrip;
    parentOf[WireCodec] = RoundTrip;
    parentOf[QueueCycle] = RoundTrip;

    std::vector<Span> spans;
    spans.reserve(kMaxPasses * prefix * kLayers);
    std::vector<double> daemonMeans; // per counted pass
    const Clock::time_point epoch = Clock::now();
    auto nsSinceEpoch = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
            .count();
    };

    // Counters of the first counted pass (they repeat exactly).
    uint64_t gridEvents = 0, gridFired = 0, gridNodes = 0;
    uint64_t graphEvents = 0, graphNodes = 0;
    uint64_t solveAllocs = 0, solveBytes = 0;
    uint64_t requestBytes = 0, responseBytes = 0;

    size_t passes = 0;
    const Clock::time_point replayStart = Clock::now();
    while (passes < kMaxPasses &&
           (passes < kMinPasses ||
            std::chrono::duration<double>(Clock::now() - replayStart)
                    .count() < args.seconds)) {
        const uint16_t pass = static_cast<uint16_t>(passes);
        Scrape passBefore, passAfter;
        if (!scrape(client, passBefore)) {
            std::fprintf(stderr, "perfbench_replay: scrape failed\n");
            return 1;
        }
        for (size_t i = 0; i < prefix; ++i) {
            const Prepared &p = prep[i];
            const Item &item = w.items[i];
            const uint32_t id = stream.nextId++;
            // Every in-process layer is called kCalls times in a row and
            // its fastest call becomes its span: the first call warms the
            // layer's working set, and a preemption by another tenant
            // rarely hits every call.  Each call's result is destroyed
            // after its clock stops.
            auto timeOnce = [&](Fastest &best, auto &&call) {
                const Clock::time_point t0 = Clock::now();
                auto result = call();
                const Clock::time_point t1 = Clock::now();
                const int64_t start = nsSinceEpoch(t0);
                if (nsSinceEpoch(t1) - start < best.durationNs)
                    best = {start, nsSinceEpoch(t1) - start};
                return result;
            };
            auto record = [&](Layer layer, const Fastest &best) {
                spans.push_back({id, pass, layer, parentOf[layer],
                                 best.startNs, best.durationNs});
            };
            auto fastest = [&](Layer layer, auto &&call) {
                Fastest best;
                auto result = timeOnce(best, call);
                for (int k = 1; k < kCalls; ++k)
                    result = timeOnce(best, call);
                record(layer, best);
                return result;
            };

            const bio::Score dpScore = fastest(BioDp, [&] {
                return bio::globalScore(p.a, p.b, w.costs);
            });
            const bio::Score graphDpScore = fastest(PangraphDp, [&] {
                return pangraph::graphAlignDp(
                           graphWorkload ? *w.graph : *p.linear, p.a, w.costs)
                    .distance;
            });
            // On graph-map the pairwise kernel races the read against
            // the reference walk, whose oracle is bio.dp.
            const bio::Score gridOracle =
                graphWorkload ? dpScore : item.expected;

            auto raceGrid = [&] {
                return rl::core::raceEditGrid(p.a, p.b, w.costs, horizon,
                                              gridScratch);
            };
            auto raceGraph = [&] {
                return pangraph::raceAlignmentGrid(*p.compiled, p.a, w.costs,
                                                   horizon, graphScratch);
            };
            AllocCounts alloc0, alloc1;
            auto solve = [&] {
                alloc0 = allocCounts();
                api::RaceResult r = engine.solve(p.problem);
                alloc1 = allocCounts();
                return r;
            };
            // The other kernel first; then the kernel the engine runs and
            // RaceEngine::solve in alternation, so api.self compares the
            // two in the same state.
            rl::core::RaceGridResult grid;
            pangraph::GraphRaceResult graph;
            if (graphWorkload)
                grid = fastest(CoreRace, raceGrid);
            else
                graph = fastest(PangraphRace, raceGraph);
            Fastest kernelBest, solveBest;
            api::RaceResult solved;
            for (int k = 0; k < kCalls; ++k) {
                if (graphWorkload)
                    graph = timeOnce(kernelBest, raceGraph);
                else
                    grid = timeOnce(kernelBest, raceGrid);
                solved = timeOnce(solveBest, solve);
            }
            record(kernel, kernelBest);
            const rl::Status valid = fastest(
                ApiValidate, [&] { return engine.validate(p.problem); });
            record(ApiSolve, solveBest);

            struct Codec {
                bool ok;
                size_t requestBytes, responseBytes;
            };
            const Codec codec = fastest(WireCodec, [&] {
                const std::vector<uint8_t> req = encodeItem(w, item, id);
                serve::Request decoded;
                const serve::WireError err = serve::decodeRequest(
                    req, bio::Alphabet::dna(), decoded);
                serve::Response resp;
                resp.id = id;
                resp.tag = decoded.tag;
                resp.solve = serve::SolveReply{
                    solved.score,         solved.racedCost,
                    solved.latencyCycles, solved.cyclesUsed,
                    solved.events,        solved.nodes,
                    solved.cellsFired,    solved.completed,
                    solved.accepted};
                const std::vector<uint8_t> bytes = serve::encodeResponse(resp);
                serve::Response back;
                const bool ok = err == serve::WireError::None &&
                                serve::decodeResponse(bytes, back) ==
                                    serve::WireError::None &&
                                back.solve &&
                                back.solve->score == solved.score;
                // Both sizes include the 4-byte length prefix.
                return Codec{ok, req.size() + 4, bytes.size() + 4};
            });

            const bool queued = fastest(QueueCycle, [&] {
                // The closure carries what the daemon's does: the
                // request's trace and its problem.
                serve::QueuedJob job;
                job.run = [id, trace = rl::telemetry::RequestTrace{},
                           problem = &p.problem] {
                    (void)id;
                    (void)trace;
                    (void)problem;
                };
                const bool admitted = queue.tryPush(std::move(job)) ==
                                      serve::RequestQueue::Admit::Accepted;
                std::vector<serve::QueuedJob> batch = queue.drain(16);
                queue.markDone(batch.size());
                return admitted;
            });

            serve::Response reply;
            Fastest roundTrip;
            const bool replied = timeOnce(roundTrip, [&] {
                return submitItem(client, w, i, id) && client.receive(reply);
            });
            record(RoundTrip, roundTrip);
            // Let the daemon finish the request before this process takes
            // the CPU back: on a busy host it would otherwise be preempted
            // between sending the reply and stamping its write, and its
            // request time would outgrow the round trip.
            serve::Response settled;
            const bool retired = settle(client, settled);

            const bool ok =
                agrees(grid.completed, grid.score, gridOracle, w) &&
                agrees(graph.completed, graph.racedCost,
                       graphWorkload ? item.expected : graphDpScore, w) &&
                graphDpScore == (graphWorkload ? item.expected : dpScore) &&
                (graphWorkload || dpScore == item.expected) && valid.ok() &&
                solved.accepted == w.passes(item) &&
                (!solved.accepted || solved.score == item.expected) &&
                codec.ok && queued && replied && retired &&
                reply.status == serve::Status::Ok &&
                replyMatches(w, item, reply);
            if (!ok) {
                std::fprintf(stderr,
                             "perfbench_replay: layer disagreement on "
                             "request %zu, pass %zu\n",
                             i, passes);
                ++mismatches;
            }
            if (passes == 1) {
                gridEvents += grid.events;
                gridFired += grid.cellsFired;
                gridNodes += (p.a.size() + 1) * (p.b.size() + 1);
                graphEvents += graph.events;
                graphNodes += graph.nodes;
                solveAllocs += alloc1.allocs - alloc0.allocs;
                solveBytes += alloc1.bytes - alloc0.bytes;
                requestBytes += codec.requestBytes;
                responseBytes += codec.responseBytes;
            }
        }
        if (!scrape(client, passAfter)) {
            std::fprintf(stderr, "perfbench_replay: scrape failed\n");
            return 1;
        }
        const rl::telemetry::HistogramSnapshot served =
            histogramDelta(passBefore, passAfter, "rl_serve_request_us");
        if (served.count != prefix) {
            std::fprintf(stderr,
                         "perfbench_replay: daemon traced %" PRIu64
                         " requests in a pass of %zu\n",
                         served.count, prefix);
            ++mismatches;
        }
        if (passes > 0)
            daemonMeans.push_back(mean(served));
        ++passes;
    }

    Scrape closing;
    const bool scraped = scrape(client, closing);
    client.close();
    const int exitCode = daemon.terminate();
    uint64_t shardSolves = 0;
    for (const serve::ShardStatsWire &s : closing.shards)
        shardSolves += s.solves;
    const uint64_t sent = phase.sent + passes * prefix;
    const bool ledgerOk = scraped &&
                          closing.queue.enqueued == closing.queue.completed &&
                          shardSolves == closing.queue.completed &&
                          closing.queue.enqueued == sent;

    {
        std::ofstream out("spans.tsv");
        out << "request\tpass\tlayer\tparent\tstart_ns\tduration_ns\n";
        for (const Span &s : spans)
            out << s.request << '\t' << s.pass << '\t'
                << kLayerName[s.layer] << '\t'
                << (s.parent == kNoParent ? "-" : kLayerName[s.parent])
                << '\t' << s.startNs << '\t' << s.durationNs << '\n';
    }

    // ---- per-layer table ----------------------------------------------
    std::vector<double> perPass[kLayers];
    for (uint8_t l = 0; l < kLayers; ++l)
        perPass[l] = passMeans(spans, static_cast<Layer>(l), passes);
    auto med = [&](Layer l) { return median(perPass[l]); };

    const double kernelUs = med(kernel);
    const double solveUs = med(ApiSolve);
    const double daemonUs = median(daemonMeans);
    const double roundTripUs = med(RoundTrip);
    const double n = static_cast<double>(prefix);

    // Daemon-side deltas of the fixed-count phase.
    const uint64_t completed = after.queue.completed - before.queue.completed;
    const double ops = static_cast<double>(completed);
    uint64_t built = 0, locks = 0, minSolves = UINT64_MAX, maxSolves = 0;
    for (size_t s = 0; s < after.shards.size(); ++s) {
        const uint64_t solves =
            after.shards[s].solves - before.shards[s].solves;
        minSolves = std::min(minSolves, solves);
        maxSolves = std::max(maxSolves, solves);
        built += after.shards[s].plansBuilt - before.shards[s].plansBuilt;
        locks += after.shards[s].buildLocks - before.shards[s].buildLocks;
    }
    auto stage = [&](const char *name) {
        return mean(histogramDelta(before, after, name));
    };
    const rl::telemetry::HistogramSnapshot queueWait =
        histogramDelta(before, after, "rl_serve_stage_queue_wait_us");
    double clientLatencyUs = 0.0;
    for (double us : phase.latencyUs)
        clientLatencyUs += us;
    clientLatencyUs /= std::max<size_t>(phase.latencyUs.size(), 1);

    Report report;
    report.add("core.race_us", med(CoreRace), "us");
    report.add("core.events_per_cell", ratio(gridEvents, gridNodes),
               "events/cell");
    report.add("core.fired_frac", ratio(gridFired, gridNodes), "frac");
    report.add("core.vs_oracle", ratio(med(CoreRace), med(BioDp)), "x");
    report.add("bio.dp_us", med(BioDp), "us");
    report.add("pangraph.race_us", med(PangraphRace), "us");
    report.add("pangraph.events_per_state", ratio(graphEvents, graphNodes),
               "events/state");
    report.add("pangraph.dp_us", med(PangraphDp), "us");
    report.add("pangraph.vs_oracle", ratio(med(PangraphRace), med(PangraphDp)),
               "x");
    report.add("api.solve_us", solveUs, "us");
    report.add("api.self_us", solveUs - kernelUs, "us");
    report.add("api.validate_us", med(ApiValidate), "us");
    report.add("api.plan_miss_frac",
               ratio(oneEngine.plansBuilt, oneEngine.solves), "frac");
    report.add("api.allocs_per_solve", solveAllocs / n, "count");
    report.add("api.alloc_kb_per_solve", solveBytes / n / 1024.0, "KiB");
    report.add("wire.codec_us", med(WireCodec), "us");
    report.add("wire.request_bytes", requestBytes / n, "B");
    report.add("wire.response_bytes", responseBytes / n, "B");
    report.add("queue.cycle_us", med(QueueCycle), "us");
    report.add("serve.read_us", stage("rl_serve_stage_read_us"), "us");
    report.add("serve.decode_us", stage("rl_serve_stage_decode_us"), "us");
    report.add("serve.admit_us", stage("rl_serve_stage_admit_us"), "us");
    report.add("serve.queue_wait_us", mean(queueWait), "us");
    report.add("serve.queue_wait_p99_us", queueWait.percentile(99), "us");
    report.add("serve.dispatch_us", stage("rl_serve_stage_dispatch_us"),
               "us");
    report.add("serve.solve_us", stage("rl_serve_stage_solve_us"), "us");
    report.add("serve.encode_us", stage("rl_serve_stage_encode_us"), "us");
    report.add("serve.write_us", stage("rl_serve_stage_write_us"), "us");
    report.add("serve.request_us", stage("rl_serve_request_us"), "us");
    report.add("serve.worker_balance", ratio(minSolves, maxSolves), "ratio");
    report.add("serve.plans_built_per_kop", 1000.0 * ratio(built, ops),
               "1/kop");
    report.add("serve.build_locks_per_kop", 1000.0 * ratio(locks, ops),
               "1/kop");
    report.add("serve.kernel_events_per_op",
               ratio(counterDelta(before, after, "rl_kernel_events_total"),
                     ops),
               "events");
    report.add("serve.horizon_abort_frac",
               ratio(counterDelta(before, after,
                                  "rl_kernel_horizon_aborts_total"),
                     ops),
               "frac");
    report.add("serve.queue_high_water",
               static_cast<double>(after.queue.highWater), "count");
    report.add("serve.self_us", daemonUs - solveUs, "us");
    report.add("client.self_us", roundTripUs - daemonUs, "us");
    report.add("client.round_trip_us", roundTripUs, "us");
    report.add("client.latency_us", clientLatencyUs, "us");

    // The replay's layer table: each row's per-pass values give its
    // spread, and the rows add up to the round trip.
    const std::vector<double> kernelPass = perPass[kernel];
    const std::vector<double> solvePass = perPass[ApiSolve];
    const std::vector<double> rtPass = perPass[RoundTrip];
    const std::vector<std::pair<std::string, std::vector<double>>> rows = {
        {kLayerName[kernel], kernelPass},
        {"api.self", minus(solvePass, kernelPass)},
        {"serve.self", minus(daemonMeans, solvePass)},
        {"client.self", minus(rtPass, daemonMeans)},
        {"client.round_trip", rtPass},
        {"wire.codec", perPass[WireCodec]},
        {"queue.cycle", perPass[QueueCycle]},
    };
    const double rowValue[] = {kernelUs,
                               solveUs - kernelUs,
                               daemonUs - solveUs,
                               roundTripUs - daemonUs,
                               roundTripUs,
                               med(WireCodec),
                               med(QueueCycle)};
    std::printf("layer-table: {\"passes\": %zu, \"prefix\": %zu, "
                "\"rows\": [",
                passes - 1, prefix);
    for (size_t r = 0; r < rows.size(); ++r)
        std::printf("%s{\"layer\": \"%s\", \"us\": %.6f, \"iqr_us\": %.6f}",
                    r ? ", " : "", rows[r].first.c_str(), rowValue[r],
                    iqr(rows[r].second));
    std::printf("]}\n");

    std::printf("workload: %s seed=%" PRIu64 " fixed=%zu prefix=%zu "
                "passes=%zu spans=%zu\n",
                w.name.c_str(), args.seed, fixed, prefix, passes - 1,
                spans.size());
    std::printf("ledger: enqueued=%" PRIu64 " completed=%" PRIu64
                " shard_solves=%" PRIu64 " sent=%" PRIu64 " %s\n",
                closing.queue.enqueued, closing.queue.completed, shardSolves,
                sent, ledgerOk ? "ok" : "MISMATCH");
    std::printf("drain: SIGTERM exit code %d\n", exitCode);

    const uint64_t failed = phase.failed + mismatches;
    const bool correct = mismatches == 0 && phase.failed == 0 && ledgerOk &&
                         exitCode == 0;
    report.printTable();
    report.printResult(correct, sent, failed);
    return correct ? 0 : 1;
}
