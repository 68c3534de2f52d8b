/**
 * raceserved: the racelogic::serve alignment daemon.
 *
 * Listens on a Unix-domain socket and/or loopback TCP, optionally
 * preloads a pangenome (GFA) for GraphAlign/MapReads requests, and
 * serves the length-prefixed binary protocol (src/rl/serve/wire.h).
 * SIGTERM/SIGINT triggers a clean drain: every admitted request
 * finishes and flushes its response before the process exits 0.
 * SIGUSR1 dumps the full telemetry snapshot (Prometheus text) to
 * stderr without disturbing service; --metrics-dump prints the same
 * exposition once more after the final drain.  SIGHUP re-reads the
 * --gfa file and hot-swaps the served graph with zero downtime:
 * in-flight solves finish against the old graph, and a reload that
 * fails to parse or compile leaves the old graph serving.
 *
 *   raceserved --unix /tmp/rl.sock --gfa examples/data/bubbles.gfa
 *   raceserved --tcp 0 --workers 4 --depth 64 --metrics-dump
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include <pthread.h>

#include "rl/core/wavefront.h"
#include "rl/pangraph/gfa.h"
#include "rl/serve/server.h"

using namespace racelogic;

namespace {

volatile std::sig_atomic_t gStopRequested = 0;
volatile std::sig_atomic_t gDumpRequested = 0;
volatile std::sig_atomic_t gReloadRequested = 0;

void
onSignal(int)
{
    gStopRequested = 1;
}

void
onDumpSignal(int)
{
    gDumpRequested = 1;
}

void
onReloadSignal(int)
{
    gReloadRequested = 1;
}

/**
 * Install the signal handlers with their signals blocked, and return
 * the mask to wait in.  Called before any thread starts: the workers
 * inherit the blocked mask, so every signal waits, pending, for the
 * main thread's sigsuspend() -- one that arrives before the wait, even
 * before the daemon answers its first Health probe, is delivered there
 * instead of killing the process by the default action or landing
 * unnoticed between a flag check and the wait.
 */
sigset_t
installSignalHandlers()
{
    const std::pair<int, void (*)(int)> handlers[] = {
        {SIGTERM, onSignal},
        {SIGINT, onSignal},
        {SIGUSR1, onDumpSignal},
        {SIGHUP, onReloadSignal},
    };
    sigset_t blocked;
    sigemptyset(&blocked);
    for (const auto &[sig, handler] : handlers)
        sigaddset(&blocked, sig);
    sigset_t waitMask;
    pthread_sigmask(SIG_BLOCK, &blocked, &waitMask);
    for (const auto &[sig, handler] : handlers) {
        struct sigaction action = {};
        action.sa_handler = handler;
        sigemptyset(&action.sa_mask);
        sigaction(sig, &action, nullptr);
        // Open even if the parent started the daemon with it blocked.
        sigdelset(&waitMask, sig);
    }
    return waitMask;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--unix PATH] [--tcp PORT] [--gfa FILE]\n"
        "          [--alphabet LETTERS] [--workers N] [--depth N]\n"
        "          [--brownout-depth N] [--mem-budget-mb MB]\n"
        "          [--threshold T] [--max-product-states N]\n"
        "          [--idle-timeout-ms MS] [--io-timeout-ms MS]\n"
        "          [--slow-ms MS] [--no-telemetry] [--metrics-dump]\n"
        "          [--quiet]\n"
        "\n"
        "  --unix PATH       listen on a Unix-domain socket\n"
        "  --tcp PORT        listen on loopback TCP (0 = ephemeral;\n"
        "                    the bound port is printed on stdout)\n"
        "  --gfa FILE        preload a pangenome for GraphAlign/MapReads\n"
        "  --alphabet L      graph alphabet letters (default ACGT)\n"
        "  --workers N       worker threads sharing one engine (default 4)\n"
        "  --depth N         admission bound on outstanding requests\n"
        "                    (default 64)\n"
        "  --brownout-depth N\n"
        "                    admission bound while browned out\n"
        "                    (default 0 = half of --depth)\n"
        "  --mem-budget-mb MB\n"
        "                    daemon-wide memory budget over plan caches\n"
        "                    and kernel scratch; crossing it latches a\n"
        "                    brownout (shed batch work, shrink scratch,\n"
        "                    evict plans) until usage drops back under\n"
        "                    3/4 of the budget (default 0 = unlimited)\n"
        "  --threshold T     engine-wide Section 6 screen threshold\n"
        "  --max-product-states N\n"
        "                    reject GraphAlign/MapReads whose read x\n"
        "                    graph product exceeds N states with a\n"
        "                    typed resource-exhausted reply\n"
        "                    (default 0 = kernel id-space bound only)\n"
        "  --idle-timeout-ms MS\n"
        "                    hang up on connections idle between\n"
        "                    requests for MS ms (default 0 = never)\n"
        "  --io-timeout-ms MS\n"
        "                    sever peers that stall mid-frame or stop\n"
        "                    reading responses (default 10000; 0 = never)\n"
        "  --slow-ms MS      log any request whose end-to-end latency\n"
        "                    reaches MS ms, with its stage breakdown\n"
        "                    (default 0 = off)\n"
        "  --no-telemetry    skip metric registration entirely (the\n"
        "                    Metrics request still answers with the\n"
        "                    queue/engine series)\n"
        "  --metrics-dump    print the Prometheus-text telemetry\n"
        "                    snapshot to stderr after the final drain;\n"
        "                    SIGUSR1 prints one at any time while\n"
        "                    serving\n"
        "  --quiet           suppress the final stats report\n"
        "\n"
        "signals: SIGTERM/SIGINT drain and exit 0; SIGUSR1 dumps the\n"
        "telemetry snapshot to stderr; SIGHUP re-reads the --gfa file\n"
        "and hot-swaps the served graph (in-flight solves finish on\n"
        "the old graph; a failed reload keeps the old graph serving)\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerConfig cfg;
    std::string gfaPath;
    std::string alphabetLetters = "ACGT";
    bool quiet = false;
    bool metricsDump = false;

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
            cfg.unixPath = value();
        } else if (arg == "--tcp") {
            cfg.tcpPort = std::atoi(value());
        } else if (arg == "--gfa") {
            gfaPath = value();
        } else if (arg == "--alphabet") {
            alphabetLetters = value();
        } else if (arg == "--workers") {
            cfg.workers = static_cast<size_t>(std::atol(value()));
        } else if (arg == "--depth") {
            cfg.queueDepth = static_cast<size_t>(std::atol(value()));
        } else if (arg == "--brownout-depth") {
            cfg.brownoutDepth = static_cast<size_t>(std::atol(value()));
        } else if (arg == "--mem-budget-mb") {
            cfg.memBudgetBytes =
                static_cast<size_t>(std::atoll(value())) * 1024 * 1024;
        } else if (arg == "--threshold") {
            cfg.engine.threshold = std::atoll(value());
        } else if (arg == "--max-product-states") {
            cfg.engine.maxProductStates =
                static_cast<uint64_t>(std::atoll(value()));
        } else if (arg == "--idle-timeout-ms") {
            cfg.idleTimeoutMs = std::atoll(value());
        } else if (arg == "--io-timeout-ms") {
            cfg.ioTimeoutMs = std::atoll(value());
        } else if (arg == "--slow-ms") {
            cfg.slowMs = std::atoll(value());
        } else if (arg == "--no-telemetry") {
            cfg.telemetry = false;
        } else if (arg == "--metrics-dump") {
            metricsDump = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (cfg.unixPath.empty() && cfg.tcpPort < 0) {
        std::fprintf(stderr, "%s: need --unix and/or --tcp\n", argv[0]);
        usage(argv[0]);
        return 2;
    }

    if (!gfaPath.empty()) {
        bio::Alphabet alphabet(alphabetLetters);
        auto graph = std::make_shared<pangraph::VariationGraph>(
            pangraph::readGfaFile(gfaPath, alphabet));
        // Fig. 2b weights generalized to any alphabet: race-ready
        // (minimum finite weight 1, as the grid kernel requires).
        bio::ScoreMatrix costs(alphabet, bio::ScoreKind::Cost);
        for (bio::Symbol a = 0; a < alphabet.size(); ++a)
            for (bio::Symbol b = 0; b < alphabet.size(); ++b)
                costs.setPair(a, b, a == b ? 1 : 2);
        costs.setAllGaps(1);
        cfg.graphMatrix = std::move(costs);
        cfg.graph = std::move(graph);
    }

    // Estimates are a measurement-run luxury the serving hot path
    // does not want to price on every request.
    cfg.engine.withEstimates = false;

    const sigset_t waitMask = installSignalHandlers();
    serve::AlignServer server(std::move(cfg));
    if (!server.start()) {
        std::perror("raceserved: failed to bind listener");
        return 1;
    }
    if (server.port() != 0) {
        std::printf("%u\n", static_cast<unsigned>(server.port()));
        std::fflush(stdout);
    }
    // Name the kernel behind every number this daemon reports.  fputs,
    // not fprintf: the daemon formats nothing else before it serves,
    // and printf's machinery would add its pages to the resident set.
    const unsigned lanes = core::sweepLanes();
    std::fputs(("raceserved: rl_kernel_sweep_lanes=" +
                std::to_string(lanes) +
                (lanes > 1 ? " (AVX-512BW skewed band: edit grid and "
                             "graph; row sweeps for races past 2^14)\n"
                           : " (row sweeps: edit grid and graph)\n"))
                   .c_str(),
               stderr);

    while (!gStopRequested) {
        // Signals are the only way out.  sigsuspend() unblocks them and
        // waits in one step, and blocks them again before returning.
        sigsuspend(&waitMask);
        if (gDumpRequested) {
            gDumpRequested = 0;
            const std::string text =
                server.metricsSnapshot().renderPrometheus();
            std::fwrite(text.data(), 1, text.size(), stderr);
            std::fflush(stderr);
        }
        if (gReloadRequested) {
            gReloadRequested = 0;
            // Zero-downtime swap: parse + compile happen here, on the
            // signal-dispatch thread, while workers keep racing on the
            // old graph.  Any failure -- no --gfa, a broken file, an
            // alphabet change -- is logged and the old graph keeps
            // serving.
            if (gfaPath.empty()) {
                std::fprintf(stderr,
                             "raceserved: SIGHUP ignored, no --gfa to "
                             "reload\n");
            } else {
                bio::Alphabet alphabet(alphabetLetters);
                Expected<pangraph::VariationGraph> parsed =
                    pangraph::tryReadGfaFile(gfaPath, alphabet);
                Status status =
                    parsed.ok()
                        ? server.reloadGraph(
                              std::make_shared<pangraph::VariationGraph>(
                                  std::move(parsed.value())))
                        : parsed.status();
                if (status.ok()) {
                    std::fprintf(stderr,
                                 "raceserved: reloaded %s (version "
                                 "%llu)\n",
                                 gfaPath.c_str(),
                                 static_cast<unsigned long long>(
                                     server.graphVersion()));
                } else {
                    std::fprintf(stderr,
                                 "raceserved: reload failed, old graph "
                                 "keeps serving: %s\n",
                                 status.toString().c_str());
                }
            }
        }
    }

    server.stop(); // drain: admitted requests finish and flush

    if (metricsDump) {
        const std::string text =
            server.metricsSnapshot().renderPrometheus();
        std::fwrite(text.data(), 1, text.size(), stderr);
        std::fflush(stderr);
    }

    if (!quiet) {
        const serve::QueueStats q = server.queueStats();
        std::fprintf(stderr,
                     "raceserved: enqueued=%llu completed=%llu "
                     "rejected=%llu (full=%llu oversized=%llu bad=%llu "
                     "resource=%llu shutdown=%llu) shed-deadline=%llu "
                     "shed-evicted=%llu high-water=%llu\n",
                     static_cast<unsigned long long>(q.enqueued),
                     static_cast<unsigned long long>(q.completed),
                     static_cast<unsigned long long>(q.rejected()),
                     static_cast<unsigned long long>(q.rejectedQueueFull),
                     static_cast<unsigned long long>(q.rejectedOversized),
                     static_cast<unsigned long long>(q.rejectedBadRequest),
                     static_cast<unsigned long long>(q.rejectedResource),
                     static_cast<unsigned long long>(q.rejectedShutdown),
                     static_cast<unsigned long long>(q.shedDeadline),
                     static_cast<unsigned long long>(q.shedEvicted),
                     static_cast<unsigned long long>(q.highWater));
        const api::EngineStats e = server.engineStats();
        std::fprintf(stderr,
                     "raceserved: engine solves=%llu plans-built=%llu "
                     "plan-hits=%llu\n",
                     static_cast<unsigned long long>(e.solves),
                     static_cast<unsigned long long>(e.plansBuilt),
                     static_cast<unsigned long long>(e.planCacheHits));
    }
    return 0;
}
