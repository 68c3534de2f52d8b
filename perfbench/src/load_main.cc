/**
 * perfbench_load: the untraced end-to-end run of one workload.
 *
 * Generates the workload from the seed into the scratch directory,
 * starts raceserved with its shipped defaults several times to time
 * set-up, then drives the last daemon from this one process for the
 * measured seconds (closed loop, window 8) and checks every reply
 * against the oracle.  Ends with a SIGTERM drain that must exit 0.
 *
 *   perfbench_load --workload screen-short --seed 1 --seconds 10 \
 *       --dir SCRATCH_DIR
 */

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>

#include <unistd.h>

#include "daemon.h"
#include "load.h"
#include "report.h"

using namespace perfbench;

namespace {

/** Daemon starts timed per run; setup_s is their median. */
constexpr int kSetupRepeats = 15;

/** Unmeasured closed loop before the measured one (lazy set-up). */
constexpr double kWarmupSec = 1.0;

constexpr const char *kSocket = "rl.sock";

/** Replies per tail block: the 99th percentile of 1000 has 10 beyond it. */
constexpr size_t kTailBlock = 1000;

/**
 * Median over consecutive blocks of kTailBlock replies of each block's
 * q-quantile (all replies when there is no whole block), so a stall from
 * outside the benchmark moves a few blocks rather than the figure.
 */
double
blockQuantile(const std::vector<double> &latency, double q)
{
    if (latency.size() < kTailBlock)
        return quantile(latency, q);
    std::vector<double> perBlock;
    for (size_t b = 0; b + kTailBlock <= latency.size(); b += kTailBlock)
        perBlock.push_back(quantile(
            std::vector<double>(latency.begin() + b,
                                latency.begin() + b + kTailBlock),
            q));
    return median(perBlock);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (::chdir(args.dir.c_str()) != 0) {
        std::perror("perfbench_load: chdir");
        return 1;
    }
    printBuildInfo();
    const Workload w = makeWorkload(args.kind, args.seed, ".");

    std::vector<double> setups, setupCpu;
    std::unique_ptr<Daemon> live;
    for (int r = 0; r < kSetupRepeats; ++r) {
        auto daemon =
            std::make_unique<Daemon>(w.daemonArgs(kSocket), "daemon.log");
        const double ready = daemon->waitReady(kSocket, 60.0);
        if (ready < 0) {
            std::fprintf(stderr, "perfbench_load: daemon never became "
                                 "ready (see daemon.log)\n");
            return 1;
        }
        setups.push_back(ready);
        setupCpu.push_back(daemon->readyCpuSeconds());
        if (r + 1 < kSetupRepeats) {
            if (daemon->terminate() != 0) {
                std::fprintf(stderr,
                             "perfbench_load: set-up daemon did not exit 0\n");
                return 1;
            }
        } else {
            live = std::move(daemon);
        }
    }

    rl::serve::ServeClient client =
        rl::serve::ServeClient::overUnix(kSocket, 5000);
    if (!client.ok()) {
        std::perror("perfbench_load: connect");
        return 1;
    }
    const uint64_t unbounded = std::numeric_limits<uint64_t>::max();
    Stream stream;
    const LoadOutcome warm =
        runClosedLoop(client, w, stream, kWindow, kWarmupSec, unbounded);

    Scrape before, after;
    if (!scrape(client, before)) {
        std::fprintf(stderr, "perfbench_load: scrape failed\n");
        return 1;
    }
    const LoadOutcome run = runClosedLoop(client, w, stream, kWindow,
                                          args.seconds, unbounded, live.get());
    const bool scraped = scrape(client, after);
    const double rssMb = live->peakRssMb();
    client.close();
    const int exitCode = live->terminate();

    // The daemon's own ledger must account for every request it took.
    uint64_t shardSolves = 0;
    for (const rl::serve::ShardStatsWire &s : after.shards)
        shardSolves += s.solves;
    const bool ledgerOk = scraped &&
                          after.queue.enqueued == after.queue.completed &&
                          shardSolves == after.queue.completed &&
                          after.queue.enqueued == warm.sent + run.sent;

    const uint64_t failed = run.failed + run.mismatches;
    const bool correct = warm.mismatches == 0 && run.mismatches == 0 &&
                         warm.failed == 0 && ledgerOk && exitCode == 0;

    std::printf("workload: %s seed=%" PRIu64 " pool=%zu window=%zu\n",
                w.name.c_str(), args.seed, w.items.size(), kWindow);
    std::printf("setup: %d daemon starts, median %.6f s wall, %.6f s cpu\n",
                kSetupRepeats, median(setups), median(setupCpu));
    std::printf("load: sent=%" PRIu64 " ok=%" PRIu64 " failed=%" PRIu64
                " oracle_mismatches=%" PRIu64 " failed_frac=%.6f "
                "seconds=%.3f windows=%zu\n",
                run.sent, run.ok, run.failed, run.mismatches,
                run.sent ? double(failed) / double(run.sent) : 0.0,
                run.elapsedSec, run.windowOkPerSec.size());
    std::printf("ledger: enqueued=%" PRIu64 " completed=%" PRIu64
                " shard_solves=%" PRIu64 " sent=%" PRIu64 " %s\n",
                after.queue.enqueued, after.queue.completed, shardSolves,
                warm.sent + run.sent, ledgerOk ? "ok" : "MISMATCH");
    std::printf("drain: SIGTERM exit code %d\n", exitCode);

    std::vector<double> latencyMs;
    latencyMs.reserve(run.latencyUs.size());
    for (double us : run.latencyUs)
        latencyMs.push_back(us / 1000.0);
    // Wall-clock figures are printed but not reported as metrics: the
    // host's steal time moved them up to 3x between sets of runs of one
    // commit, while CPU time, memory and set-up CPU stayed within 18%.
    std::printf("wall: throughput_aps=%.4f aln/s latency_p50_ms=%.4f "
                "latency_p90_ms=%.4f latency_p99_ms=%.4f "
                "latency_p99_all_ms=%.4f latency_max_ms=%.4f "
                "latency_samples=%zu tail_blocks=%zu\n",
                median(run.windowOkPerSec), quantile(latencyMs, 0.5),
                blockQuantile(latencyMs, 0.9), blockQuantile(latencyMs, 0.99),
                quantile(latencyMs, 0.99), quantile(latencyMs, 1.0),
                latencyMs.size(), latencyMs.size() / kTailBlock);

    Report report;
    report.add("cpu_us_per_op", median(run.windowCpuUsPerOk), "us");
    report.add("rss_peak_mb", rssMb, "MB");
    report.add("setup_s", median(setupCpu), "s");
    report.printTable();
    report.printResult(correct, run.sent, failed);
    return correct ? 0 : 1;
}
