/**
 * @file
 * raceserved as a child process: spawn, readiness, /proc readings,
 * SIGTERM drain, and the Stats + Metrics scrapes whose deltas give the
 * daemon-side numbers of a load phase.
 */

#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include <chrono>
#include <string>
#include <vector>

#include <sys/types.h>

#include "rl/serve/client.h"
#include "rl/telemetry/registry.h"

namespace perfbench {

namespace rl = racelogic;
using Clock = std::chrono::steady_clock;

/** Path of the raceserved binary this benchmark was built with. */
const char *daemonBinary();

/**
 * One raceserved process, started in the current directory with its
 * output in `logPath`.  The destructor kills and reaps a daemon that
 * was not terminated, so no child outlives the benchmark.
 */
class Daemon
{
  public:
    Daemon(const std::vector<std::string> &args, const std::string &logPath);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Probe Health on `socket` until it answers Ready.  Returns the
     * seconds from spawn to that answer, or a negative value when the
     * daemon exits or `timeoutSec` passes first.
     */
    double waitReady(const std::string &socket, double timeoutSec);

    /**
     * CPU seconds the daemon's threads had run when it first answered
     * Ready (0 before waitReady() succeeds).  Unlike the wall time, this
     * excludes time the host gave to other tenants.
     */
    double readyCpuSeconds() const { return readyCpu; }

    /** User + system CPU seconds the daemon has used so far. */
    double cpuSeconds() const;

    /** Peak resident set (VmHWM) in MiB. */
    double peakRssMb() const;

    /** SIGTERM, wait for the drain; the exit code (-1 on a signal). */
    int terminate();

  private:
    /** Whether the daemon has installed its SIGTERM handler. */
    bool catchesSigterm() const;

    /** Run time of the daemon's live threads (schedstat), in seconds. */
    double threadCpuSeconds() const;

    double readyCpu = 0.0;

    pid_t pid = -1;
    Clock::time_point spawned;
};

/** The daemon's ledger and telemetry at one instant. */
struct Scrape {
    rl::serve::QueueStatsWire queue;
    std::vector<rl::serve::ShardStatsWire> shards;
    rl::telemetry::Snapshot metrics;
};

/**
 * Poll Stats over an idle connection until the daemon has retired
 * every request it admitted; the last Stats reply in `stats`.  False on
 * error or if it never settles.  A reply reaches the client before the
 * daemon stamps the request's write, records its trace and retires it.
 */
bool settle(rl::serve::ServeClient &client, rl::serve::Response &stats);

/** settle(), then fetch Metrics: a coherent ledger + telemetry pair. */
bool scrape(rl::serve::ServeClient &client, Scrape &out);

/** after - before of one counter series (0 when absent). */
uint64_t counterDelta(const Scrape &before, const Scrape &after,
                      const char *name);

/** after - before of one histogram series, bucket by bucket. */
rl::telemetry::HistogramSnapshot histogramDelta(const Scrape &before,
                                                const Scrape &after,
                                                const char *name);

/** Mean of a histogram delta (0 when it holds no samples). */
double mean(const rl::telemetry::HistogramSnapshot &h);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
