#include "daemon.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

namespace {

/** A daemon that has not drained after this long is killed. */
constexpr double kDrainTimeoutSec = 30.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Reap `pid` if it has exited; its wait status in `status`. */
bool
reaped(pid_t pid, int &status)
{
    pid_t got;
    do {
        got = ::waitpid(pid, &status, WNOHANG);
    } while (got < 0 && errno == EINTR);
    return got == pid;
}

} // namespace

const char *
daemonBinary()
{
    return PERFBENCH_DAEMON;
}

Daemon::Daemon(const std::vector<std::string> &args,
               const std::string &logPath)
{
    std::vector<std::string> argvStore = {daemonBinary()};
    argvStore.insert(argvStore.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : argvStore)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    const int log =
        ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (log < 0) {
        std::perror("perfbench: open daemon log");
        std::exit(1);
    }
    spawned = Clock::now();
    pid = ::fork();
    if (pid < 0) {
        std::perror("perfbench: fork");
        std::exit(1);
    }
    if (pid == 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(log);
}

Daemon::~Daemon()
{
    if (pid <= 0)
        return;
    ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
}

double
Daemon::waitReady(const std::string &socket, double timeoutSec)
{
    for (;;) {
        int status = 0;
        if (pid <= 0 || reaped(pid, status)) {
            pid = -1;
            return -1.0;
        }
        rl::serve::ServeClient probe =
            rl::serve::ServeClient::overUnix(socket, 100);
        rl::serve::Response health;
        if (probe.ok() && probe.submitHealth(0) &&
            probe.receive(health, rl::serve::deadlineAfterMs(1000)) ==
                rl::serve::IoStatus::Ok &&
            health.health &&
            health.health->state == rl::serve::HealthState::Ready) {
            const double wall = secondsSince(spawned);
            readyCpu = threadCpuSeconds(); // the probe's thread included
            return wall;
        }
        if (secondsSince(spawned) > timeoutSec)
            return -1.0;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

double
Daemon::cpuSeconds() const
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    const size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 1));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int n = 3; n <= 15 && fields >> field; ++n) {
        if (n == 14)
            utime = std::strtoull(field.c_str(), nullptr, 10);
        if (n == 15)
            stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
Daemon::threadCpuSeconds() const
{
    const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
    double ns = 0.0;
    for (const auto &task : std::filesystem::directory_iterator(tasks)) {
        std::ifstream in(task.path() / "schedstat");
        unsigned long long runNs = 0;
        if (in >> runNs)
            ns += static_cast<double>(runNs);
    }
    return ns * 1e-9;
}

double
Daemon::peakRssMb() const
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

bool
Daemon::catchesSigterm() const
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("SigCgt:", 0) == 0)
            return (std::strtoull(line.c_str() + 7, nullptr, 16) >>
                    (SIGTERM - 1)) &
                   1;
    return false;
}

int
Daemon::terminate()
{
    if (pid <= 0)
        return -1;
    // raceserved answers Health before it installs its SIGTERM handler,
    // and a SIGTERM that lands between its stop-flag check and pause()
    // is not noticed until the next signal.  So wait for the handler,
    // then repeat the SIGTERM until the daemon exits; a repeat during
    // the drain only sets the flag again.
    const Clock::time_point t0 = Clock::now();
    while (!catchesSigterm() && secondsSince(t0) < kDrainTimeoutSec)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    int status = 0;
    for (int tick = 0; !reaped(pid, status); ++tick) {
        if (secondsSince(t0) > kDrainTimeoutSec) {
            std::fprintf(stderr, "perfbench: daemon did not drain\n");
            return -1; // the destructor kills and reaps it
        }
        if (tick % 100 == 0)
            ::kill(pid, SIGTERM);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool
settle(rl::serve::ServeClient &client, rl::serve::Response &stats)
{
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        if (!client.submitStats(0) || !client.receive(stats) ||
            stats.status != rl::serve::Status::Ok || !stats.queueStats)
            return false;
        const rl::serve::QueueStatsWire &q = *stats.queueStats;
        if (q.completed == q.enqueued && q.inflight == 0 && q.queued == 0)
            return true;
        if (secondsSince(t0) > kDrainTimeoutSec)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

bool
scrape(rl::serve::ServeClient &client, Scrape &out)
{
    rl::serve::Response stats, metrics;
    if (!settle(client, stats))
        return false;
    if (!client.submitMetrics(0) || !client.receive(metrics) ||
        metrics.status != rl::serve::Status::Ok || !metrics.metrics)
        return false;
    out.queue = *stats.queueStats;
    out.shards = std::move(stats.shardStats);
    out.metrics = std::move(*metrics.metrics);
    return true;
}

uint64_t
counterDelta(const Scrape &before, const Scrape &after, const char *name)
{
    const rl::telemetry::CounterSnapshot *a = after.metrics.counter(name);
    const rl::telemetry::CounterSnapshot *b = before.metrics.counter(name);
    if (!a)
        return 0;
    return a->value - (b ? b->value : 0);
}

rl::telemetry::HistogramSnapshot
histogramDelta(const Scrape &before, const Scrape &after, const char *name)
{
    rl::telemetry::HistogramSnapshot out;
    out.name = name;
    const rl::telemetry::HistogramSnapshot *a =
        after.metrics.histogram(name);
    const rl::telemetry::HistogramSnapshot *b =
        before.metrics.histogram(name);
    if (!a)
        return out;
    out.buckets = a->buckets;
    out.count = a->count;
    out.sum = a->sum;
    if (b) {
        for (size_t i = 0; i < out.buckets.size() && i < b->buckets.size();
             ++i)
            out.buckets[i] -= b->buckets[i];
        out.count -= b->count;
        out.sum -= b->sum;
    }
    return out;
}

double
mean(const rl::telemetry::HistogramSnapshot &h)
{
    return h.count == 0 ? 0.0
                        : static_cast<double>(h.sum) /
                              static_cast<double>(h.count);
}

} // namespace perfbench
