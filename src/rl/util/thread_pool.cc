#include "rl/util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

namespace racelogic::util {

namespace {

/** This process's cgroup v2 directory (the "0::" line of
 *  /proc/self/cgroup), or the cgroup root when there is none. */
std::string
cgroupDir()
{
    std::ifstream in("/proc/self/cgroup");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("0::", 0) == 0)
            return "/sys/fs/cgroup" + line.substr(3);
    return "/sys/fs/cgroup";
}

} // namespace

std::optional<size_t>
ThreadPool::cpuMaxLimit(const std::string &line)
{
    std::istringstream in(line);
    std::string quotaText, rest;
    uint64_t period = 0;
    if (!(in >> quotaText >> period) || period == 0 || (in >> rest))
        return std::nullopt;
    uint64_t quota = 0;
    const char *end = quotaText.data() + quotaText.size();
    auto [parsed, error] = std::from_chars(quotaText.data(), end, quota);
    if (error != std::errc() || parsed != end || quota == 0)
        return std::nullopt; // "max" (unlimited) or garbage
    return static_cast<size_t>((quota + period - 1) / period);
}

size_t
ThreadPool::defaultThreadCount()
{
    size_t cpus = std::thread::hardware_concurrency();
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        cpus = static_cast<size_t>(CPU_COUNT(&set));
    std::ifstream cpuMax(cgroupDir() + "/cpu.max");
    std::string line;
    if (std::getline(cpuMax, line))
        if (std::optional<size_t> limit = cpuMaxLimit(line))
            cpus = std::min(cpus, *limit);
    return std::max<size_t>(cpus, 1);
}

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workerCount = threads;
    workers.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        shutdown = true;
    }
    wakeWorkers.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        ++parked;
        if (parked == workerCount)
            allParked.notify_one();
        wakeWorkers.wait(lock,
                         [&] { return shutdown || generation != seen; });
        --parked;
        if (shutdown)
            return;
        seen = generation;
        const std::function<void(size_t)> *fn = body;
        const size_t total = count;

        lock.unlock();
        size_t done = 0;
        std::exception_ptr firstHere;
        for (;;) {
            size_t i = nextIndex.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                break;
            try {
                (*fn)(i);
            } catch (...) {
                // Record and keep claiming: the batch's completion
                // accounting must reach `count` even on failure, and
                // sibling indices may legitimately succeed.
                if (!firstHere)
                    firstHere = std::current_exception();
            }
            ++done;
        }
        lock.lock();

        if (firstHere && !batchException)
            batchException = firstHere;
        completed += done;
        if (completed == count)
            batchDone.notify_one();
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &loopBody)
{
    if (n == 0)
        return;

    // One batch in flight at a time: a second caller waits its turn
    // here rather than clobbering the published batch state.
    std::lock_guard<std::mutex> turn(callerMutex);
    std::unique_lock<std::mutex> lock(mutex);
    // Publish the batch only once every worker is back in wait():
    // a straggler from the previous batch could otherwise claim the
    // reset index counter against its stale body pointer.
    allParked.wait(lock, [&] { return parked == workerCount; });
    body = &loopBody;
    count = n;
    completed = 0;
    batchException = nullptr;
    nextIndex.store(0, std::memory_order_relaxed);
    ++generation;
    wakeWorkers.notify_all();

    batchDone.wait(lock, [&] { return completed == count; });
    body = nullptr;
    if (batchException) {
        std::exception_ptr rethrow = batchException;
        batchException = nullptr;
        lock.unlock();
        std::rethrow_exception(rethrow);
    }
}

} // namespace racelogic::util
