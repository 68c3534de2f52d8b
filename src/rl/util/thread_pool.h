/**
 * @file
 * A small fixed-size worker pool for embarrassingly parallel batches.
 *
 * The race-logic workloads that want threads are batch shaped: many
 * independent comparisons, each touching only its own state, with the
 * results collected by input index.  parallelFor() covers exactly
 * that: workers pull indices off a shared atomic counter, so the
 * schedule is dynamic but the output is deterministic -- result i is
 * whatever body(i) computes, regardless of which thread ran it or in
 * what order.  api::RaceEngine uses this to race solveBatch()/
 * screen() comparisons across cores before handing the cycle counts
 * to the core::batch fabric-pool scheduler.
 */

#ifndef RACELOGIC_UTIL_THREAD_POOL_H
#define RACELOGIC_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace racelogic::util {

/**
 * N long-lived worker threads executing parallelFor() bodies.
 *
 * The pool is cheap to keep around (idle workers block on a condition
 * variable) and is meant to be constructed once per engine, not per
 * batch.  parallelFor() may be called repeatedly and from several
 * threads at once -- concurrent calls take turns -- but calls do not
 * nest.
 */
class ThreadPool
{
  public:
    /**
     * Spawn `threads` workers; 0 picks defaultThreadCount().  The
     * worker count is the batch parallelism -- the calling thread
     * only coordinates.
     */
    explicit ThreadPool(size_t threads = 0);

    /** Joins all workers (any running parallelFor completes first). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker threads owned by the pool. */
    size_t threadCount() const { return workerCount; }

    /**
     * Run body(0) .. body(count-1), distributing indices over the
     * workers; returns when every index has completed.  Bodies must
     * not call back into the pool.  If any body throws, every index
     * still completes (later bodies keep running) and the *first*
     * exception is rethrown here on the calling thread -- a throwing
     * body terminates the batch's caller, never the process.
     */
    void parallelFor(size_t count,
                     const std::function<void(size_t)> &body);

    /**
     * Threads the process can actually run at once: the CPUs in its
     * sched_getaffinity() mask, capped by its cgroup v2 cpu.max
     * quota, floor 1.  hardware_concurrency() counts the host's CPUs
     * and so oversubscribes a container pinned or throttled to fewer.
     */
    static size_t defaultThreadCount();

    /**
     * The CPU count a cgroup v2 cpu.max line ("QUOTA PERIOD") allows:
     * ceil(QUOTA / PERIOD), or nullopt when the quota is "max"
     * (unlimited) or the line is malformed.
     */
    static std::optional<size_t> cpuMaxLimit(const std::string &line);

  private:
    void workerLoop();

    // Fixed before any worker starts; workers must not touch the
    // `workers` vector itself (it is still growing as they spawn).
    size_t workerCount = 0;
    std::vector<std::thread> workers;

    /** Serializes concurrent parallelFor() callers. */
    std::mutex callerMutex;

    std::mutex mutex;
    std::condition_variable wakeWorkers; ///< new batch / shutdown
    std::condition_variable allParked;   ///< every worker back in wait
    std::condition_variable batchDone;   ///< all indices completed

    // Current-batch state, guarded by `mutex` except for the index
    // counter, which workers claim lock-free.  A new batch is only
    // published while every worker is parked, so no worker can hold a
    // stale body pointer or index bound across batches.
    const std::function<void(size_t)> *body = nullptr;
    size_t count = 0;
    std::atomic<size_t> nextIndex{0};
    size_t completed = 0;
    size_t parked = 0;
    uint64_t generation = 0;
    bool shutdown = false;

    /** First exception thrown by a body this batch (rethrown by
     *  parallelFor); later exceptions in the same batch are dropped. */
    std::exception_ptr batchException;
};

} // namespace racelogic::util

#endif // RACELOGIC_UTIL_THREAD_POOL_H
