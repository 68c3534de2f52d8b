/**
 * @file
 * The daemon's bounded request queue with priority-aware admission.
 *
 * Connection threads push decoded requests; serve workers pop them
 * one at a time.  Admission is bounded on *outstanding*
 * work -- queued plus inflight -- so a saturated daemon rejects new
 * requests with a typed QueueFull verdict instead of buffering
 * without limit (the client can back off or resubmit elsewhere).
 *
 * A connection thread may also claim a solve slot and run a small job
 * itself (tryClaim()), but only when nothing is queued: a claim never
 * overtakes queued work.  Claimed and drained jobs share one count of
 * slots, the worker count, so at most that many solves run at once on
 * any thread.
 *
 * Every request carries a traffic class (Priority: batch / normal /
 * interactive) and the queue keeps one ledger slice per class:
 *
 *  - **drain order** is a weighted round-robin (interactive 4 :
 *    normal 2 : batch 1) carried over between drains: every non-empty
 *    class advances each round, so batch is starvation-free;
 *  - **at the bound**, a higher-class arrival evicts the newest
 *    queued job of the lowest class below it (shed-lowest-first); the
 *    victim is handed back to the caller, who sends it a typed
 *    QueueFull reply off the queue lock.  Same-or-lower-class
 *    arrivals bounce with QueueFull as before;
 *  - **in brownout** (memory high-watermark crossed), the effective
 *    depth is halved and batch-class arrivals are shed outright with
 *    a typed ResourceExhausted -- interactive latency is protected by
 *    shedding the work that can wait.
 *
 * All counters are kept under one mutex and snapshot as a unit, so
 * the metrics endpoint never reads a torn view: enqueued always
 * equals completed + queued + inflight + shedDeadline + shedEvicted
 * (and every bounced frame lands in exactly one rejected* counter).
 *
 * On a 1-CPU host the queue *is* the scaling story: saturation shows
 * up as high-water marks and QueueFull rejections, not wall clock --
 * see docs/performance.md.
 */

#ifndef RACELOGIC_SERVE_QUEUE_H
#define RACELOGIC_SERVE_QUEUE_H

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "rl/serve/wire.h"

namespace racelogic::serve {

/** One admitted request, ready to run on any worker. */
struct QueuedJob {
    /** Solve + respond closure; runs on the worker that pops it. */
    std::function<void()> run;

    /**
     * Absolute expiry instant (max() = none).  A job whose deadline
     * has passed when a worker pops it is shed -- onShed runs
     * instead of run -- so a backed-up queue never wastes a worker on
     * an answer nobody is waiting for.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();

    /**
     * Shed notification; sends the typed reply for the verdict the
     * queue shed this job with (DeadlineExceeded at drain time,
     * QueueFull when evicted by a higher class).  Runs off the queue
     * lock.  May be empty.
     */
    std::function<void(Status)> onShed;

    /** Traffic class (selects the per-class ledger slice). */
    Priority priority = Priority::Normal;
};

/** The admission ledger's names on the queue side: the Stats
 *  response's structs (wire.h), so a snapshot is sent as taken. */
using ClassStats = ClassStatsWire;
using QueueStats = QueueStatsWire;

/**
 * Bounded multi-producer, multi-consumer job queue: connection
 * threads push, serve workers drain.  Depth bounds queued + inflight:
 * a request is outstanding until it is retired (markDone(), or the
 * worker's next drain), so admission reflects work the daemon has
 * committed to, not just buffer occupancy.
 */
class RequestQueue
{
  public:
    /** Admission verdict for one push. */
    enum class Admit {
        Accepted,
        QueueFull,
        ShuttingDown,
        Brownout, ///< batch-class shed at admission (ResourceExhausted)
    };

    /**
     * @param depth          Admission bound on outstanding work.
     * @param brownoutDepth  Bound while the brownout latch is set;
     *                       0 picks half of `depth` (min 1), and any
     *                       explicit value is clamped to [1, depth].
     * @param workers        Solve slots: jobs inflight at once, drained
     *                       or claimed; 0 means `depth`, which the
     *                       admission bound already enforces.
     */
    explicit RequestQueue(size_t depth, size_t brownoutDepth = 0,
                          size_t workers = 0);

    /**
     * Admit or bounce one job; never blocks.  When the bound is hit
     * and `evicted` is non-null, a job of a strictly higher class may
     * still be admitted by evicting the newest queued job of the
     * lowest occupied class below it: the victim is moved into
     * `*evicted` and the caller must run `evicted->onShed(QueueFull)`
     * off the queue lock.  With `evicted` null no eviction happens.
     * With `wake` false an admitted job wakes no drain: the caller
     * calls wake() for it before it next blocks.
     */
    Admit tryPush(QueuedJob job, QueuedJob *evicted = nullptr,
                  bool wake = true);

    /** Wake up to `jobs` waiting drains, at most one per solve slot,
     *  for jobs pushed with `wake` false. */
    void wake(size_t jobs);

    /**
     * Claim a solve slot for a job the caller runs itself; never
     * blocks.  Granted only when the queue is not shutting down, the
     * job is not batch-class during brownout, nothing is queued in any
     * class, fewer than `workers` jobs are inflight, and outstanding
     * work is below the effective depth.  A claimed job is counted
     * enqueued and inflight in its class, as tryPush() and drain()
     * would count it; the caller retires it with markDone() for its
     * class.  A refusal counts nothing: push the job instead, and
     * tryPush() gives the verdict.
     */
    bool tryClaim(Priority priority);

    /**
     * Count a request that was bounced before it ever became a job
     * (Oversized at the frame layer, BadRequest at decode) so the
     * admission ledger covers every arriving frame.  `priority`
     * attributes class-scoped verdicts (QueueFull, brownout
     * ResourceExhausted) to the request's ledger slice.
     */
    void noteRejected(Status status, Priority priority = Priority::Normal);

    /**
     * Block until at least one job is queued and a solve slot is free
     * (or shutdown empties the queue), then
     * move out up to `max` jobs, never past the free slots, in
     * weighted round-robin order
     * (interactive 4 : normal 2 : batch 1, resuming the previous
     * drain's round; FIFO within a class).
     * The moved jobs are accounted inflight until retired.
     * Returns an empty vector only when shutting down with nothing
     * left.
     *
     * When `shed` is non-null, jobs whose deadline has already passed
     * are moved into it instead of the batch (counted shedDeadline,
     * never inflight); the caller runs their onShed closures off
     * the queue lock.  Shed jobs do not count against `max`.  With
     * `shed` null (the default) expired jobs drain normally.
     */
    std::vector<QueuedJob> drain(size_t max,
                                 std::vector<QueuedJob> *shed = nullptr);

    /**
     * A worker loop's drain: first retire `done` -- the jobs, per
     * class, the caller ran since its previous drain (markDone()'s
     * ledger step) -- then drain() into `batch` and `shed`, which are
     * cleared first and keep their capacity.  One lock acquisition
     * per job, and no allocation once the two vectors have grown.
     */
    void drain(size_t max, std::vector<QueuedJob> &batch,
               std::vector<QueuedJob> &shed,
               const std::array<uint64_t, kPriorityClasses> &done);

    /**
     * Retire `n` drained or claimed jobs once they have run, freeing
     * their slots.  The overload with per-class counts also advances
     * the class ledgers' completed columns.
     */
    void markDone(size_t n);
    void markDone(const std::array<uint64_t, kPriorityClasses> &byClass);

    /**
     * Flip the brownout latch.  While active, the effective admission
     * depth drops to the brownout depth and batch-class pushes are
     * shed with Admit::Brownout; flipping it off restores full depth.
     */
    void setBrownout(bool active);

    /** Whether the brownout latch is currently set. */
    bool brownout() const;

    /** Reject new pushes from now on; drain() keeps emptying. */
    void beginShutdown();

    /** Coherent counter snapshot (single mutex acquisition). */
    QueueStats stats() const;

    size_t depth() const { return capacity; }

  private:
    /**
     * One class's FIFO: a vector whose head moves, so pushes and pops
     * reuse its storage instead of allocating a block every few jobs
     * as std::deque does.  Popped slots stay moved-from (empty) until
     * a push finds the storage full and first drops them.  Reserved
     * at the queue's depth, which bounds a class's queued jobs, the
     * storage never grows.
     */
    class JobFifo
    {
      public:
        void reserve(size_t n) { jobs.reserve(n); }
        bool empty() const { return head == jobs.size(); }
        QueuedJob &front() { return jobs[head]; }
        QueuedJob &back() { return jobs.back(); }
        void push_back(QueuedJob job);
        void pop_front();
        void pop_back();

      private:
        std::vector<QueuedJob> jobs;
        size_t head = 0;
    };

    /** Admission bound under the current brownout state (locked). */
    size_t effectiveDepth() const;

    /** drain()'s body, `lock` held: wait, then move jobs out. */
    void drainLocked(std::unique_lock<std::mutex> &lock, size_t max,
                     std::vector<QueuedJob> &batch,
                     std::vector<QueuedJob> *shed);

    /** markDone()'s ledger step, the lock held. */
    void retireLocked(const std::array<uint64_t, kPriorityClasses> &done);

    /** After markDone(): release `lock`, then wake a drain if jobs
     *  are queued, since it may wait for the slot just freed. */
    void wakeForFreedSlot(std::unique_lock<std::mutex> &lock);

    const size_t capacity;
    const size_t brownoutCapacity;
    const size_t slots; ///< jobs inflight at once

    mutable std::mutex mutex;
    std::condition_variable readable; ///< jobs available / shutdown
    std::array<JobFifo, kPriorityClasses> jobs;
    QueueStats counters;
    bool shuttingDown = false;
    bool brownoutActive = false;
    /** The drain round's class and unspent quota; the first advance
     *  from (batch, 0) lands on interactive. */
    size_t roundClass = 0;
    size_t roundQuota = 0;
};

} // namespace racelogic::serve

#endif // RACELOGIC_SERVE_QUEUE_H
