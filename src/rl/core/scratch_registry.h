/**
 * @file
 * Process-wide registry of thread-local scratch arenas, so a memory
 * budget can *see* and *reclaim* capacity that is otherwise pinned
 * inside worker threads.
 *
 * The race kernels keep their working rows in `static
 * thread_local` scratch so steady-state batches allocate nothing per
 * comparison.  The flip side: one oversized solve grows a worker's
 * arena to its high-water and nothing ever gives those bytes back --
 * invisible, unbounded-in-aggregate resident memory.  The registry
 * fixes both halves:
 *
 *  - every scratch site registers once per thread and *publishes* its
 *    resident byte count (a relaxed atomic, probed from the arena by
 *    the lease destructor while the owner still holds its lease --
 *    honest even when the solve threw) plus a last-use timestamp, so
 *    `totalResidentBytes()` is an honest daemon-wide sum with no
 *    locks on the solve path;
 *  - `shrinkIdle()` / `shrinkAll()` walk the entries and call each
 *    scratch's shrinkToFit -- but only under a per-entry try_lock, so
 *    a janitor thread can reclaim an *idle* worker's arena without
 *    ever blocking (or racing) a solve in progress.  The owning
 *    thread holds its entry's mutex for the duration of a solve via
 *    an RAII ScratchLease.
 *
 * Entry *slots* are never removed: thread_local destruction order at
 * process exit is unsequenced with respect to other statics, so the
 * registry leaks its (tiny) entry list deliberately -- the same
 * leak-on-exit idiom the telemetry lane registry uses.  But a dying
 * worker thread MUST retract its probe hook (the hook points into
 * its thread_local arena): ScratchRegistration's destructor does so
 * under the entry's mutex, leaving a zero-byte tombstone slot that
 * shrinkers skip and the next registration takes over, so the list
 * holds at most one slot per scratch site of the threads alive at
 * once, however many threads have come and gone.
 */

#ifndef RACELOGIC_CORE_SCRATCH_REGISTRY_H
#define RACELOGIC_CORE_SCRATCH_REGISTRY_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace racelogic::core {

/** One registered thread-local scratch arena. */
struct ScratchEntry {
    /** Held by the owning thread across each solve (ScratchLease);
     *  try_locked by shrinkers so they never block a solve. */
    std::mutex busy;

    /** Resident heap bytes, published after each solve (lease
     *  destructor) and after every shrink.  Relaxed: a stale read
     *  only skews a budget snapshot by one solve. */
    std::atomic<size_t> residentBytes{0};

    /** steady_clock::time_since_epoch of the last lease release, in
     *  nanoseconds; lets shrinkIdle() spare recently-active workers. */
    std::atomic<int64_t> lastUseNs{0};

    /** Probes the arena's resident byte count, first releasing its
     *  retained capacity when `shrink` is true.  Called only with
     *  `busy` held, so it never races the owner.  Must be bound to
     *  the owning thread's arena instance at registration time --
     *  shrinkers run on other threads. */
    std::function<size_t(bool shrink)> probe;
};

/**
 * RAII lease an owning thread holds across one solve: locks the
 * entry's mutex so shrinkers keep their hands off, and on destruction
 * probes the arena for its *actual* resident bytes and publishes them
 * with a last-use stamp.  Destructor-driven on purpose: a solve that
 * throws (serve workers tolerate throwing jobs) still publishes its
 * true high-water, not zero -- those bytes must stay visible to the
 * brownout budget.
 */
class ScratchLease
{
  public:
    /** Blocks only if a shrinker won the try_lock race this instant
     *  (shrinks are microseconds; solves are milliseconds). */
    explicit ScratchLease(ScratchEntry &entry) : entry(entry)
    {
        entry.busy.lock();
    }

    ScratchLease(const ScratchLease &) = delete;
    ScratchLease &operator=(const ScratchLease &) = delete;

    ~ScratchLease()
    {
        // `probe` cannot be retracted mid-lease (retraction takes
        // `busy`, which we hold); the null check covers only a lease
        // taken on an already-tombstoned slot.
        const size_t bytes = entry.probe ? entry.probe(false) : 0;
        entry.residentBytes.store(bytes, std::memory_order_relaxed);
        entry.lastUseNs.store(
            std::chrono::steady_clock::now().time_since_epoch().count(),
            std::memory_order_relaxed);
        entry.busy.unlock();
    }

  private:
    ScratchEntry &entry;
};

/**
 * Per-thread RAII handle on one registered scratch site.  Declare it
 * `static thread_local`, AFTER the scratch arena it covers, so its
 * destructor runs first at thread exit and retracts the shrink hook
 * while the arena is still alive.  The slot itself is leaked (see the
 * file comment); a retracted slot publishes zero bytes, is skipped
 * by shrinkers and is reused by the next registration.
 */
class ScratchRegistration
{
  public:
    explicit ScratchRegistration(std::function<size_t(bool)> probe);

    ScratchRegistration(const ScratchRegistration &) = delete;
    ScratchRegistration &operator=(const ScratchRegistration &) = delete;

    ~ScratchRegistration();

    ScratchEntry &entry() { return *slot; }

  private:
    ScratchEntry *slot;
};

/**
 * The process-wide registry.  registerEntry() is called once per
 * (thread, scratch site); snapshots and shrinks walk the entry list
 * under the registry mutex but touch each arena only via try_lock.
 */
class ScratchRegistry
{
  public:
    static ScratchRegistry &instance();

    /**
     * Register a scratch site, in a dead thread's tombstone slot when
     * there is one; the returned entry lives until process exit.
     * `probe(shrink)` must return the arena's resident byte count,
     * releasing its capacity first when `shrink` is true; the
     * registry publishes the returned count.
     */
    ScratchEntry &registerEntry(std::function<size_t(bool)> probe);

    /** Sum of every entry's published resident bytes. */
    size_t totalResidentBytes() const;

    /** Number of registered scratch sites (tests/metrics). */
    size_t entryCount() const;

    /**
     * Shrink every entry that is not mid-solve (try_lock) and whose
     * last use is at least `idle` ago.  Returns bytes reclaimed
     * (published deltas; an entry busy right now contributes 0 and
     * will be caught on a later pass).
     */
    size_t shrinkIdle(std::chrono::nanoseconds idle);

    /** Shrink every non-busy entry regardless of idle time
     *  (brownout's reclaim hammer).  Returns bytes reclaimed. */
    size_t
    shrinkAll()
    {
        return shrinkIdle(std::chrono::nanoseconds{0});
    }

  private:
    ScratchRegistry() = default;

    mutable std::mutex mutex;
    std::vector<ScratchEntry *> entries; ///< leaked on exit, by design
};

} // namespace racelogic::core

#endif // RACELOGIC_CORE_SCRATCH_REGISTRY_H
