/**
 * @file
 * Tick-based discrete-event simulation kernel.
 *
 * Race Logic is fundamentally about *when* signals arrive, so the
 * natural simulation substrate is discrete-event.  One race schedules
 * its arrivals here: core::raceDagEventDriven(), the heap-scheduled
 * reference the bucketed and dense race kernels are tested and
 * benchmarked against.  The production kernels and the gate-level
 * simulators keep their own clocks.
 *
 * Ticks are dimensionless; in synchronous Race Logic one tick is one
 * clock cycle, and the technology model (rl/tech) converts cycles to
 * nanoseconds per standard-cell library.
 */

#ifndef RACELOGIC_SIM_EVENT_QUEUE_H
#define RACELOGIC_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

namespace racelogic::sim {

/** Simulation time in abstract ticks (clock cycles when synchronous). */
using Tick = uint64_t;

/** Sentinel for "never happens" / unreachable. */
constexpr Tick kTickInfinity = ~Tick(0);

/**
 * A priority queue of timestamped callbacks with deterministic
 * tie-breaking.
 *
 * Events scheduled for the same tick fire in (priority, insertion
 * order), which keeps simulations bit-reproducible regardless of the
 * underlying heap behaviour.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /** Number of events not yet fired. */
    size_t pending() const { return heap.size(); }

    /**
     * Pre-size the underlying storage for `capacity` pending events.
     * Callers that know the event population up front (a race
     * schedules at most one arrival per edge) avoid every heap
     * reallocation on the hot path.
     */
    void reserve(size_t capacity) { heap.reserve(capacity); }

    /**
     * Schedule a callback.
     *
     * @param when      Absolute tick; must be >= now().
     * @param callback  Work to run at that tick.
     * @param priority  Lower fires first within a tick.
     */
    void schedule(Tick when, Callback callback, int priority = 0);

    /** Schedule relative to now(). */
    void
    scheduleIn(Tick delay, Callback callback, int priority = 0)
    {
        schedule(currentTick + delay, std::move(callback), priority);
    }

    /**
     * Fire the single earliest event.
     * @return false if the queue was empty.
     */
    bool step();

    /** Run until the queue drains or `limit` events have fired. */
    size_t run(size_t limit = ~size_t(0));

    /** Run events with tick <= horizon. Returns events fired. */
    size_t runUntil(Tick horizon);

    /** Drop all pending events and reset time to zero. */
    void reset();

    /** Total events fired since construction/reset. */
    uint64_t fired() const { return firedCount; }

  private:
    struct Entry {
        Tick when;
        int priority;
        uint64_t sequence;
        Callback callback;
    };

    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.sequence > b.sequence;
        }
    };

    /** Earliest entry, valid only while the heap is non-empty. */
    const Entry &top() const { return heap.front(); }

    /** Remove and return the earliest entry by move (no copy). */
    Entry popTop();

    // An explicit binary heap (std::push_heap/std::pop_heap over a
    // vector) instead of std::priority_queue: it can be reserve()d,
    // and entries move out on pop instead of being copied off a
    // const top() -- each Entry carries a std::function whose copy
    // would heap-allocate.
    std::vector<Entry> heap;
    Tick currentTick = 0;
    uint64_t nextSequence = 0;
    uint64_t firedCount = 0;
};

} // namespace racelogic::sim

#endif // RACELOGIC_SIM_EVENT_QUEUE_H
