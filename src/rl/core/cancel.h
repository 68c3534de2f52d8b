/**
 * @file
 * CancelToken: cooperative cancellation for the race kernels.
 *
 * The paper's Section 6 early-termination horizon already gives the
 * race kernels a bounded-abort shape: the sweep stops, the sink never
 * fires, and the caller gets a typed incomplete result instead of a
 * wasted full solve.  A CancelToken reuses exactly that plumbing for
 * *runtime* aborts -- a serving deadline expiring mid-race, a caller
 * giving up -- by letting the kernel poll one cheap predicate once
 * per swept row (never per cell).
 *
 * A token cancels for two reasons, checked in order:
 *
 *  - someone called cancel() (one relaxed atomic flag), or
 *  - a construction-time steady_clock deadline has passed.
 *
 * Deadline expiry latches the flag, so after the first positive check
 * every subsequent cancelled() is a single relaxed load -- the clock
 * is read at most once per poll until expiry and never after.
 *
 * Tokens are passed by non-owning const pointer (nullptr = never
 * cancels) so the hot paths stay free of shared_ptr traffic and the
 * default behavior of every kernel is bit-identical to the
 * pre-cancellation code.
 */

#ifndef RACELOGIC_CORE_CANCEL_H
#define RACELOGIC_CORE_CANCEL_H

#include <atomic>
#include <chrono>

namespace racelogic::core {

class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** A token that cancels only via cancel(). */
    CancelToken() = default;

    /** A token that also cancels once `deadline` passes. */
    explicit CancelToken(Clock::time_point deadline) : expiry(deadline) {}

    /** Request cancellation (safe from any thread). */
    void
    cancel() const noexcept
    {
        flag.store(true, std::memory_order_relaxed);
    }

    /**
     * True once cancelled or past the deadline.  Monotone: after the
     * first true, every later call is true (expiry latches the flag).
     */
    bool
    cancelled() const noexcept
    {
        if (flag.load(std::memory_order_relaxed))
            return true;
        if (expiry == Clock::time_point::max())
            return false;
        if (Clock::now() < expiry)
            return false;
        flag.store(true, std::memory_order_relaxed);
        return true;
    }

    /** The deadline, or time_point::max() for flag-only tokens. */
    Clock::time_point deadline() const noexcept { return expiry; }

  private:
    mutable std::atomic<bool> flag{false};
    Clock::time_point expiry = Clock::time_point::max();
};

} // namespace racelogic::core

#endif // RACELOGIC_CORE_CANCEL_H
