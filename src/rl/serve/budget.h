/**
 * @file
 * MemoryBudget: the daemon's latching brownout watermark.
 *
 * The serving stack's resident memory is dominated by two pools the
 * kernels grow on demand and never give back on their own: the
 * engine's plan cache (api::RaceEngine) and the per-thread kernel
 * scratch arenas (core::ScratchRegistry).  The budget turns their
 * combined byte count into a deterministic circuit breaker:
 *
 *     usage >= high  ->  brownout ENTERED  (latched)
 *     usage <= low   ->  brownout EXITED
 *
 * The gap between the watermarks is deliberate hysteresis: without
 * it, usage oscillating around one threshold would flap the daemon in
 * and out of brownout every janitor tick.  While latched, the server
 * halves admission depth, sheds batch-class work at admission with a
 * typed ResourceExhausted, and reclaims (scratch shrink-to-fit, LRU
 * plan eviction) until usage is back under `low` -- a graceful
 * degradation the load balancer can observe via Health and the
 * rl_serve_brownout gauge, instead of an OOM kill it cannot.
 *
 * observe() is called from one thread (the janitor); browned() is
 * readable from any (Health answers inline on connection threads).
 */

#ifndef RACELOGIC_SERVE_BUDGET_H
#define RACELOGIC_SERVE_BUDGET_H

#include <atomic>
#include <cstddef>

namespace racelogic::serve {

/** Latching high/low-watermark state machine over a byte budget. */
class MemoryBudget
{
  public:
    /** What one usage sample did to the latch. */
    enum class Transition {
        None,    ///< state unchanged
        Entered, ///< crossed the high watermark; brownout latched
        Exited,  ///< dropped to the low watermark; latch released
    };

    /**
     * @param highBytes  Brownout trips at this usage; 0 disables the
     *                   budget entirely (observe() never latches).
     * @param lowBytes   The latch releases at this usage; clamped to
     *                   highBytes.  0 picks 3/4 of highBytes.
     */
    explicit MemoryBudget(size_t highBytes, size_t lowBytes = 0);

    /** True when no budget was configured. */
    bool unlimited() const { return highWatermark == 0; }

    /** Feed one usage sample through the latch (janitor thread). */
    Transition observe(size_t usageBytes);

    /** Current latch state (safe from any thread). */
    bool browned() const
    {
        return latched.load(std::memory_order_acquire);
    }

    size_t high() const { return highWatermark; }
    size_t low() const { return lowWatermark; }

  private:
    const size_t highWatermark;
    const size_t lowWatermark;
    std::atomic<bool> latched{false};
};

} // namespace racelogic::serve

#endif // RACELOGIC_SERVE_BUDGET_H
