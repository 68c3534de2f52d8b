/**
 * @file
 * KernelCounters: per-race profiling counters the wavefront kernels
 * and the compiled gate-level simulator already compute (or can
 * derive for free) while racing.
 *
 * Every kernel entry point that accepts one takes it as an optional
 * out-param (`KernelCounters *counters = nullptr`): a null pointer
 * costs nothing on the hot path -- the kernels only touch the struct
 * after the sweep, from values they tracked anyway -- and the raced
 * result is bit-identical either way.  Counters *accumulate* so one
 * struct can aggregate a whole batch; scratchHighWater is a running
 * maximum, everything else a running sum.
 *
 * The struct lives in rl/core (the lowest layer that races) so the
 * grid kernel, the fused graph kernel, and the circuit simulator can
 * all fill it without depending on rl/telemetry; the serve daemon
 * drains it into telemetry::Registry series per request.
 */

#ifndef RACELOGIC_CORE_KERNEL_COUNTERS_H
#define RACELOGIC_CORE_KERNEL_COUNTERS_H

#include <algorithm>
#include <cstdint>

namespace racelogic::core {

struct KernelCounters {
    /**
     * Scheduled arrivals: in-edges from a fired cell or state whose
     * arrival is within the horizon (behavioral kernels), or net
     * toggles (gate level).
     */
    uint64_t events = 0;

    /**
     * Simulated clock cycles the race spans: the latest scheduled
     * arrival + 1 (behavioral kernels), or the clock edges simulated
     * (gate level).
     */
    uint64_t bucketsDrained = 0;

    /**
     * Largest working set of any single race, in elements, not bytes:
     * the sweep's working-row size -- grid cells per row, or graph
     * positions per read row -- for the behavioral kernels, and the
     * net count for the gate-level simulator.
     */
    uint64_t scratchHighWater = 0;

    /**
     * Structure elements that fired: grid cells, product states, or
     * (gate-level) simulation lanes that reached the sink.
     */
    uint64_t lanesOccupied = 0;

    /** Races aborted by a cancel token (deadline, caller gave up). */
    uint64_t cancels = 0;

    /** Races stopped by the Section 6 horizon before the sink fired. */
    uint64_t horizonAborts = 0;

    /** Fold another race's counters into this aggregate. */
    void
    merge(const KernelCounters &other)
    {
        events += other.events;
        bucketsDrained += other.bucketsDrained;
        scratchHighWater =
            std::max(scratchHighWater, other.scratchHighWater);
        lanesOccupied += other.lanesOccupied;
        cancels += other.cancels;
        horizonAborts += other.horizonAborts;
    }
};

} // namespace racelogic::core

#endif // RACELOGIC_CORE_KERNEL_COUNTERS_H
