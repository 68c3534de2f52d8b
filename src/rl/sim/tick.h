/**
 * @file
 * Simulation time.
 *
 * Race Logic is fundamentally about *when* signals arrive, so every
 * race kernel and gate-level simulator in the library reports its
 * arrivals in ticks.  Ticks are dimensionless; in synchronous Race
 * Logic one tick is one clock cycle, and the technology model
 * (rl/tech) converts cycles to nanoseconds per standard-cell library.
 */

#ifndef RACELOGIC_SIM_TICK_H
#define RACELOGIC_SIM_TICK_H

#include <cstdint>

namespace racelogic::sim {

/** Simulation time in abstract ticks (clock cycles when synchronous). */
using Tick = uint64_t;

/** Sentinel for "never happens" / unreachable. */
constexpr Tick kTickInfinity = ~Tick(0);

} // namespace racelogic::sim

#endif // RACELOGIC_SIM_TICK_H
