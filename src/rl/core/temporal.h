/**
 * @file
 * The temporal-value algebra at the heart of Race Logic.
 *
 * A TemporalValue is the arrival time of a rising edge -- the
 * paper's information representation: "a score of n is represented
 * by a Boolean signal '1' appearing at the output of the node n unit
 * delays after t".  Three operators are cheap in this encoding:
 *
 *  - firstArrival (min)  = OR gate,
 *  - lastArrival  (max)  = AND gate,
 *  - delayed(c)   (+c)   = c-deep DFF chain.
 *
 * Together with the never() element these form the min-plus
 * (tropical) and max-plus semirings, which is precisely why
 * shortest/longest-path DP maps onto races.  The algebraic laws are
 * property-tested in tests/core_temporal_test.cc.
 */

#ifndef RACELOGIC_CORE_TEMPORAL_H
#define RACELOGIC_CORE_TEMPORAL_H

#include <algorithm>
#include <initializer_list>

#include "rl/sim/tick.h"
#include "rl/util/logging.h"

namespace racelogic::core {

/** Arrival time of a signal's rising edge (or "never"). */
class TemporalValue
{
  public:
    /** A signal that never rises (missing edge / unreachable node). */
    static constexpr TemporalValue
    never()
    {
        return TemporalValue(sim::kTickInfinity);
    }

    /** A signal rising at absolute tick t. */
    static constexpr TemporalValue
    at(sim::Tick t)
    {
        return TemporalValue(t);
    }

    constexpr TemporalValue() : tick(sim::kTickInfinity) {}

    /** True iff the edge ever arrives. */
    constexpr bool fired() const { return tick != sim::kTickInfinity; }

    /** Arrival tick; asserts fired(). */
    sim::Tick
    time() const
    {
        rl_assert(fired(), "reading the time of a never-arriving edge");
        return tick;
    }

    /** Arrival tick or kTickInfinity; no assertion. */
    constexpr sim::Tick rawTime() const { return tick; }

    /**
     * Delay by c ticks (a c-deep DFF chain).  Delaying "never" stays
     * "never": a chain cannot conjure an edge.
     */
    constexpr TemporalValue
    delayed(sim::Tick c) const
    {
        return fired() ? TemporalValue(tick + c) : never();
    }

    constexpr bool
    operator==(const TemporalValue &other) const
    {
        return tick == other.tick;
    }

    /** Earlier edges order first; "never" is the maximum. */
    constexpr bool
    operator<(const TemporalValue &other) const
    {
        return tick < other.tick;
    }

  private:
    explicit constexpr TemporalValue(sim::Tick t) : tick(t) {}

    sim::Tick tick;
};

/** OR gate: the earliest of two edges. */
constexpr TemporalValue
firstArrival(TemporalValue a, TemporalValue b)
{
    return a < b ? a : b;
}

/**
 * AND gate: the latest of two edges.  If either input never fires
 * the output never fires -- the hardware waits forever.
 */
constexpr TemporalValue
lastArrival(TemporalValue a, TemporalValue b)
{
    if (!a.fired() || !b.fired())
        return TemporalValue::never();
    return a < b ? b : a;
}

/** N-ary firstArrival. */
inline TemporalValue
firstArrival(std::initializer_list<TemporalValue> values)
{
    TemporalValue best = TemporalValue::never();
    for (TemporalValue v : values)
        best = firstArrival(best, v);
    return best;
}

/** N-ary lastArrival. */
inline TemporalValue
lastArrival(std::initializer_list<TemporalValue> values)
{
    rl_assert(values.size() > 0, "lastArrival of nothing");
    TemporalValue worst = TemporalValue::at(0);
    for (TemporalValue v : values)
        worst = lastArrival(worst, v);
    return worst;
}

} // namespace racelogic::core

#endif // RACELOGIC_CORE_TEMPORAL_H
