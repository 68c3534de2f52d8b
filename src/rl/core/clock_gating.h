/**
 * @file
 * Data-dependent clock gating along the wavefront (paper §4.3).
 *
 * Only cells on the propagating wavefront change state; cells ahead
 * of it are still all-zero and cells behind it have latched.  The
 * fabric is partitioned into m x m "multi-cell regions", each gated
 * as a unit by an H-tree leaf: a region's clock runs only while the
 * wavefront is inside it.  The analysis here turns a race's arrival
 * map into per-region clock windows and aggregate clock activity --
 * the C_clk term that Eq. 6 models and Fig. 5's "with gating" curves
 * plot.
 */

#ifndef RACELOGIC_CORE_CLOCK_GATING_H
#define RACELOGIC_CORE_CLOCK_GATING_H

#include "rl/circuit/sim_sync.h"
#include "rl/core/race_grid.h"
#include "rl/util/grid.h"

namespace racelogic::core {

/** Clock-enable window of one multi-cell region. */
struct RegionWindow {
    /** First cycle the region must be clocked (never = untouched). */
    sim::Tick start = sim::kTickInfinity;

    /** Last cycle the region must be clocked (inclusive). */
    sim::Tick end = 0;

    /** Cycles the region's gated clock runs. */
    sim::Tick
    activeCycles() const
    {
        return start == sim::kTickInfinity ? 0 : end - start + 1;
    }
};

/** Aggregate clock activity with and without gating. */
struct GatingAnalysis {
    size_t regionSide = 1;      ///< m
    size_t regions = 0;         ///< (ceil(N/m))^2 and friends
    uint64_t totalCycles = 0;   ///< race duration

    /** DFF-clock events without gating: dffs x totalCycles. */
    uint64_t ungatedDffCycles = 0;

    /** DFF-clock events with gating: sum over region windows. */
    uint64_t gatedDffCycles = 0;

    /** Gating-logic clock events: regions x totalCycles (Eq. 6's
     *  second term -- the H-tree leaves themselves stay clocked). */
    uint64_t gateOverheadCycles = 0;

    /** Per-region windows (region-grid coordinates). */
    util::Grid<RegionWindow> windows;

    /** Fraction of ungated clock activity that survives gating. */
    double
    clockActivityRatio() const
    {
        return ungatedDffCycles == 0
                   ? 0.0
                   : static_cast<double>(gatedDffCycles) /
                         static_cast<double>(ungatedDffCycles);
    }
};

/**
 * Analyze gated-clock activity for a completed race.
 *
 * A region containing unit cells must be clocked from one cycle
 * before its earliest member fires (its delay elements are then
 * capturing arriving inputs) through one cycle after its latest
 * member fires (the final state latches).  Regions the wavefront
 * never reaches -- e.g. under Section 6 early termination -- are
 * never clocked at all.
 *
 * @param result         Race outcome (arrival map).
 * @param region_side    m: the gated granule is m x m unit cells.
 * @param dffs_per_cell  Delay elements per unit cell (3 for Fig. 4b).
 */
GatingAnalysis analyzeClockGating(const RaceGridResult &result,
                                  size_t region_side,
                                  size_t dffs_per_cell = 3);

/** Measured clock activity of a gated fabric, split by structure. */
struct MeasuredGatedClocks {
    /** Boundary-frame DFF-cycles (the un-gated O(N) delay chains). */
    uint64_t boundaryDffCycles = 0;

    /** Cell-array DFF-cycles -- the gated C_clk term Eq. 6 models. */
    uint64_t cellDffCycles = 0;
};

/**
 * Split the clockedDffCycles a gate-level simulation measured on a
 * GridFabric::gated() fabric into the un-gated boundary frame (rows +
 * cols DFFs, clocked every cycle by construction) and the gated cell
 * array.  Works on both simulator kernels: `activity.cycles` is
 * lane-summed by the compiled simulator, so the boundary term scales
 * with the packed lane count automatically.
 */
MeasuredGatedClocks splitGatedClockActivity(
    const circuit::Activity &activity, size_t rows, size_t cols);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_CLOCK_GATING_H
