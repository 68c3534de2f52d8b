/**
 * @file
 * The N x M unit-cell Race Logic sequence aligner (paper Fig. 4).
 *
 * Behavioral model: the edit graph of the two strings is raced
 * (OR-type) by the dense sweep kernel (rl/core/wavefront.h), which
 * computes each grid node's firing cycle row by row without ever
 * materializing the graph.  The firing-time table *is* the
 * paper's Fig. 4c ("the number inside each cell represents ... [the]
 * clock cycle at which signal '1' reached the output of an OR gate
 * of a particular unit cell"), and thresholding it by cycle yields
 * the Fig. 6 wavefront shades.
 *
 * The companion gate-level artifact, core::GridFabric, lives in
 * rl/core/grid_fabric.h and is checked against this model.
 */

#ifndef RACELOGIC_CORE_RACE_GRID_H
#define RACELOGIC_CORE_RACE_GRID_H

#include <string>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/sim/tick.h"
#include "rl/util/grid.h"

namespace racelogic::core {

class CancelToken;      // rl/core/cancel.h
struct RaceGridScratch; // rl/core/wavefront.h
struct KernelCounters;  // rl/core/kernel_counters.h

/** @name Arrival-grid renderers
 *  Shared by RaceGridResult and the api facade (which holds the same
 *  grid without the surrounding struct).
 * @{ */

/** Cells whose arrival time equals `cycle`. */
size_t wavefrontSizeOf(const util::Grid<sim::Tick> &arrival,
                       sim::Tick cycle);

/** Fig. 4c rendering of an arrival grid. */
std::string renderArrivalTable(const util::Grid<sim::Tick> &arrival);

/** Fig. 6 wavefront rendering at `cycle`. */
std::string renderWavefrontPicture(const util::Grid<sim::Tick> &arrival,
                                   sim::Tick cycle);

/** @} */

/** Result of one race-grid alignment. */
struct RaceGridResult {
    /** Alignment score = arrival cycle of the sink node. */
    bio::Score score = 0;

    /**
     * True iff the sink fired.  A horizon-bounded race (Section 6
     * abort) or a cancelled one can leave it false; score is then
     * kScoreInfinity and latencyCycles the cycle the sweep stopped.
     */
    bool completed = true;

    /** True iff a CancelToken stopped the sweep before the sink. */
    bool cancelled = false;

    /** Race duration in clock cycles (equals score for OR type). */
    sim::Tick latencyCycles = 0;

    /**
     * Firing cycle of every edit-graph node (rows+1 x cols+1);
     * kTickInfinity where the signal never arrives.  Empty (0 x 0)
     * for a score-only race.
     */
    util::Grid<sim::Tick> arrival;

    /** Number of grid nodes that fired during the race. */
    size_t cellsFired = 0;

    /** Events processed by the temporal simulation. */
    uint64_t events = 0;

    /** Cells whose arrival time equals `cycle` (wavefront members). */
    size_t wavefrontSize(sim::Tick cycle) const;

    /**
     * Render the arrival table like Fig. 4c (one row per line,
     * right-aligned numbers, '.' for never-fired cells).
     */
    std::string arrivalTable() const;

    /**
     * Render the wavefront at `cycle` like Fig. 6: '#' for cells
     * already fired, 'o' for cells firing exactly at `cycle`, '.'
     * for cells still dark.
     */
    std::string wavefrontPicture(sim::Tick cycle) const;
};

/**
 * Behavioral OR-type race-grid aligner for a cost matrix.
 *
 * The matrix must be Cost kind with all finite weights >= 1
 * (forbidden pairs allowed -- they become missing diagonal edges,
 * the paper's mismatch-to-infinity trick).
 */
class RaceGridAligner
{
  public:
    explicit RaceGridAligner(bio::ScoreMatrix matrix);

    /** Race the two sequences; fatal() on alphabet mismatch. */
    RaceGridResult align(const bio::Sequence &a,
                         const bio::Sequence &b) const;

    /**
     * Race with a Section 6 early-termination horizon: the race stops
     * at cycle `horizon` instead of draining the grid.  If the sink
     * has not fired by then, result.completed is false, score is
     * kScoreInfinity, and latencyCycles is the horizon -- the exact
     * behavior of the hardware abort counter.  align() is const and
     * allocation-local, so one aligner can race from many threads.
     */
    RaceGridResult align(const bio::Sequence &a, const bio::Sequence &b,
                         sim::Tick horizon) const;

    /**
     * Scratch-reuse overload for tight screening loops: the kernel's
     * working row lives in the caller's RaceGridScratch (one per
     * thread), so repeated aligns stop allocating sweep storage.
     * `cancel` (nullptr = never) aborts the sweep cooperatively,
     * polled once per row (see raceEditGrid).  `counters`
     * (nullptr = off) accumulates the kernel's profiling counts
     * without changing the raced result.  `arrivals = false` leaves
     * the arrival grid empty (a score-only race).
     */
    RaceGridResult align(const bio::Sequence &a, const bio::Sequence &b,
                         sim::Tick horizon, RaceGridScratch &scratch,
                         const CancelToken *cancel = nullptr,
                         KernelCounters *counters = nullptr,
                         bool arrivals = true) const;

    const bio::ScoreMatrix &matrix() const { return costMatrix; }

  private:
    bio::ScoreMatrix costMatrix;
};

} // namespace racelogic::core

#endif // RACELOGIC_CORE_RACE_GRID_H
