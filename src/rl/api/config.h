/**
 * @file
 * EngineConfig: how the engine realizes and prices a race.
 *
 * One configuration object selects the execution backend (behavioral
 * race simulation, synthesized gate-level fabric, or the systolic
 * baseline), the Section 6 early-termination threshold, the
 * technology model used for energy/area estimates, and the batch
 * fabric pool.  Synthesized generalized cells count their delays with
 * Section 5's binary counter (core::DelayEncoding::Binary).
 */

#ifndef RACELOGIC_API_CONFIG_H
#define RACELOGIC_API_CONFIG_H

#include <cstddef>
#include <cstdint>

#include "rl/bio/score_matrix.h"
#include "rl/tech/cell_library.h"

namespace racelogic::api {

/** Execution strategy for RaceEngine. */
enum class BackendKind {
    /**
     * Behavioral race simulation (fast, exact, default): a dense
     * min-plus sweep of the arrival times for the grid family and
     * GraphAlign, one pass in topological order (core::raceDag) for
     * Dtw, DagPath and affine lattices.
     */
    Behavioral,

    /**
     * Additionally synthesize the netlist for the problem's shape and
     * run the race on real gates, cross-checking the behavioral
     * result.  Slower, but exercises the synthesizable artifact; the
     * per-shape fabric is cached and reused across solves.
     */
    GateLevel,

    /**
     * The Lipton-Lopresti linear systolic array -- the paper's
     * baseline.  Only pairwise alignment / threshold screening over
     * the Fig. 2b cost-matrix family is representable (and screening
     * cannot abort early: the array always runs to completion).
     */
    Systolic,
};

/** Human-readable backend name. */
const char *backendKindName(BackendKind backend);

/** Engine-wide configuration; value type with sane defaults. */
struct EngineConfig {
    BackendKind backend = BackendKind::Behavioral;

    /**
     * Engine-wide early-termination threshold (Section 6), applied to
     * every alignment-family solve: races costing more than this are
     * reported with accepted = false and their fabric-busy time
     * clamped to the threshold.  kScoreInfinity (default) disables
     * it.  ThresholdScreen problems carry their own threshold, which
     * takes precedence.
     */
    bio::Score threshold = bio::kScoreInfinity;

    /** Technology model pricing results; never null. */
    const tech::CellLibrary *library = &tech::CellLibrary::amis();

    /** Attach energy/area estimates to results (costs a little). */
    bool withEstimates = true;

    /**
     * Race ThresholdScreen solves with the threshold as the kernel's
     * early-termination horizon (Section 6): the behavioral
     * simulation stops at the threshold cycle exactly where the
     * hardware abort counter would, instead of draining the grid and
     * clamping afterwards.  Verdicts, scores, and busy cycles are
     * identical either way (arrival times are monotone), but the
     * simulation detail of a screen is truncated at the horizon:
     * rejected results report latencyCycles == threshold (the full
     * race never ran), and even accepted results' arrival grid /
     * cellsFired / events omit cells that would only have fired past
     * the threshold.  Disable for measurement runs that want fully
     * drained grids or the full-race latency of rejected candidates
     * (BatchOutcome::fullRaceCycles / speedup).
     */
    bool earlyTerminate = true;

    /** @name Batch fabric pool (solveBatch screening dispatch) @{ */

    /** Parallel fabrics instantiated by the batch dispatcher; each
     *  resets in core::BatchConfig's one cycle between comparisons. */
    size_t fabricCount = 4;

    /** @} */

    /**
     * Simulation worker threads for solveBatch()/screen() on the
     * Behavioral backend: grid-family batches are raced in parallel
     * on a util::ThreadPool, with results in input order and
     * bit-identical to a serial run (each comparison is independent
     * and the kernel is deterministic).  0 = one per CPU the process
     * may run on (util::ThreadPool::defaultThreadCount()); 1 =
     * serial.  Other backends and problem kinds always solve
     * serially.
     */
    size_t workerThreads = 0;

    /**
     * Plans retained in the shared plan cache before the least
     * recently used one is evicted.  0 disables caching entirely.
     */
    size_t planCacheCapacity = 64;

    /**
     * Largest (read+1) x (graph positions) + 1 product a GraphAlign
     * problem may race; 0 (default) = unlimited.  validate() /
     * trySolve() reject larger problems with a typed
     * ResourceExhausted instead of attempting an allocation that
     * scales as read x pangenome -- the serve daemon's defense
     * against one request OOM-killing the daemon.  The kernels' hard
     * 32-bit id-space bounds are enforced even when unlimited.
     */
    uint64_t maxProductStates = 0;
};

} // namespace racelogic::api

#endif // RACELOGIC_API_CONFIG_H
