/**
 * @file
 * RaceResult: the one result shape every workload comes back in.
 *
 * Whatever the problem kind and backend, a solve yields the score in
 * the caller's own semantics, the raw race outcome (delay = converted
 * cost), the hardware latency, the arrival detail (grid or per-node),
 * and -- when the technology model applies -- energy/area/wall-time
 * estimates priced by rl/tech.
 */

#ifndef RACELOGIC_API_RESULT_H
#define RACELOGIC_API_RESULT_H

#include <optional>
#include <string>
#include <vector>

#include "rl/api/config.h"
#include "rl/api/problem.h"
#include "rl/core/race_grid.h"
#include "rl/core/temporal.h"
#include "rl/sim/tick.h"
#include "rl/util/grid.h"

namespace racelogic::api {

/** Technology-model estimates for one solve (rl/tech). */
struct HardwareEstimate {
    /** Race wall time under the library's race clock (ns). */
    double wallTimeNs = 0.0;

    /** Fabric area (um^2); 0 when no fabric model applies. */
    double areaUm2 = 0.0;

    /**
     * Eq. 3 energy (J) for the actual race duration: clock-pin
     * charging of the fabric's DFFs over latencyCycles plus the
     * per-comparison data term.  0 when no fabric model applies.
     */
    double energyJ = 0.0;

    /** @name Synthesized-netlist inventory (GateLevel backend only)
     * @{ */
    size_t gateCount = 0; ///< total gates in the raced netlist
    size_t dffCount = 0;  ///< DFF delay elements among them
    /** @} */
};

/** Outcome of one RaceEngine solve. */
struct RaceResult {
    ProblemKind kind = ProblemKind::PairwiseAlignment;
    BackendKind backend = BackendKind::Behavioral;

    /**
     * The answer in the caller's semantics: alignment score in the
     * supplied matrix's units, DTW distance, DAG path weight, ...
     * kScoreInfinity when the race did not complete (screen aborted /
     * sink unreachable).
     */
    bio::Score score = 0;

    /** The raw race outcome: sink arrival cycle (converted cost). */
    bio::Score racedCost = 0;

    /** Race duration in clock cycles. */
    sim::Tick latencyCycles = 0;

    /** Events processed by the behavioral simulation. */
    uint64_t events = 0;

    /** True iff the sink fired (false: aborted screen / unreachable). */
    bool completed = true;

    /**
     * True iff a RaceProblem::cancel token stopped the race before
     * the sink fired (deadline expiry, caller gave up).  A cancelled
     * result is a typed abort: completed = false, accepted = false,
     * score kScoreInfinity, latencyCycles the last cycle swept.
     */
    bool cancelled = false;

    /**
     * Threshold verdict: true unless an early-termination threshold
     * was in force and the race exceeded it.
     */
    bool accepted = true;

    /**
     * Cycles the fabric was actually busy: latencyCycles, clamped to
     * the threshold when one aborted the race (Section 6).
     */
    sim::Tick cyclesUsed = 0;

    /**
     * Grid-problem detail: firing cycle of every edit-graph node
     * (rows+1 x cols+1), kTickInfinity where the signal never
     * arrived.  Empty for non-grid kinds.
     */
    util::Grid<sim::Tick> arrival;

    /**
     * DAG-problem detail (Dtw / DagPath / AffineAlignment /
     * GraphAlign): firing time of every node.  For GraphAlign this
     * is the product DAG in AlignmentGraph::node() layout --
     * RaceEngine::graphMapping() reconstructs the (walk, CIGAR)
     * mapping from it without re-racing; rejected screening reads
     * drop it (no mapping exists, and screening batches must not
     * scale as reads x product size).  Empty for grid kinds.
     */
    std::vector<core::TemporalValue> nodeArrival;

    /** Nodes in the raced structure (grid cells or DAG nodes). */
    size_t nodes = 0;

    /** Nodes that fired during the race (the paper's activity story). */
    size_t cellsFired = 0;

    /** Technology-model pricing (EngineConfig::withEstimates). */
    std::optional<HardwareEstimate> estimate;

    /** Cells whose arrival time equals `cycle` (Fig. 6 wavefront). */
    size_t wavefrontSize(sim::Tick cycle) const;

    /**
     * Render the wavefront at `cycle` like Fig. 6: '#' fired, 'o'
     * firing now, '.' dark.  Empty string for non-grid kinds.
     */
    std::string wavefrontPicture(sim::Tick cycle) const;

    /**
     * Render the grid arrival table like Fig. 4c (one row per line,
     * right-aligned numbers, '.' for never-fired cells).  Empty
     * string for non-grid kinds.
     */
    std::string arrivalTable() const;

    /** One-line human-readable summary of the solve. */
    std::string describe() const;

    /**
     * The legacy core::RaceGridResult view of a grid solve (for
     * callers feeding rl/core analyses such as clock gating).
     */
    core::RaceGridResult gridDetail() const;
};

} // namespace racelogic::api

#endif // RACELOGIC_API_RESULT_H
