/**
 * @file
 * RaceProblem: one description for every workload the library races.
 *
 * The paper's thesis is that MIN (OR), MAX (AND), ADD-CONSTANT (DFF
 * chain) and INHIBIT over arrival times form a single substrate that
 * many dynamic programs compile onto.  The API layer makes that
 * concrete: every supported workload -- pairwise alignment, affine-gap
 * alignment, dynamic time warping, DAG shortest/longest path,
 * generalized score-matrix DP, threshold screening, and
 * sequence-to-graph (pangenome) alignment -- is expressed
 * as one RaceProblem value and handed to api::RaceEngine.  Problem
 * construction performs no work; planning and execution happen inside
 * the engine, where problems over one matrix share a planned fabric.
 */

#ifndef RACELOGIC_API_PROBLEM_H
#define RACELOGIC_API_PROBLEM_H

#include <memory>
#include <optional>
#include <vector>

#include "rl/apps/dtw.h"
#include "rl/bio/affine.h"
#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/graph/dag.h"
#include "rl/graph/paths.h"
#include "rl/pangraph/variation_graph.h"

namespace racelogic::api {

/** The dynamic programs the engine knows how to race. */
enum class ProblemKind {
    PairwiseAlignment,     ///< global alignment over any ScoreMatrix
    AffineAlignment,       ///< Gotoh 3-layer lattice (open/extend gaps)
    Dtw,                   ///< dynamic time warping of two signals
    DagPath,               ///< shortest/longest path on an arbitrary DAG
    GeneralizedAlignment,  ///< Section 5 similarity-matrix DP (lambda)
    ThresholdScreen,       ///< Section 6 early-termination screening
    GraphAlign,            ///< read vs. pangenome variation graph
};

/** Human-readable kind name ("pairwise-alignment", ...). */
const char *problemKindName(ProblemKind kind);

/**
 * A declarative description of one race-logic workload.
 *
 * Build instances through the static factories only; which fields are
 * populated depends on the kind.  A RaceProblem is a value -- it owns
 * copies of its inputs and can outlive what it was built from.
 */
struct RaceProblem {
    ProblemKind kind = ProblemKind::PairwiseAlignment;

    /** @name Alignment-family fields
     *  PairwiseAlignment / AffineAlignment / GeneralizedAlignment /
     *  ThresholdScreen.
     * @{ */
    std::optional<bio::ScoreMatrix> matrix; ///< similarity or cost
    std::optional<bio::Sequence> a;         ///< first string (query)
    std::optional<bio::Sequence> b;         ///< second string (candidate)
    bio::AffineGapCosts gaps;               ///< AffineAlignment only
    bio::Score lambda = 1;                  ///< GeneralizedAlignment only
    bio::Score threshold = bio::kScoreInfinity; ///< ThresholdScreen only
    /** @} */

    /** @name Dtw fields @{ */
    std::vector<apps::Sample> x;
    std::vector<apps::Sample> y;
    /** @} */

    /** @name DagPath fields @{ */
    std::optional<graph::Dag> dag;
    std::vector<graph::NodeId> sources;
    graph::NodeId sink = graph::kNoNode;
    graph::Objective objective = graph::Objective::Shortest;
    /** @} */

    /**
     * GraphAlign only: the pangenome, shared so one loaded graph
     * serves many read problems without copying (and so the plan
     * cache can key on its topology, not the read).
     */
    std::shared_ptr<const pangraph::VariationGraph> vgraph;

    /**
     * Optional cooperative-cancellation token, polled by the
     * Behavioral sweep kernels (grid family and GraphAlign) once per
     * swept row.  Non-owning: the caller keeps
     * the token alive across the solve.  A cancelled race returns a
     * typed abort -- completed = false, cancelled = true, score
     * kScoreInfinity -- instead of a wasted full solve; a GateLevel
     * grid solve then skips its fabric replay.  Kinds that race on
     * other substrates (DagPath, Dtw, Affine lattices) and the
     * GateLevel GraphAlign product race ignore it.  Not part of the
     * plan key: cancellation is a run-time property, not hardware.
     */
    const core::CancelToken *cancel = nullptr;

    /**
     * Optional kernel profiling sink, filled by the racing kernels
     * after each sweep (rl/core/kernel_counters.h).  Non-owning: the
     * caller keeps it alive across the solve, and -- like `cancel` --
     * it is a run-time property, not part of the plan key.  A null
     * pointer costs nothing, and a non-null one cannot change the
     * raced result (counters are exported only after the drain).
     */
    core::KernelCounters *counters = nullptr;

    /**
     * Whether the solve returns its arrival detail: RaceResult::arrival
     * (grid kinds) or RaceResult::nodeArrival (GraphAlign).  False asks
     * for a score-only solve -- what race-logic hardware reports: the
     * sink's cycle and whether the abort counter tripped -- and the
     * Behavioral grid-family and GraphAlign kernels then neither
     * allocate nor fill the detail, which comes back empty; every
     * other result field is unchanged.  graphMapping(), traceback,
     * clock-gating analysis and arrivalTable() need it true.  Like
     * `cancel`, a run-time property, not part of the plan key.
     */
    bool arrivals = true;

    /**
     * Global alignment of (a, b) over `matrix`.  Cost matrices race
     * directly; similarity matrices (BLOSUM62, ...) are converted via
     * Section 5 and the score mapped back automatically.
     */
    static RaceProblem pairwiseAlignment(bio::ScoreMatrix matrix,
                                         bio::Sequence a, bio::Sequence b);

    /**
     * Affine-gap (Gotoh) alignment of (a, b): `costs` must be a
     * cost-kind substitution matrix (finite pair weights >= 1), gap
     * opening/extension from `gaps` (open >= extend >= 1).
     */
    static RaceProblem affineAlignment(bio::ScoreMatrix costs,
                                       bio::AffineGapCosts gaps,
                                       bio::Sequence a, bio::Sequence b);

    /** Dynamic time warping of two non-empty quantized signals. */
    static RaceProblem dtw(std::vector<apps::Sample> x,
                           std::vector<apps::Sample> y);

    /**
     * Shortest/longest path from `sources` (all at distance 0) to
     * `sink` on a weighted DAG (all weights >= 0).
     */
    static RaceProblem dagPath(graph::Dag dag,
                               std::vector<graph::NodeId> sources,
                               graph::NodeId sink,
                               graph::Objective objective);

    /**
     * Section 5 generalized DP: `similarity` is a Similarity-kind
     * matrix; `lambda` stretches the dynamic range before conversion.
     * The result reports the score in the original similarity units.
     */
    static RaceProblem generalizedAlignment(bio::ScoreMatrix similarity,
                                            bio::Sequence a,
                                            bio::Sequence b,
                                            bio::Score lambda = 1);

    /**
     * Section 6 screening: race `candidate` against `query` over
     * race-ready `costs`, aborting once `threshold` cycles elapse.
     * The verdict is exact (the race cost is monotone in time).
     */
    static RaceProblem thresholdScreen(bio::ScoreMatrix costs,
                                       bio::Score threshold,
                                       bio::Sequence query,
                                       bio::Sequence candidate);

    /**
     * Sequence-to-graph alignment: race `read` against a validated
     * acyclic variation graph.  Cost matrices race directly;
     * Similarity matrices are converted via Section 5 (`lambda`
     * scale) and require a rank-balanced graph.  A finite
     * `threshold` turns the solve into a Section 6 read-mapping
     * screen: the race aborts once `threshold` cycles elapse and the
     * read is rejected.  The engine caches one plan per (graph
     * topology, matrix) -- reads are runtime inputs.
     */
    static RaceProblem graphAlign(
        bio::ScoreMatrix matrix, bio::Sequence read,
        std::shared_ptr<const pangraph::VariationGraph> graph,
        bio::Score threshold = bio::kScoreInfinity,
        bio::Score lambda = 1);
};

} // namespace racelogic::api

#endif // RACELOGIC_API_PROBLEM_H
