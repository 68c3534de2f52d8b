/**
 * @file
 * Fallible validation of RaceProblems: the typed rule book behind
 * RaceEngine::trySolve() and the serve layer's admission control.
 *
 * Three tiers, by cost:
 *
 *  - checkShape():   O(1) field presence -- is every field the
 *                    problem's kind dereferences actually populated?
 *                    Nothing else (not even the engine's plan key)
 *                    is safe to compute before this passes.
 *  - checkBudgets(): O(1) resource admission -- the grid-cell /
 *                    product-state size of the race the problem asks
 *                    for, against caller-supplied ceilings plus the
 *                    kernels' hard 32-bit id-space bounds.  Parse-time
 *                    caps report Oversized; compute/memory budgets
 *                    report ResourceExhausted.
 *  - validateProblem(): the full deep check -- everything the fatal
 *                    solve path asserts, returned as a typed Status
 *                    instead.  Every delay the race would carry
 *                    (matrix and gap weights, DTW sample distances,
 *                    DAG edge weights) within [0 or 1,
 *                    core::kMaxWavefrontWeight], Section 5 conversion
 *                    preconditions, graph validity and rank balance,
 *                    DAG id ranges.  A problem this accepts cannot
 *                    trip an input-facing rl_fatal / rl_assert
 *                    anywhere down the solve path.
 *
 * The serve daemon calls checkBudgets() per decoded problem before
 * queueing (admission control) and RaceEngine::validate() before
 * racing; the anti-drift suite asserts that every wire-decodable
 * request passes validateProblem() -- one source of truth, enforced
 * both ways.
 */

#ifndef RACELOGIC_API_VALIDATE_H
#define RACELOGIC_API_VALIDATE_H

#include <cstdint>

#include "rl/api/problem.h"
#include "rl/util/status.h"

namespace racelogic::api {

/**
 * Resource ceilings for admission control; 0 = unlimited.  The hard
 * 32-bit id-space bounds of the kernels are enforced regardless.
 */
struct ProblemLimits {
    /**
     * Largest (|a|+1) x (|b|+1) lattice a grid-family, affine, or DTW
     * problem may race (DagPath counts its nodes).  Exceeding it is
     * an admission failure: ErrorCode::Oversized.
     */
    uint64_t maxGridCells = 0;

    /**
     * Largest (m+1) x (positions) + 1 product a GraphAlign problem
     * may race.  Exceeding it is a compute-budget failure:
     * ErrorCode::ResourceExhausted.
     */
    uint64_t maxProductStates = 0;
};

/**
 * Cells of the lattice the problem would race: (|a|+1) * (|b|+1) for
 * the grid family and affine (times 3 layers there, reported as base
 * cells), (|x|+1) * (|y|+1) for DTW, node count for DagPath, 0 for
 * GraphAlign (see productStates()).  Saturates at UINT64_MAX.
 * Precondition: checkShape() passed.
 */
uint64_t gridCells(const RaceProblem &problem);

/**
 * States of the (read x graph) product DAG a GraphAlign problem
 * would race: (|read|+1) * positions + 1; 0 for every other kind.
 * Saturates at UINT64_MAX.  Precondition: checkShape() passed.
 */
uint64_t productStates(const RaceProblem &problem);

/**
 * O(1) field-presence check: every optional the kind's solve path
 * (and the engine's plan key) dereferences must be populated.
 * InvalidArgument with the missing field's name otherwise.
 */
Status checkShape(const RaceProblem &problem);

/**
 * O(1) admission control: checkShape(), then the problem's race size
 * against `limits` and the kernels' hard 32-bit id-space bounds
 * (GraphAlign product states and scheduled-arrival count must fit
 * uint32 even when the limits are unlimited).  Grid-cell violations
 * are Oversized; product-state and id-space violations are
 * ResourceExhausted.
 */
Status checkBudgets(const RaceProblem &problem,
                    const ProblemLimits &limits);

/**
 * The full deep check: shape, budgets, then every input-facing
 * precondition of the solve path for the problem's kind, as typed
 * Status.  O(alphabet^2) for matrix validation, O(V+E) for graph /
 * DAG structure -- run it per plan build, not per cached-plan hit
 * (RaceEngine::validate() makes that split automatically).
 */
Status validateProblem(const RaceProblem &problem,
                       const ProblemLimits &limits = ProblemLimits{});

/**
 * The cheap per-request half of validateProblem(): runtime-input
 * checks that must hold even when a cached plan skips the deep half
 * -- sequence alphabets against the matrix, kind/matrix-kind
 * agreement, lambda and threshold rules, signal non-emptiness, DAG
 * id ranges.  Every check here is O(1) or O(alphabet).
 */
Status checkRuntimeInputs(const RaceProblem &problem);

} // namespace racelogic::api

#endif // RACELOGIC_API_VALIDATE_H
