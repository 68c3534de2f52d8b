/**
 * @file
 * Reference dynamic-programming aligners.
 *
 * These are the software implementations of the recurrences the
 * hardware accelerates (paper Eq. 1a/1b): Needleman-Wunsch global
 * alignment under either score semantics, Levenshtein distance, and
 * LCS.  They serve three roles:
 *
 *  1. correctness oracles for every hardware model in the library
 *     (race grid, generalized array, systolic array);
 *  2. the source of the full DP tables the paper prints (Fig. 4c) and
 *     the wavefront analysis (Fig. 6);
 *  3. a software baseline for the examples.
 */

#ifndef RACELOGIC_BIO_ALIGN_DP_H
#define RACELOGIC_BIO_ALIGN_DP_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/util/grid.h"

namespace racelogic::bio {

/** A global alignment and its statistics. */
struct Alignment {
    /** Optimal score (cost or similarity, per the matrix kind). */
    Score score = 0;

    /**
     * Edit-graph node path (i, j) from (0,0) to (|a|, |b|); i indexes
     * sequence `a` (rows), j indexes sequence `b` (columns).
     */
    std::vector<std::pair<uint32_t, uint32_t>> path;

    /** Aligned letter rows with '-' in gap positions (Fig. 1a/1c). */
    std::string alignedA;
    std::string alignedB;

    size_t matches = 0;
    size_t mismatches = 0;
    size_t indels = 0;
};

/**
 * Full (|a|+1) x (|b|+1) DP score table under `matrix`.
 *
 * Cost matrices minimize, similarity matrices maximize.  Forbidden
 * transitions (kScoreInfinity cost) are skipped; unreachable cells
 * hold kScoreInfinity.
 */
util::Grid<Score> dpTable(const Sequence &a, const Sequence &b,
                          const ScoreMatrix &matrix);

/** Optimal global alignment score only (O(min(n,m)) memory). */
Score globalScore(const Sequence &a, const Sequence &b,
                  const ScoreMatrix &matrix);

/** Optimal global alignment with deterministic traceback. */
Alignment globalAlign(const Sequence &a, const Sequence &b,
                      const ScoreMatrix &matrix);

/** Unit-cost Levenshtein distance (two-row DP). */
Score levenshtein(const Sequence &a, const Sequence &b);

/** Length of the longest common subsequence. */
size_t lcsLength(const Sequence &a, const Sequence &b);

/**
 * Verify that an Alignment is internally consistent with the inputs
 * and matrix: the path is a monotone edit-graph walk whose edge
 * weights sum to `score`.  Used by tests and by examples as a sanity
 * gate; returns a diagnostic string, empty when valid.
 */
std::string checkAlignment(const Sequence &a, const Sequence &b,
                           const ScoreMatrix &matrix,
                           const Alignment &alignment);

} // namespace racelogic::bio

#endif // RACELOGIC_BIO_ALIGN_DP_H
