/**
 * @file
 * Score matrices: the edge-weight tables of the edit graph.
 *
 * A score matrix assigns a weight to every edit operation: a pair
 * entry weights the diagonal (match/substitute) edge for a symbol
 * pair, and a gap entry weights the horizontal/vertical (indel) edge
 * for the symbol being skipped.  Two semantics exist (paper Fig. 2):
 *
 *  - Similarity (longest path / AND-type race): larger is better.
 *    Fig. 2a, BLOSUM62, PAM250.
 *  - Cost (shortest path / OR-type race): smaller is better.
 *    Fig. 2b and everything the synthesized design runs.
 *
 * An infinite cost means the edit is forbidden; Race Logic realizes
 * that as a *missing edge* ("truly infinite ... can be implemented as
 * a missing edge").
 */

#ifndef RACELOGIC_BIO_SCORE_MATRIX_H
#define RACELOGIC_BIO_SCORE_MATRIX_H

#include <cstdint>
#include <string>
#include <vector>

#include "rl/bio/alphabet.h"
#include "rl/util/memo.h"

namespace racelogic::bio {

/** Edit-operation weight. */
using Score = int64_t;

/** Forbidden edit (missing edge in the race circuit). */
constexpr Score kScoreInfinity = INT64_MAX / 4;

/** Whether bigger or smaller scores are better. */
enum class ScoreKind {
    Similarity, ///< maximize; longest path; AND-type race
    Cost,       ///< minimize; shortest path; OR-type race
};

/**
 * Dense (Nss+1) x (Nss+1) edit-weight table (last index = gap).
 *
 * Value type.  All factory matrices are symmetric, but the class
 * supports asymmetric substitution weights.  minFinite(), maxFinite()
 * and fingerprint() scan the table once and are memoized until the
 * next setter (util::Memo), so a const matrix may be read from several
 * threads at once.
 */
class ScoreMatrix
{
  public:
    /** All-zero matrix of the given kind over `alphabet`. */
    ScoreMatrix(Alphabet alphabet, ScoreKind kind);

    /** @name Factories from the paper
     * @{ */

    /** Fig. 2a: DNA similarity; match = 1, mismatch = 0, gap = 0. */
    static ScoreMatrix dnaLongestPath();

    /** Fig. 2b: DNA cost; match = 1, mismatch = 2, indel = 1. */
    static ScoreMatrix dnaShortestPath();

    /**
     * The synthesized design's simplification of Fig. 2b: mismatch
     * weight raised from 2 to infinity (missing diagonal edge).  The
     * paper argues, and our tests verify, that this is score-
     * equivalent to Fig. 2b: a mismatch (cost 2) can always be
     * re-expressed as delete+insert (cost 1+1).
     */
    static ScoreMatrix dnaShortestPathInfMismatch();

    /** BLOSUM62 amino-acid similarity (Fig. 2c); linear gap = -4. */
    static ScoreMatrix blosum62();

    /** PAM250 amino-acid similarity; linear gap = -8. */
    static ScoreMatrix pam250();

    /** @} */

    /** Classic Levenshtein costs: match 0, mismatch 1, indel 1. */
    static ScoreMatrix unitEdit(const Alphabet &alphabet);

    /** Uniform matrix: every pair/gap weight = `value`. */
    static ScoreMatrix uniform(const Alphabet &alphabet, ScoreKind kind,
                               Score value);

    const Alphabet &alphabet() const { return alphabet_; }
    ScoreKind kind() const { return kind_; }
    bool isCost() const { return kind_ == ScoreKind::Cost; }

    /** Diagonal-edge weight for aligning symbols a and b. */
    Score
    pair(Symbol a, Symbol b) const
    {
        if (a >= alphabet_.size() || b >= alphabet_.size()) [[unlikely]]
            symbolOutOfRange();
        return table[index(a, b)];
    }

    /** Indel-edge weight for skipping symbol `s`. */
    Score
    gap(Symbol s) const
    {
        if (s >= alphabet_.size()) [[unlikely]]
            symbolOutOfRange();
        return table[index(s, gapSlot())];
    }

    void setPair(Symbol a, Symbol b, Score value);
    void setPairSymmetric(Symbol a, Symbol b, Score value);
    void setGap(Symbol s, Score value);
    void setAllGaps(Score value);

    /** True iff pair(a,b) == pair(b,a) for all symbols. */
    bool isSymmetric() const;

    /** Smallest finite entry over all pair and gap weights. */
    Score minFinite() const;

    /** Largest finite entry over all pair and gap weights. */
    Score maxFinite() const;

    /** True iff some pair entry is kScoreInfinity (Cost kind only). */
    bool hasForbiddenPairs() const;

    /**
     * Dynamic range N_DR as defined in Section 5: the largest finite
     * weight of a cost matrix whose smallest weight is >= 1.  This
     * sizes the saturating counter of the generalized cell.
     */
    Score dynamicRange() const;

    /**
     * Race-readiness validation, the one rule book shared by the
     * engine's problem validation and serve/wire.cc's request decode:
     * the matrix must be Cost kind, every gap weight finite and >= 1,
     * every pair weight >= 1 with kScoreInfinity (a missing diagonal
     * edge) allowed only when `allowForbiddenPairs`, and every finite
     * weight <= `maxWeight` when maxWeight != 0 (the race's delay
     * cap or the wire's).  Returns InvalidArgument describing the
     * first violation.
     */
    Status validateRaceReady(Score maxWeight = 0,
                             bool allowForbiddenPairs = true) const;

    /**
     * The identity of a score matrix: the same kind, the same letters
     * in the same order, and every pair and gap weight equal.  The
     * api plan cache confirms each hit with it: a plan's racers
     * encode the letters, so weights over other letters are another
     * plan.
     */
    bool operator==(const ScoreMatrix &other) const;

    /**
     * FNV-1a over kind, letters, and every pair/gap weight: a hash of
     * operator==, so equal matrices share it.  Used by the api
     * plan-cache keys and by CompiledGraph to pin the matrix its
     * hoisted weights were bound to.
     */
    uint64_t fingerprint() const;

    /** Pretty-print in the Fig. 2 layout (letters + gap row/col). */
    std::string toString() const;

  private:
    size_t
    index(size_t a, size_t b) const
    {
        return a * (alphabet_.size() + 1) + b;
    }

    size_t gapSlot() const { return alphabet_.size(); }

    /** pair() and gap()'s range check, failed: panic, out of line. */
    [[noreturn]] static void symbolOutOfRange();

    /** Every setter's last step: the memoized scans are stale. */
    void changed();

    Alphabet alphabet_;
    ScoreKind kind_;
    std::vector<Score> table;
    util::Memo<Score> minFinite_, maxFinite_;
    util::Memo<uint64_t> fingerprint_;
};

} // namespace racelogic::bio

#endif // RACELOGIC_BIO_SCORE_MATRIX_H
