/**
 * @file
 * The Lipton-Lopresti linear systolic array -- the paper's baseline.
 *
 * A string of length N and one of length M are compared on a linear
 * array of N+M+1 processing elements (2N+1 for the paper's N = M
 * case).  The two character streams enter from opposite ends at one
 * symbol every other cycle and march toward each other; wherever
 * characters P_i and Q_j meet, that PE computes edit-graph cell
 * (i, j).  Successive cells computed by the same PE lie on the same
 * grid diagonal, so a PE's previously computed value *is* the
 * diagonal operand of its next computation, and the left/right
 * neighbours hold the horizontal/vertical operands -- the
 * anti-diagonal fine-grain parallelism Lipton & Lopresti first
 * exploited.
 *
 * Scores live in the array as two-bit mod-4 residues
 * (rl/systolic/encoding.h); a reconstruction accumulator outside the
 * array ("extra circuitry outside of the systolic structure")
 * rebuilds the true score from the offset stream of the output PE.
 *
 * The simulation is cycle-accurate at the register level: character
 * registers shift every cycle, score residues update on compute
 * cycles, and all register-bit toggles are counted for the energy
 * model.  Unlike Race Logic, the array has no data-dependent idle
 * regions -- every PE is clocked every cycle, which is precisely the
 * energy story the paper tells.
 */

#ifndef RACELOGIC_SYSTOLIC_LIPTON_LOPRESTI_H
#define RACELOGIC_SYSTOLIC_LIPTON_LOPRESTI_H

#include <cstdint>
#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/util/status.h"

namespace racelogic::systolic {

/** Outcome and activity of one systolic comparison. */
struct SystolicResult {
    /** Exact global alignment cost (after reconstruction). */
    bio::Score score = 0;

    /** Clock cycles from first injection to result latch. */
    uint64_t cycles = 0;

    /** Processing elements instantiated (N + M + 1). */
    size_t peCount = 0;

    /** PE-cycles of clock delivery (= peCount * cycles: no gating). */
    uint64_t peClockCycles = 0;

    /** PE-cycles that performed a cell computation. */
    uint64_t activePeCycles = 0;

    /** Register bits that changed value, summed over the run. */
    uint64_t registerBitToggles = 0;

    /** Character-stream shift events (drives the interconnect term
     *  of the energy model: the interleaved char/score wiring). */
    uint64_t streamShiftEvents = 0;
};

/**
 * Cycle-accurate Lipton-Lopresti engine for a Fig. 2b-family cost
 * matrix: all indel weights 1, match weight 1, mismatch weight 2 or
 * infinity.  (This is the family whose bounded cell-to-cell
 * differences make the mod-4 encoding sound, and it is exactly what
 * the paper's synthesized baseline runs.)
 */
class LiptonLoprestiArray
{
  public:
    /** fatal() unless checkMatrix(costs) passes. */
    explicit LiptonLoprestiArray(bio::ScoreMatrix costs);

    /**
     * Ok iff `costs` is in the Fig. 2b family the mod-4 encoding
     * represents -- Cost kind, unit indels and matches, one uniform
     * mismatch weight of 2 or kScoreInfinity; Unsupported otherwise.
     */
    static Status checkMatrix(const bio::ScoreMatrix &costs);

    /** Compare two strings; fatal() on alphabet mismatch. */
    SystolicResult align(const bio::Sequence &a,
                         const bio::Sequence &b) const;

    /**
     * Cycles a comparison of lengths (n, m) occupies the array:
     * 3 * (n + m) / 2 + 1 (rounded up to the even-padded size).
     */
    static uint64_t latencyCycles(size_t n, size_t m);

    /**
     * Initiation interval under pipelined back-to-back comparisons
     * (a new pair may enter every 2n + 2 cycles).
     */
    static uint64_t initiationInterval(size_t n, size_t m);

    /** Registered bits per PE (char regs, valid/pad, score residue). */
    static size_t registerBitsPerPe(const bio::Alphabet &alphabet);

    const bio::ScoreMatrix &matrix() const { return costs; }

  private:
    bio::ScoreMatrix costs;
    /** Uniform off-diagonal weight (2 or kScoreInfinity). */
    bio::Score mismatchWeight = bio::kScoreInfinity;
};

} // namespace racelogic::systolic

#endif // RACELOGIC_SYSTOLIC_LIPTON_LOPRESTI_H
