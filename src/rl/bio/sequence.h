/**
 * @file
 * Sequences and the stochastic workload generator.
 *
 * The paper's evaluation regimes are defined by match structure:
 * best case (identical strings), worst case (complete mismatch), and
 * the "typical" regime of Section 6 where most database strings are
 * dissimilar and a few share ancestry with the query.  MutationModel
 * reproduces all three by deriving one string from another through
 * controlled substitution/insertion/deletion rates.
 */

#ifndef RACELOGIC_BIO_SEQUENCE_H
#define RACELOGIC_BIO_SEQUENCE_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rl/bio/alphabet.h"
#include "rl/util/random.h"

namespace racelogic::bio {

/** An encoded symbol string over a fixed alphabet. */
class Sequence
{
  public:
    /** Empty sequence over `alphabet`. */
    explicit Sequence(Alphabet alphabet);

    /** Encode `text` over `alphabet`; fatal() on foreign letters. */
    Sequence(Alphabet alphabet, const std::string &text);

    /** Adopt pre-encoded symbols. */
    Sequence(Alphabet alphabet, std::vector<Symbol> symbols);

    /** Uniform random sequence of the given length. */
    static Sequence random(util::Rng &rng, const Alphabet &alphabet,
                           size_t length);

    /**
     * Encode a text chunk from a real-world file: ASCII whitespace
     * skipped, lowercase folded to upper, fatal() (prefixed with
     * `where`, e.g. "FASTA line 12") on letters outside the
     * alphabet.  The one folding rule shared by every sequence
     * parser (FASTA, GFA), so format front ends cannot drift apart.
     */
    static std::vector<Symbol> encodeFolded(const Alphabet &alphabet,
                                            const std::string &text,
                                            const std::string &where);

    /**
     * Fallible twin of encodeFolded() for untrusted input: same
     * whitespace-skip and case-fold rules, but a letter outside the
     * alphabet returns InvalidArgument instead of exiting.  The
     * fatal variant is a valueOrFatal() wrapper over this one.
     */
    static Expected<std::vector<Symbol>>
    tryEncodeFolded(const Alphabet &alphabet, const std::string &text,
                    const std::string &where);

    /**
     * Strict fallible encoding: every character must match an
     * alphabet letter exactly -- no folding, no whitespace skipping.
     * The rule wire requests obey (a request is not a file; stray
     * bytes are a protocol error, not formatting).
     */
    static Expected<Sequence> tryEncode(const Alphabet &alphabet,
                                        std::string_view text);

    size_t size() const { return symbols_.size(); }
    bool empty() const { return symbols_.empty(); }

    Symbol operator[](size_t i) const;

    const std::vector<Symbol> &symbols() const { return symbols_; }
    const Alphabet &alphabet() const { return alphabet_; }

    /** Decode back to letters. */
    std::string str() const;

    /** Append one symbol. */
    void push_back(Symbol s);

    /** Subsequence [offset, offset+count). */
    Sequence slice(size_t offset, size_t count) const;

    bool
    operator==(const Sequence &other) const
    {
        return alphabet_ == other.alphabet_ && symbols_ == other.symbols_;
    }

  private:
    Alphabet alphabet_;
    std::vector<Symbol> symbols_;
};

/**
 * Per-position mutation rates used to derive a noisy copy of a
 * sequence (all probabilities independent per source position).
 */
struct MutationModel {
    double substitution = 0.0; ///< replace the symbol with a random other
    double insertion = 0.0;    ///< insert one random symbol before it
    double deletion = 0.0;     ///< drop the symbol

    /** Convenience: equal rates summing to `total`. */
    static MutationModel
    uniform(double total)
    {
        return MutationModel{total / 3, total / 3, total / 3};
    }
};

/** Apply a MutationModel; the result length may differ from input. */
Sequence mutate(util::Rng &rng, const Sequence &original,
                const MutationModel &model);

/**
 * Worst-case partner for a sequence: same length, drawn only from
 * alphabet symbols that never occur in `original`, so the pair shares
 * no characters at all -- the paper's "complete mismatch" corner
 * (every alignment is pure indels).  fatal() if `original` already
 * uses the whole alphabet.
 */
Sequence completeMismatch(util::Rng &rng, const Sequence &original);

/**
 * A guaranteed worst-case pair of length-n strings: the first is
 * drawn from the lower half of the alphabet, the second from the
 * upper half, so no symbol is shared and the optimal alignment under
 * any match-rewarding matrix is all indels.
 */
std::pair<Sequence, Sequence> worstCasePair(util::Rng &rng,
                                            const Alphabet &alphabet,
                                            size_t length);

/**
 * A generated screening workload: one query plus `database_size`
 * candidates, of which a `related_fraction` share are mutated copies
 * of the query (genuine alignments) and the rest are unrelated random
 * strings (chance similarity only) -- the Section 6 scenario.
 */
struct ScreeningWorkload {
    Sequence query;
    std::vector<Sequence> database;
    std::vector<bool> related; ///< ground truth per database entry
};

ScreeningWorkload makeScreeningWorkload(util::Rng &rng,
                                        const Alphabet &alphabet,
                                        size_t query_length,
                                        size_t database_size,
                                        double related_fraction,
                                        const MutationModel &noise);

} // namespace racelogic::bio

#endif // RACELOGIC_BIO_SEQUENCE_H
