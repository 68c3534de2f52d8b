/**
 * @file
 * Symbol alphabets for sequence comparison.
 *
 * The paper evaluates two alphabet sizes: 4 (DNA nucleobases A, G, C,
 * T) and 20 (amino acids for protein comparison with BLOSUM-family
 * matrices).  The alphabet determines both the symbol encoding width
 * (log2(Nss) bits, Fig. 8) and the XNOR-match circuitry of the unit
 * cell (Eq. 2).
 */

#ifndef RACELOGIC_BIO_ALPHABET_H
#define RACELOGIC_BIO_ALPHABET_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rl/util/status.h"

namespace racelogic::bio {

/** Encoded symbol: dense index into an Alphabet. */
using Symbol = uint8_t;

/**
 * An ordered set of symbol letters with dense encoding.
 *
 * A handle to one immutable table -- the letters, the name and a
 * 256-entry lookup -- that every copy shares, so a copy allocates
 * nothing and copies may be made and dropped on any thread.  A
 * moved-from alphabet is the empty alphabet: it still answers every
 * accessor (size() 0, no letter contained).  Two alphabets compare
 * equal iff they contain the same letters in the same order.
 */
class Alphabet
{
  public:
    /** Construct from the ordered letters, e.g. "ACGT". */
    explicit Alphabet(std::string letters, std::string name = "");

    Alphabet(const Alphabet &) = default;
    Alphabet &operator=(const Alphabet &) = default;
    Alphabet(Alphabet &&other) noexcept;
    Alphabet &operator=(Alphabet &&other) noexcept;

    /**
     * Fallible construction for untrusted letters (wire requests,
     * config files): non-empty, at most 255 letters, every letter a
     * printable non-space ASCII character, no duplicates.  The
     * validation the fatal constructor and serve/wire.cc both lean
     * on, so the protocol cannot drift from the library.
     */
    static Expected<Alphabet> tryMake(std::string letters,
                                      std::string name = "");

    /** DNA nucleobases: A, C, G, T (Nss = 4). */
    static const Alphabet &dna();

    /** 20 amino acids in BLOSUM/PAM order: ARNDCQEGHILKMFPSTWYV. */
    static const Alphabet &protein();

    /** Binary alphabet {0, 1}; useful for adversarial tests. */
    static const Alphabet &binary();

    /** Number of symbols Nss. */
    size_t size() const { return table->letters.size(); }

    /** Bits needed to encode one symbol: ceil(log2(Nss)). */
    unsigned bitsPerSymbol() const;

    /** Letter for an encoded symbol. */
    char letter(Symbol symbol) const;

    /** The symbol of `letter`, or -1 if it is not in the alphabet. */
    int
    code(char letter) const
    {
        return table->lookup[static_cast<unsigned char>(letter)];
    }

    /** True iff the letter belongs to the alphabet. */
    bool contains(char letter) const { return code(letter) >= 0; }

    /** Encode a letter; fatal() if the letter is not in the alphabet. */
    Symbol
    encode(char letter) const
    {
        const int symbol = code(letter);
        if (symbol < 0)
            foreign(letter);
        return static_cast<Symbol>(symbol);
    }

    /**
     * Encode `text` into `out[0, text.size())` in one pass.  Returns
     * the index of the first letter outside the alphabet, whose
     * symbol and every later one are unspecified, or text.size().
     */
    size_t encodeInto(std::string_view text, Symbol *out) const;

    /** Encode a whole string; fatal() on a foreign letter. */
    std::vector<Symbol> encodeString(const std::string &text) const;

    /** Decode a symbol vector back to text. */
    std::string decodeString(const std::vector<Symbol> &symbols) const;

    const std::string &name() const { return table->name; }
    const std::string &letters() const { return table->letters; }

    bool
    operator==(const Alphabet &other) const
    {
        return table == other.table || letters() == other.letters();
    }

  private:
    struct Table {
        std::string letters;
        std::string name;
        // Dense ASCII lookup; -1 marks letters outside the alphabet.
        std::array<int16_t, 256> lookup;
    };

    /** What a moved-from alphabet holds: the empty table, owned by
     *  no one, so handing it out touches no reference count. */
    static std::shared_ptr<const Table> emptyTable();

    [[noreturn]] void foreign(char letter) const;

    std::shared_ptr<const Table> table;
};

} // namespace racelogic::bio

#endif // RACELOGIC_BIO_ALPHABET_H
