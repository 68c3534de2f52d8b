#include "rl/bio/sequence.h"

#include <cctype>

#include "rl/util/logging.h"

namespace racelogic::bio {

Sequence::Sequence(Alphabet alphabet) : alphabet_(std::move(alphabet)) {}

Sequence::Sequence(Alphabet alphabet, const std::string &text)
    : alphabet_(std::move(alphabet)),
      symbols_(alphabet_.encodeString(text))
{}

Sequence::Sequence(Alphabet alphabet, std::vector<Symbol> symbols)
    : alphabet_(std::move(alphabet)), symbols_(std::move(symbols))
{
    for (Symbol s : symbols_)
        rl_assert(s < alphabet_.size(), "symbol out of alphabet range");
}

Sequence
Sequence::random(util::Rng &rng, const Alphabet &alphabet, size_t length)
{
    std::vector<Symbol> symbols(length);
    for (size_t i = 0; i < length; ++i)
        symbols[i] = static_cast<Symbol>(rng.index(alphabet.size()));
    return Sequence(alphabet, std::move(symbols));
}

std::vector<Symbol>
Sequence::encodeFolded(const Alphabet &alphabet, const std::string &text,
                       const std::string &where)
{
    return tryEncodeFolded(alphabet, text, where).valueOrFatal();
}

Expected<std::vector<Symbol>>
Sequence::tryEncodeFolded(const Alphabet &alphabet,
                          const std::string &text,
                          const std::string &where)
{
    std::vector<Symbol> symbols;
    symbols.reserve(text.size());
    for (char ch : text) {
        if (std::isspace(static_cast<unsigned char>(ch)))
            continue;
        const int symbol = alphabet.code(static_cast<char>(
            std::toupper(static_cast<unsigned char>(ch))));
        if (symbol < 0)
            return Status::error(ErrorCode::InvalidArgument, where,
                                 ": letter '", ch, "' not in alphabet ",
                                 alphabet.letters());
        symbols.push_back(static_cast<Symbol>(symbol));
    }
    return symbols;
}

Expected<Sequence>
Sequence::tryEncode(const Alphabet &alphabet, std::string_view text)
{
    // The symbols come from the alphabet's own lookup, so they skip
    // the adopting constructor's range check.
    Sequence encoded(alphabet);
    encoded.symbols_.resize(text.size());
    if (const size_t bad = alphabet.encodeInto(text, encoded.symbols_.data());
        bad < text.size())
        return Status::error(ErrorCode::InvalidArgument, "letter '",
                             text[bad], "' not in alphabet ",
                             alphabet.letters());
    return encoded;
}

Symbol
Sequence::operator[](size_t i) const
{
    rl_assert(i < symbols_.size(), "sequence index ", i, " out of ",
              symbols_.size());
    return symbols_[i];
}

std::string
Sequence::str() const
{
    return alphabet_.decodeString(symbols_);
}

void
Sequence::push_back(Symbol s)
{
    rl_assert(s < alphabet_.size(), "symbol out of alphabet range");
    symbols_.push_back(s);
}

Sequence
Sequence::slice(size_t offset, size_t count) const
{
    rl_assert(offset <= symbols_.size() &&
              offset + count <= symbols_.size(),
              "slice out of range");
    return Sequence(alphabet_,
                    std::vector<Symbol>(symbols_.begin() + offset,
                                        symbols_.begin() + offset + count));
}

namespace {

Symbol
randomOtherSymbol(util::Rng &rng, const Alphabet &alphabet, Symbol avoid)
{
    rl_assert(alphabet.size() >= 2,
              "cannot draw a differing symbol from a 1-letter alphabet");
    // Draw from size-1 slots and skip over `avoid`.
    Symbol draw = static_cast<Symbol>(rng.index(alphabet.size() - 1));
    return draw >= avoid ? static_cast<Symbol>(draw + 1) : draw;
}

} // namespace

Sequence
mutate(util::Rng &rng, const Sequence &original, const MutationModel &model)
{
    const Alphabet &alphabet = original.alphabet();
    Sequence result(alphabet);
    for (size_t i = 0; i < original.size(); ++i) {
        if (rng.bernoulli(model.insertion))
            result.push_back(static_cast<Symbol>(rng.index(alphabet.size())));
        if (rng.bernoulli(model.deletion))
            continue;
        if (rng.bernoulli(model.substitution))
            result.push_back(randomOtherSymbol(rng, alphabet, original[i]));
        else
            result.push_back(original[i]);
    }
    return result;
}

Sequence
completeMismatch(util::Rng &rng, const Sequence &original)
{
    const Alphabet &alphabet = original.alphabet();
    std::vector<bool> used(alphabet.size(), false);
    for (size_t i = 0; i < original.size(); ++i)
        used[original[i]] = true;
    std::vector<Symbol> unused;
    for (Symbol s = 0; s < alphabet.size(); ++s)
        if (!used[s])
            unused.push_back(s);
    if (unused.empty())
        rl_fatal("completeMismatch: the sequence already uses every "
                 "symbol of its alphabet; use worstCasePair instead");
    Sequence result(alphabet);
    for (size_t i = 0; i < original.size(); ++i)
        result.push_back(rng.pick(unused));
    return result;
}

std::pair<Sequence, Sequence>
worstCasePair(util::Rng &rng, const Alphabet &alphabet, size_t length)
{
    rl_assert(alphabet.size() >= 2,
              "worst-case pairs need a 2+ letter alphabet");
    size_t half = alphabet.size() / 2;
    Sequence a(alphabet), b(alphabet);
    for (size_t i = 0; i < length; ++i) {
        a.push_back(static_cast<Symbol>(rng.index(half)));
        b.push_back(static_cast<Symbol>(half + rng.index(
                        alphabet.size() - half)));
    }
    return {a, b};
}

ScreeningWorkload
makeScreeningWorkload(util::Rng &rng, const Alphabet &alphabet,
                      size_t query_length, size_t database_size,
                      double related_fraction, const MutationModel &noise)
{
    ScreeningWorkload workload{
        Sequence::random(rng, alphabet, query_length), {}, {}};
    workload.database.reserve(database_size);
    workload.related.reserve(database_size);
    for (size_t i = 0; i < database_size; ++i) {
        bool is_related = rng.bernoulli(related_fraction);
        workload.related.push_back(is_related);
        if (is_related) {
            workload.database.push_back(mutate(rng, workload.query, noise));
        } else {
            workload.database.push_back(
                Sequence::random(rng, alphabet, query_length));
        }
    }
    return workload;
}

} // namespace racelogic::bio
