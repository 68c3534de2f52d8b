#include "rl/bio/alphabet.h"

#include <array>

#include "rl/util/bitops.h"
#include "rl/util/logging.h"

namespace racelogic::bio {

Alphabet::Alphabet(std::string letters, std::string name)
    : letters_(std::move(letters)), name_(std::move(name)),
      lookup(256, -1)
{
    rl_assert(!letters_.empty(), "empty alphabet");
    rl_assert(letters_.size() <= 255, "alphabet too large for Symbol");
    for (size_t i = 0; i < letters_.size(); ++i) {
        unsigned char ch = static_cast<unsigned char>(letters_[i]);
        if (lookup[ch] != -1)
            rl_fatal("duplicate letter '", letters_[i], "' in alphabet");
        lookup[ch] = static_cast<int16_t>(i);
    }
}

Expected<Alphabet>
Alphabet::tryMake(std::string letters, std::string name)
{
    if (letters.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "alphabet needs at least one letter");
    if (letters.size() > 255)
        return Status::error(ErrorCode::InvalidArgument, "alphabet of ",
                             letters.size(),
                             " letters exceeds the 255-symbol encoding");
    std::array<bool, 256> seen{};
    for (char ch : letters) {
        if (ch <= ' ' || ch > '~')
            return Status::error(ErrorCode::InvalidArgument,
                                 "alphabet letters must be printable "
                                 "non-space ASCII");
        unsigned char u = static_cast<unsigned char>(ch);
        if (seen[u])
            return Status::error(ErrorCode::InvalidArgument,
                                 "duplicate letter '", ch,
                                 "' in alphabet");
        seen[u] = true;
    }
    return Alphabet(std::move(letters), std::move(name));
}

const Alphabet &
Alphabet::dna()
{
    static const Alphabet instance("ACGT", "DNA");
    return instance;
}

const Alphabet &
Alphabet::protein()
{
    static const Alphabet instance("ARNDCQEGHILKMFPSTWYV", "protein");
    return instance;
}

const Alphabet &
Alphabet::binary()
{
    static const Alphabet instance("01", "binary");
    return instance;
}

unsigned
Alphabet::bitsPerSymbol() const
{
    return util::log2Ceil(letters_.size());
}

char
Alphabet::letter(Symbol symbol) const
{
    rl_assert(symbol < letters_.size(), "symbol ", int(symbol),
              " out of alphabet of size ", letters_.size());
    return letters_[symbol];
}

Symbol
Alphabet::encode(char letter) const
{
    int16_t code = lookup[static_cast<unsigned char>(letter)];
    if (code < 0)
        rl_fatal("letter '", letter, "' not in alphabet ",
                 name_.empty() ? letters_ : name_);
    return static_cast<Symbol>(code);
}

bool
Alphabet::contains(char letter) const
{
    return lookup[static_cast<unsigned char>(letter)] >= 0;
}

std::vector<Symbol>
Alphabet::encodeString(const std::string &text) const
{
    std::vector<Symbol> out;
    out.reserve(text.size());
    for (char ch : text)
        out.push_back(encode(ch));
    return out;
}

std::string
Alphabet::decodeString(const std::vector<Symbol> &symbols) const
{
    std::string out;
    out.reserve(symbols.size());
    for (Symbol s : symbols)
        out.push_back(letter(s));
    return out;
}

} // namespace racelogic::bio
