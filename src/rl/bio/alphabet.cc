#include "rl/bio/alphabet.h"

#include <array>
#include <utility>

#include "rl/util/bitops.h"
#include "rl/util/logging.h"

namespace racelogic::bio {

Alphabet::Alphabet(std::string letters, std::string name)
{
    rl_assert(!letters.empty(), "empty alphabet");
    rl_assert(letters.size() <= 255, "alphabet too large for Symbol");
    auto made = std::make_shared<Table>();
    made->lookup.fill(-1);
    for (size_t i = 0; i < letters.size(); ++i) {
        unsigned char ch = static_cast<unsigned char>(letters[i]);
        if (made->lookup[ch] != -1)
            rl_fatal("duplicate letter '", letters[i], "' in alphabet");
        made->lookup[ch] = static_cast<int16_t>(i);
    }
    made->letters = std::move(letters);
    made->name = std::move(name);
    table = std::move(made);
}

Alphabet::Alphabet(Alphabet &&other) noexcept
    : table(std::exchange(other.table, emptyTable()))
{}

Alphabet &
Alphabet::operator=(Alphabet &&other) noexcept
{
    table = std::exchange(other.table, emptyTable());
    return *this;
}

std::shared_ptr<const Alphabet::Table>
Alphabet::emptyTable()
{
    static const Table kEmpty = [] {
        Table t;
        t.lookup.fill(-1);
        return t;
    }();
    // An empty owner aliased to the table: non-null, and no count.
    return std::shared_ptr<const Table>(std::shared_ptr<const Table>(),
                                        &kEmpty);
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
    return util::log2Ceil(size());
}

char
Alphabet::letter(Symbol symbol) const
{
    rl_assert(symbol < size(), "symbol ", int(symbol),
              " out of alphabet of size ", size());
    return letters()[symbol];
}

void
Alphabet::foreign(char letter) const
{
    rl_fatal("letter '", letter, "' not in alphabet ",
             name().empty() ? letters() : name());
}

size_t
Alphabet::encodeInto(std::string_view text, Symbol *out) const
{
    // One load of the lookup: the symbol stores may alias anything.
    const int16_t *lookup = table->lookup.data();
    for (size_t i = 0; i < text.size(); ++i) {
        const int16_t symbol = lookup[static_cast<unsigned char>(text[i])];
        if (symbol < 0)
            return i;
        out[i] = static_cast<Symbol>(symbol);
    }
    return text.size();
}

std::vector<Symbol>
Alphabet::encodeString(const std::string &text) const
{
    std::vector<Symbol> out(text.size());
    if (const size_t bad = encodeInto(text, out.data()); bad < text.size())
        foreign(text[bad]);
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
