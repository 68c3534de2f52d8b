#include "rl/systolic/lipton_lopresti.h"

#include <algorithm>

#include "rl/systolic/encoding.h"
#include "rl/util/logging.h"

namespace racelogic::systolic {

namespace {

/** A character slot marching through the array. */
struct CharReg {
    bio::Symbol sym = 0;
    bool valid = false;

    bool
    operator==(const CharReg &other) const
    {
        return sym == other.sym && valid == other.valid;
    }
};

/** Bits that differ between two character-register values. */
unsigned
charRegToggles(const CharReg &before, const CharReg &after,
               unsigned sym_bits)
{
    unsigned toggles = 0;
    for (unsigned b = 0; b < sym_bits; ++b)
        toggles += ((before.sym >> b) & 1) != ((after.sym >> b) & 1);
    toggles += before.valid != after.valid;
    return toggles;
}

constexpr unsigned kScoreBits = 2; // mod-4 residue

} // namespace

Status
LiptonLoprestiArray::checkMatrix(const bio::ScoreMatrix &costs)
{
    auto outside = [](const char *why) {
        return Status::error(ErrorCode::Unsupported,
                             "the systolic baseline races the Fig. 2b "
                             "cost family only: ", why);
    };
    if (!costs.isCost())
        return outside("it minimizes an edit cost");
    const bio::Alphabet &alphabet = costs.alphabet();
    bio::Score mismatch = 0; // the first off-diagonal weight seen
    for (bio::Symbol s = 0; s < alphabet.size(); ++s) {
        if (costs.gap(s) != 1)
            return outside("the encoding needs unit indel weights");
        for (bio::Symbol t = 0; t < alphabet.size(); ++t) {
            const bio::Score w = costs.pair(s, t);
            if (s == t) {
                if (w != 1)
                    return outside("match weights must be 1");
                continue;
            }
            if (w != 2 && w != bio::kScoreInfinity)
                return outside("mismatch weights must be 2 or "
                               "infinity; the mod-4 encoding relies on "
                               "the bounded cell-to-cell differences "
                               "this family has");
            if (mismatch == 0)
                mismatch = w;
            else if (w != mismatch)
                return outside("the PE distinguishes only "
                               "match/mismatch, so the mismatch "
                               "weight must be uniform");
        }
    }
    return Status();
}

LiptonLoprestiArray::LiptonLoprestiArray(bio::ScoreMatrix costs_in)
    : costs(std::move(costs_in))
{
    const Status family = checkMatrix(costs);
    rl_assert(family.ok(), family.message());
    if (costs.alphabet().size() > 1)
        mismatchWeight = costs.pair(0, 1);
}

uint64_t
LiptonLoprestiArray::latencyCycles(size_t n, size_t m)
{
    // Cell (i, j) is computed at time i + j + max(n, m); the sink
    // latches one cycle after it is computed.
    return n + m + std::max(n, m) + 1;
}

uint64_t
LiptonLoprestiArray::initiationInterval(size_t n, size_t m)
{
    // Each injection port is busy for 2*len cycles; the next pair
    // can start two cycles after the longer stream drains.
    return 2 * std::max(n, m) + 2;
}

size_t
LiptonLoprestiArray::registerBitsPerPe(const bio::Alphabet &alphabet)
{
    unsigned sym_bits = std::max(1u, alphabet.bitsPerSymbol());
    // Two char streams (sym + valid) and the score residue.
    return 2 * (sym_bits + 1) + kScoreBits;
}

SystolicResult
LiptonLoprestiArray::align(const bio::Sequence &a,
                           const bio::Sequence &b) const
{
    const bio::Alphabet &alphabet = costs.alphabet();
    rl_assert(a.alphabet() == alphabet && b.alphabet() == alphabet,
              "sequence alphabet does not match the array");
    rl_assert(a.size() >= 1 && b.size() >= 1,
              "empty strings are not streamed through the array");

    const unsigned sym_bits = std::max(1u, alphabet.bitsPerSymbol());
    const size_t n = a.size();
    const size_t m = b.size();
    const size_t h = std::max(n, m);
    const size_t pe_count = n + m + 1;
    const uint64_t t_end = n + m + h;

    // Schedule geometry: cell (i, j) is handled by PE k = n + j - i
    // at time t = i + j + h.  The P stream enters PE 0 (one symbol
    // every other cycle, delayed by h - n); the Q stream enters PE
    // n + m delayed by h - m.  Exactly one of the delays is zero.
    const uint64_t offset_p = h - n;
    const uint64_t offset_q = h - m;

    std::vector<CharReg> x(pe_count), y(pe_count);
    std::vector<Mod4> s1(pe_count, 0);
    std::vector<bool> s1_valid(pe_count, false);

    // Reconstruction accumulator outside the array: primed with the
    // known boundary value of the first cell the sink PE computes.
    const size_t k_out = m; // n + m - n
    bio::Score reconstructed =
        static_cast<bio::Score>(n > m ? n - m : m - n);
    bool sink_primed = false;

    SystolicResult result;
    result.peCount = pe_count;

    const bio::Score mismatch = mismatchWeight;

    for (uint64_t t = 0; t <= t_end; ++t) {
        // Phase 1: character shift (every cycle; this is the
        // interleaved stream wiring toggling).
        std::vector<CharReg> nx(pe_count), ny(pe_count);
        for (size_t k = 1; k < pe_count; ++k)
            nx[k] = x[k - 1];
        for (size_t k = 0; k + 1 < pe_count; ++k)
            ny[k] = y[k + 1];
        if (t >= offset_p && (t - offset_p) % 2 == 0) {
            uint64_t idx = (t - offset_p) / 2;
            if (idx >= 1 && idx <= n)
                nx[0] = CharReg{a[idx - 1], true};
        }
        if (t >= offset_q && (t - offset_q) % 2 == 0) {
            uint64_t idx = (t - offset_q) / 2;
            if (idx >= 1 && idx <= m)
                ny[pe_count - 1] = CharReg{b[idx - 1], true};
        }
        for (size_t k = 0; k < pe_count; ++k) {
            result.registerBitToggles +=
                charRegToggles(x[k], nx[k], sym_bits) +
                charRegToggles(y[k], ny[k], sym_bits);
            if (!(x[k] == nx[k]))
                ++result.streamShiftEvents;
            if (!(y[k] == ny[k]))
                ++result.streamShiftEvents;
        }
        x = std::move(nx);
        y = std::move(ny);

        // Phase 2: cell computations (read state, then commit, as
        // the registers would behave on the clock edge).
        if (t < h)
            continue;
        std::vector<std::pair<size_t, Mod4>> commits;
        for (size_t k = 0; k < pe_count; ++k) {
            int64_t two_i = static_cast<int64_t>(t) -
                            static_cast<int64_t>(h) -
                            static_cast<int64_t>(k) +
                            static_cast<int64_t>(n);
            int64_t two_j = static_cast<int64_t>(t) -
                            static_cast<int64_t>(h) +
                            static_cast<int64_t>(k) -
                            static_cast<int64_t>(n);
            if (two_i < 0 || two_j < 0 || two_i % 2 || two_j % 2)
                continue;
            size_t i = static_cast<size_t>(two_i / 2);
            size_t j = static_cast<size_t>(two_j / 2);
            if (i > n || j > m)
                continue;

            Mod4 fresh;
            bio::Score sink_delta = 0;
            if (i == 0 && j == 0) {
                fresh = 0;
            } else if (i == 0) {
                rl_assert(s1_valid[k - 1], "left operand missing");
                fresh = mod4Add(s1[k - 1], 1);
            } else if (j == 0) {
                rl_assert(s1_valid[k + 1], "top operand missing");
                fresh = mod4Add(s1[k + 1], 1);
            } else {
                // The characters must be co-located here; asserting
                // that validates the streaming logic.  The match bit
                // is computed from the registers, as hardware would.
                rl_assert(x[k].valid && x[k].sym == a[i - 1],
                          "P stream misscheduled at PE ", k);
                rl_assert(y[k].valid && y[k].sym == b[j - 1],
                          "Q stream misscheduled at PE ", k);
                bool match = x[k].sym == y[k].sym;
                rl_assert(s1_valid[k] && s1_valid[k - 1] &&
                              s1_valid[k + 1],
                          "operand missing");
                Mod4 diag = s1[k];
                unsigned best = mod4Offset(s1[k + 1], diag) + 1; // top
                best = std::min(best,
                                mod4Offset(s1[k - 1], diag) + 1); // left
                if (match) {
                    best = std::min(best, 1u);
                } else if (mismatch != bio::kScoreInfinity) {
                    best = std::min(best,
                                    static_cast<unsigned>(mismatch));
                }
                fresh = mod4Add(diag, static_cast<bio::Score>(best));
                sink_delta = static_cast<bio::Score>(best);
            }

            if (k == k_out) {
                if (sink_primed)
                    reconstructed += sink_delta;
                sink_primed = true;
            }
            commits.emplace_back(k, fresh);
            ++result.activePeCycles;
        }
        for (auto [k, fresh] : commits) {
            if (!s1_valid[k] || s1[k] != fresh) {
                unsigned diff =
                    s1_valid[k] ? static_cast<unsigned>(s1[k] ^ fresh)
                                : static_cast<unsigned>(fresh);
                result.registerBitToggles +=
                    (diff & 1) + ((diff >> 1) & 1);
            }
            s1[k] = fresh;
            s1_valid[k] = true;
        }
    }

    result.cycles = t_end + 1;
    result.peClockCycles = result.cycles * pe_count;
    result.score = reconstructed;
    return result;
}

} // namespace racelogic::systolic
