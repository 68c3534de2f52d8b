#include "rl/bio/align_dp.h"

#include <algorithm>

#include "rl/util/logging.h"
#include "rl/util/strings.h"

namespace racelogic::bio {

namespace {

void
checkMatrixUsable(const Sequence &a, const Sequence &b,
                  const ScoreMatrix &matrix)
{
    rl_assert(a.alphabet() == matrix.alphabet() &&
              b.alphabet() == matrix.alphabet(),
              "sequences and matrix use different alphabets");
    for (Symbol s = 0; s < matrix.alphabet().size(); ++s)
        rl_assert(matrix.gap(s) != kScoreInfinity &&
                  matrix.gap(s) != -kScoreInfinity,
                  "gap weights must be finite");
}

inline bool
better(Score candidate, Score incumbent, bool minimize)
{
    return minimize ? candidate < incumbent : candidate > incumbent;
}

} // namespace

util::Grid<Score>
dpTable(const Sequence &a, const Sequence &b, const ScoreMatrix &matrix)
{
    checkMatrixUsable(a, b, matrix);
    const size_t n = a.size();
    const size_t m = b.size();
    const bool minimize = matrix.isCost();

    util::Grid<Score> t(n + 1, m + 1, 0);
    for (size_t i = 1; i <= n; ++i)
        t(i, 0) = t(i - 1, 0) + matrix.gap(a[i - 1]);
    for (size_t j = 1; j <= m; ++j)
        t(0, j) = t(0, j - 1) + matrix.gap(b[j - 1]);

    for (size_t i = 1; i <= n; ++i) {
        for (size_t j = 1; j <= m; ++j) {
            Score best = t(i - 1, j) + matrix.gap(a[i - 1]);
            Score left = t(i, j - 1) + matrix.gap(b[j - 1]);
            if (better(left, best, minimize))
                best = left;
            Score w = matrix.pair(a[i - 1], b[j - 1]);
            if (w != kScoreInfinity) {
                Score diag = t(i - 1, j - 1) + w;
                if (better(diag, best, minimize))
                    best = diag;
            }
            t(i, j) = best;
        }
    }
    return t;
}

Score
globalScore(const Sequence &a, const Sequence &b,
            const ScoreMatrix &matrix)
{
    checkMatrixUsable(a, b, matrix);
    const size_t n = a.size();
    const size_t m = b.size();
    const bool minimize = matrix.isCost();

    std::vector<Score> prev(m + 1), curr(m + 1);
    prev[0] = 0;
    for (size_t j = 1; j <= m; ++j)
        prev[j] = prev[j - 1] + matrix.gap(b[j - 1]);

    for (size_t i = 1; i <= n; ++i) {
        curr[0] = prev[0] + matrix.gap(a[i - 1]);
        for (size_t j = 1; j <= m; ++j) {
            Score best = prev[j] + matrix.gap(a[i - 1]);
            Score left = curr[j - 1] + matrix.gap(b[j - 1]);
            if (better(left, best, minimize))
                best = left;
            Score w = matrix.pair(a[i - 1], b[j - 1]);
            if (w != kScoreInfinity) {
                Score diag = prev[j - 1] + w;
                if (better(diag, best, minimize))
                    best = diag;
            }
            curr[j] = best;
        }
        std::swap(prev, curr);
    }
    return prev[m];
}

Alignment
globalAlign(const Sequence &a, const Sequence &b,
            const ScoreMatrix &matrix)
{
    util::Grid<Score> t = dpTable(a, b, matrix);
    const size_t n = a.size();
    const size_t m = b.size();
    const Alphabet &alphabet = matrix.alphabet();

    Alignment result;
    result.score = t(n, m);

    // Deterministic traceback preference: diagonal, then vertical
    // (consume from a), then horizontal (consume from b).
    size_t i = n, j = m;
    std::string ra, rb;
    std::vector<std::pair<uint32_t, uint32_t>> rpath;
    rpath.emplace_back(i, j);
    while (i > 0 || j > 0) {
        bool stepped = false;
        if (i > 0 && j > 0) {
            Score w = matrix.pair(a[i - 1], b[j - 1]);
            if (w != kScoreInfinity && t(i, j) == t(i - 1, j - 1) + w) {
                ra.push_back(alphabet.letter(a[i - 1]));
                rb.push_back(alphabet.letter(b[j - 1]));
                if (a[i - 1] == b[j - 1])
                    ++result.matches;
                else
                    ++result.mismatches;
                --i;
                --j;
                stepped = true;
            }
        }
        if (!stepped && i > 0 &&
            t(i, j) == t(i - 1, j) + matrix.gap(a[i - 1])) {
            ra.push_back(alphabet.letter(a[i - 1]));
            rb.push_back('-');
            ++result.indels;
            --i;
            stepped = true;
        }
        if (!stepped && j > 0 &&
            t(i, j) == t(i, j - 1) + matrix.gap(b[j - 1])) {
            ra.push_back('-');
            rb.push_back(alphabet.letter(b[j - 1]));
            ++result.indels;
            --j;
            stepped = true;
        }
        rl_assert(stepped, "traceback stuck at (", i, ",", j,
                  "): inconsistent DP table");
        rpath.emplace_back(i, j);
    }

    std::reverse(ra.begin(), ra.end());
    std::reverse(rb.begin(), rb.end());
    std::reverse(rpath.begin(), rpath.end());
    result.alignedA = std::move(ra);
    result.alignedB = std::move(rb);
    result.path = std::move(rpath);
    return result;
}

Score
levenshtein(const Sequence &a, const Sequence &b)
{
    rl_assert(a.alphabet() == b.alphabet(),
              "sequences over different alphabets");
    const size_t n = a.size();
    const size_t m = b.size();
    std::vector<Score> prev(m + 1), curr(m + 1);
    for (size_t j = 0; j <= m; ++j)
        prev[j] = static_cast<Score>(j);
    for (size_t i = 1; i <= n; ++i) {
        curr[0] = static_cast<Score>(i);
        for (size_t j = 1; j <= m; ++j) {
            Score sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, sub});
        }
        std::swap(prev, curr);
    }
    return prev[m];
}

size_t
lcsLength(const Sequence &a, const Sequence &b)
{
    rl_assert(a.alphabet() == b.alphabet(),
              "sequences over different alphabets");
    const size_t n = a.size();
    const size_t m = b.size();
    std::vector<size_t> prev(m + 1, 0), curr(m + 1, 0);
    for (size_t i = 1; i <= n; ++i) {
        for (size_t j = 1; j <= m; ++j) {
            if (a[i - 1] == b[j - 1])
                curr[j] = prev[j - 1] + 1;
            else
                curr[j] = std::max(prev[j], curr[j - 1]);
        }
        std::swap(prev, curr);
        std::fill(curr.begin(), curr.end(), 0);
    }
    return prev[m];
}

std::string
checkAlignment(const Sequence &a, const Sequence &b,
               const ScoreMatrix &matrix, const Alignment &alignment)
{
    using util::format;
    const size_t n = a.size();
    const size_t m = b.size();
    if (alignment.path.empty())
        return "empty path";
    if (alignment.path.front() != std::make_pair(0u, 0u))
        return "path does not start at (0,0)";
    if (alignment.path.back() !=
        std::make_pair(uint32_t(n), uint32_t(m)))
        return format("path does not end at (%zu,%zu)", n, m);

    Score total = 0;
    size_t matches = 0, mismatches = 0, indels = 0;
    for (size_t k = 0; k + 1 < alignment.path.size(); ++k) {
        auto [i0, j0] = alignment.path[k];
        auto [i1, j1] = alignment.path[k + 1];
        uint32_t di = i1 - i0, dj = j1 - j0;
        if (di == 1 && dj == 1) {
            Score w = matrix.pair(a[i0], b[j0]);
            if (w == kScoreInfinity)
                return format("forbidden diagonal used at (%u,%u)", i0,
                              j0);
            total += w;
            if (a[i0] == b[j0])
                ++matches;
            else
                ++mismatches;
        } else if (di == 1 && dj == 0) {
            total += matrix.gap(a[i0]);
            ++indels;
        } else if (di == 0 && dj == 1) {
            total += matrix.gap(b[j0]);
            ++indels;
        } else {
            return format("non-monotone step at index %zu", k);
        }
    }
    if (total != alignment.score)
        return format("path weight %lld != reported score %lld",
                      static_cast<long long>(total),
                      static_cast<long long>(alignment.score));
    if (matches != alignment.matches ||
        mismatches != alignment.mismatches ||
        indels != alignment.indels)
        return "operation counts disagree with path";
    if (alignment.alignedA.size() != alignment.alignedB.size())
        return "aligned rows have different lengths";
    // Stripping gaps must recover the originals.
    std::string stripped_a, stripped_b;
    for (char ch : alignment.alignedA)
        if (ch != '-')
            stripped_a.push_back(ch);
    for (char ch : alignment.alignedB)
        if (ch != '-')
            stripped_b.push_back(ch);
    if (stripped_a != a.str() || stripped_b != b.str())
        return "aligned rows do not reduce to the input sequences";
    return "";
}

} // namespace racelogic::bio
