#include "rl/bio/score_matrix.h"

#include <algorithm>
#include <sstream>

#include "rl/util/fnv.h"
#include "rl/util/logging.h"

namespace racelogic::bio {

namespace {

/**
 * BLOSUM62 substitution scores (Henikoff & Henikoff 1992), symbol
 * order ARNDCQEGHILKMFPSTWYV -- the paper's Fig. 2c matrix.
 */
constexpr int kBlosum62[20][20] = {
    /*A*/ { 4,-1,-2,-2, 0,-1,-1, 0,-2,-1,-1,-1,-1,-2,-1, 1, 0,-3,-2, 0},
    /*R*/ {-1, 5, 0,-2,-3, 1, 0,-2, 0,-3,-2, 2,-1,-3,-2,-1,-1,-3,-2,-3},
    /*N*/ {-2, 0, 6, 1,-3, 0, 0, 0, 1,-3,-3, 0,-2,-3,-2, 1, 0,-4,-2,-3},
    /*D*/ {-2,-2, 1, 6,-3, 0, 2,-1,-1,-3,-4,-1,-3,-3,-1, 0,-1,-4,-3,-3},
    /*C*/ { 0,-3,-3,-3, 9,-3,-4,-3,-3,-1,-1,-3,-1,-2,-3,-1,-1,-2,-2,-1},
    /*Q*/ {-1, 1, 0, 0,-3, 5, 2,-2, 0,-3,-2, 1, 0,-3,-1, 0,-1,-2,-1,-2},
    /*E*/ {-1, 0, 0, 2,-4, 2, 5,-2, 0,-3,-3, 1,-2,-3,-1, 0,-1,-3,-2,-2},
    /*G*/ { 0,-2, 0,-1,-3,-2,-2, 6,-2,-4,-4,-2,-3,-3,-2, 0,-2,-2,-3,-3},
    /*H*/ {-2, 0, 1,-1,-3, 0, 0,-2, 8,-3,-3,-1,-2,-1,-2,-1,-2,-2, 2,-3},
    /*I*/ {-1,-3,-3,-3,-1,-3,-3,-4,-3, 4, 2,-3, 1, 0,-3,-2,-1,-3,-1, 3},
    /*L*/ {-1,-2,-3,-4,-1,-2,-3,-4,-3, 2, 4,-2, 2, 0,-3,-2,-1,-2,-1, 1},
    /*K*/ {-1, 2, 0,-1,-3, 1, 1,-2,-1,-3,-2, 5,-1,-3,-1, 0,-1,-3,-2,-2},
    /*M*/ {-1,-1,-2,-3,-1, 0,-2,-3,-2, 1, 2,-1, 5, 0,-2,-1,-1,-1,-1, 1},
    /*F*/ {-2,-3,-3,-3,-2,-3,-3,-3,-1, 0, 0,-3, 0, 6,-4,-2,-2, 1, 3,-1},
    /*P*/ {-1,-2,-2,-1,-3,-1,-1,-2,-2,-3,-3,-1,-2,-4, 7,-1,-1,-4,-3,-2},
    /*S*/ { 1,-1, 1, 0,-1, 0, 0, 0,-1,-2,-2, 0,-1,-2,-1, 4, 1,-3,-2,-2},
    /*T*/ { 0,-1, 0,-1,-1,-1,-1,-2,-2,-1,-1,-1,-1,-2,-1, 1, 5,-2,-2, 0},
    /*W*/ {-3,-3,-4,-4,-2,-2,-3,-2,-2,-3,-2,-3,-1, 1,-4,-3,-2,11, 2,-3},
    /*Y*/ {-2,-2,-2,-3,-2,-1,-2,-3, 2,-1,-1,-2,-1, 3,-3,-2,-2, 2, 7,-1},
    /*V*/ { 0,-3,-3,-3,-1,-2,-2,-3,-3, 3, 1,-2, 1,-1,-2,-2, 0,-3,-1, 4},
};

/**
 * PAM250 substitution scores (Dayhoff), symbol order
 * ARNDCQEGHILKMFPSTWYV.
 */
constexpr int kPam250[20][20] = {
    /*A*/ { 2,-2, 0, 0,-2, 0, 0, 1,-1,-1,-2,-1,-1,-3, 1, 1, 1,-6,-3, 0},
    /*R*/ {-2, 6, 0,-1,-4, 1,-1,-3, 2,-2,-3, 3, 0,-4, 0, 0,-1, 2,-4,-2},
    /*N*/ { 0, 0, 2, 2,-4, 1, 1, 0, 2,-2,-3, 1,-2,-3, 0, 1, 0,-4,-2,-2},
    /*D*/ { 0,-1, 2, 4,-5, 2, 3, 1, 1,-2,-4, 0,-3,-6,-1, 0, 0,-7,-4,-2},
    /*C*/ {-2,-4,-4,-5,12,-5,-5,-3,-3,-2,-6,-5,-5,-4,-3, 0,-2,-8, 0,-2},
    /*Q*/ { 0, 1, 1, 2,-5, 4, 2,-1, 3,-2,-2, 1,-1,-5, 0,-1,-1,-5,-4,-2},
    /*E*/ { 0,-1, 1, 3,-5, 2, 4, 0, 1,-2,-3, 0,-2,-5,-1, 0, 0,-7,-4,-2},
    /*G*/ { 1,-3, 0, 1,-3,-1, 0, 5,-2,-3,-4,-2,-3,-5, 0, 1, 0,-7,-5,-1},
    /*H*/ {-1, 2, 2, 1,-3, 3, 1,-2, 6,-2,-2, 0,-2,-2, 0,-1,-1,-3, 0,-2},
    /*I*/ {-1,-2,-2,-2,-2,-2,-2,-3,-2, 5, 2,-2, 2, 1,-2,-1, 0,-5,-1, 4},
    /*L*/ {-2,-3,-3,-4,-6,-2,-3,-4,-2, 2, 6,-3, 4, 2,-3,-3,-2,-2,-1, 2},
    /*K*/ {-1, 3, 1, 0,-5, 1, 0,-2, 0,-2,-3, 5, 0,-5,-1, 0, 0,-3,-4,-2},
    /*M*/ {-1, 0,-2,-3,-5,-1,-2,-3,-2, 2, 4, 0, 6, 0,-2,-2,-1,-4,-2, 2},
    /*F*/ {-3,-4,-3,-6,-4,-5,-5,-5,-2, 1, 2,-5, 0, 9,-5,-3,-3, 0, 7,-1},
    /*P*/ { 1, 0, 0,-1,-3, 0,-1, 0, 0,-2,-3,-1,-2,-5, 6, 1, 0,-6,-5,-1},
    /*S*/ { 1, 0, 1, 0, 0,-1, 0, 1,-1,-1,-3, 0,-2,-3, 1, 2, 1,-2,-3,-1},
    /*T*/ { 1,-1, 0, 0,-2,-1, 0, 0,-1, 0,-2, 0,-1,-3, 0, 1, 3,-5,-3, 0},
    /*W*/ {-6, 2,-4,-7,-8,-5,-7,-7,-3,-5,-2,-3,-4, 0,-6,-2,-5,17, 0,-6},
    /*Y*/ {-3,-4,-2,-4, 0,-4,-4,-5, 0,-1,-1,-4,-2, 7,-5,-3,-3, 0,10,-2},
    /*V*/ { 0,-2,-2,-2,-2,-2,-2,-1,-2, 4, 2,-2, 2,-1,-1,-1, 0,-6,-2, 4},
};

ScoreMatrix
proteinMatrix(const int (&scores)[20][20], Score gap_penalty)
{
    ScoreMatrix m(Alphabet::protein(), ScoreKind::Similarity);
    for (Symbol a = 0; a < 20; ++a)
        for (Symbol b = 0; b < 20; ++b)
            m.setPair(a, b, scores[a][b]);
    m.setAllGaps(gap_penalty);
    return m;
}

} // namespace

ScoreMatrix::ScoreMatrix(Alphabet alphabet, ScoreKind kind)
    : alphabet_(std::move(alphabet)), kind_(kind),
      table((alphabet_.size() + 1) * (alphabet_.size() + 1), 0)
{}

ScoreMatrix
ScoreMatrix::dnaLongestPath()
{
    ScoreMatrix m(Alphabet::dna(), ScoreKind::Similarity);
    for (Symbol a = 0; a < 4; ++a)
        m.setPair(a, a, 1);
    return m; // mismatches and gaps already 0
}

ScoreMatrix
ScoreMatrix::dnaShortestPath()
{
    ScoreMatrix m(Alphabet::dna(), ScoreKind::Cost);
    for (Symbol a = 0; a < 4; ++a)
        for (Symbol b = 0; b < 4; ++b)
            m.setPair(a, b, a == b ? 1 : 2);
    m.setAllGaps(1);
    return m;
}

ScoreMatrix
ScoreMatrix::dnaShortestPathInfMismatch()
{
    ScoreMatrix m = dnaShortestPath();
    for (Symbol a = 0; a < 4; ++a)
        for (Symbol b = 0; b < 4; ++b)
            if (a != b)
                m.setPair(a, b, kScoreInfinity);
    return m;
}

ScoreMatrix
ScoreMatrix::blosum62()
{
    return proteinMatrix(kBlosum62, -4);
}

ScoreMatrix
ScoreMatrix::pam250()
{
    return proteinMatrix(kPam250, -8);
}

ScoreMatrix
ScoreMatrix::unitEdit(const Alphabet &alphabet)
{
    ScoreMatrix m(alphabet, ScoreKind::Cost);
    for (Symbol a = 0; a < alphabet.size(); ++a)
        for (Symbol b = 0; b < alphabet.size(); ++b)
            m.setPair(a, b, a == b ? 0 : 1);
    m.setAllGaps(1);
    return m;
}

ScoreMatrix
ScoreMatrix::uniform(const Alphabet &alphabet, ScoreKind kind, Score value)
{
    ScoreMatrix m(alphabet, kind);
    for (Symbol a = 0; a < alphabet.size(); ++a) {
        m.setGap(a, value);
        for (Symbol b = 0; b < alphabet.size(); ++b)
            m.setPair(a, b, value);
    }
    return m;
}

void
ScoreMatrix::symbolOutOfRange()
{
    rl_panic("symbol out of range");
}

void
ScoreMatrix::setPair(Symbol a, Symbol b, Score value)
{
    rl_assert(a < alphabet_.size() && b < alphabet_.size(),
              "symbol out of range");
    table[index(a, b)] = value;
    changed();
}

void
ScoreMatrix::setPairSymmetric(Symbol a, Symbol b, Score value)
{
    setPair(a, b, value);
    setPair(b, a, value);
}

void
ScoreMatrix::setGap(Symbol s, Score value)
{
    rl_assert(s < alphabet_.size(), "symbol out of range");
    table[index(s, gapSlot())] = value;
    table[index(gapSlot(), s)] = value;
    changed();
}

void
ScoreMatrix::changed()
{
    minFinite_.reset();
    maxFinite_.reset();
    fingerprint_.reset();
}

void
ScoreMatrix::setAllGaps(Score value)
{
    for (Symbol s = 0; s < alphabet_.size(); ++s)
        setGap(s, value);
}

bool
ScoreMatrix::isSymmetric() const
{
    for (Symbol a = 0; a < alphabet_.size(); ++a)
        for (Symbol b = 0; b < a; ++b)
            if (pair(a, b) != pair(b, a))
                return false;
    return true;
}

Score
ScoreMatrix::minFinite() const
{
    return minFinite_.get([this] {
        Score best = kScoreInfinity;
        for (Symbol a = 0; a < alphabet_.size(); ++a) {
            best = std::min(best, gap(a));
            for (Symbol b = 0; b < alphabet_.size(); ++b)
                if (pair(a, b) != kScoreInfinity)
                    best = std::min(best, pair(a, b));
        }
        rl_assert(best != kScoreInfinity, "matrix has no finite entries");
        return best;
    });
}

Score
ScoreMatrix::maxFinite() const
{
    return maxFinite_.get([this] {
        Score best = INT64_MIN;
        for (Symbol a = 0; a < alphabet_.size(); ++a) {
            best = std::max(best, gap(a));
            for (Symbol b = 0; b < alphabet_.size(); ++b)
                if (pair(a, b) != kScoreInfinity)
                    best = std::max(best, pair(a, b));
        }
        return best;
    });
}

bool
ScoreMatrix::hasForbiddenPairs() const
{
    for (Symbol a = 0; a < alphabet_.size(); ++a)
        for (Symbol b = 0; b < alphabet_.size(); ++b)
            if (pair(a, b) == kScoreInfinity)
                return true;
    return false;
}

Score
ScoreMatrix::dynamicRange() const
{
    rl_assert(isCost(), "dynamic range is defined for cost matrices");
    rl_assert(minFinite() >= 1,
              "cost matrix must have all weights >= 1 for Race Logic; "
              "run toShortestPathForm() first");
    return maxFinite();
}

Status
ScoreMatrix::validateRaceReady(Score maxWeight,
                               bool allowForbiddenPairs) const
{
    if (!isCost())
        return Status::error(ErrorCode::InvalidArgument,
                             "race-ready validation needs a Cost-kind "
                             "matrix; convert similarity scores with "
                             "toShortestPathForm() first");
    const Score cap = maxWeight != 0 ? maxWeight : kScoreInfinity - 1;
    auto checkFinite = [&](Score w, const char *what,
                           char a, char b) -> Status {
        if (w == kScoreInfinity)
            return Status::error(ErrorCode::InvalidArgument, what, " (",
                                 a, ",", b, ") is infinite; a race "
                                 "needs a finite weight here");
        if (w < 1 || w > cap)
            return Status::error(ErrorCode::InvalidArgument, what, " (",
                                 a, ",", b, ") weight ", w,
                                 " outside the race-ready range [1, ",
                                 cap, "]");
        return Status();
    };
    for (Symbol a = 0; a < alphabet_.size(); ++a) {
        const char la = alphabet_.letter(a);
        if (Status s = checkFinite(gap(a), "gap", la, '-'); !s.ok())
            return s;
        for (Symbol b = 0; b < alphabet_.size(); ++b) {
            const char lb = alphabet_.letter(b);
            if (pair(a, b) == kScoreInfinity) {
                if (allowForbiddenPairs)
                    continue; // missing diagonal edge
                return Status::error(ErrorCode::InvalidArgument,
                                     "pair (", la, ",", lb,
                                     ") is infinite, but this problem "
                                     "kind requires finite pair "
                                     "weights");
            }
            if (Status s = checkFinite(pair(a, b), "pair", la, lb);
                !s.ok())
                return s;
        }
    }
    return Status();
}

bool
ScoreMatrix::operator==(const ScoreMatrix &other) const
{
    // The table holds every pair weight and each gap weight twice
    // (row and column), so comparing it compares every weight.
    return kind_ == other.kind_ && alphabet_ == other.alphabet_ &&
           table == other.table;
}

uint64_t
ScoreMatrix::fingerprint() const
{
    return fingerprint_.get([this] {
        util::Fnv f;
        f.mix(static_cast<uint64_t>(kind_));
        const size_t n = alphabet_.size();
        f.mix(n);
        for (size_t i = 0; i < n; ++i) {
            f.mix(static_cast<unsigned char>(
                alphabet_.letter(static_cast<Symbol>(i))));
            for (size_t j = 0; j < n; ++j)
                f.mix(static_cast<uint64_t>(
                    pair(static_cast<Symbol>(i), static_cast<Symbol>(j))));
            f.mix(static_cast<uint64_t>(gap(static_cast<Symbol>(i))));
        }
        return f.h;
    });
}

std::string
ScoreMatrix::toString() const
{
    std::ostringstream os;
    auto cell = [&](Score s) {
        if (s == kScoreInfinity)
            os << "  inf";
        else
            os << (s >= 0 && s < 10 ? "    " : "   ") << s;
    };
    os << " ";
    for (Symbol b = 0; b < alphabet_.size(); ++b)
        os << "    " << alphabet_.letter(b);
    os << "    _\n";
    for (Symbol a = 0; a <= alphabet_.size(); ++a) {
        os << (a < alphabet_.size() ? alphabet_.letter(a) : '_');
        for (Symbol b = 0; b < alphabet_.size(); ++b) {
            if (a < alphabet_.size())
                cell(pair(a, b));
            else
                cell(gap(b));
        }
        // gap column
        if (a < alphabet_.size())
            cell(gap(a));
        else
            os << "    -";
        os << '\n';
    }
    return os.str();
}

} // namespace racelogic::bio
