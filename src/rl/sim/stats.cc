#include "rl/sim/stats.h"

#include <algorithm>
#include <cmath>

#include "rl/util/logging.h"

namespace racelogic::sim {

namespace {

/**
 * Solve the square system a*x = b in place by Gaussian elimination
 * with partial pivoting.  Sizes here are tiny (<= 5), so numerical
 * sophistication beyond pivoting is unnecessary.
 */
std::vector<double>
solveLinear(std::vector<std::vector<double>> a, std::vector<double> b)
{
    const size_t n = a.size();
    for (size_t col = 0; col < n; ++col) {
        size_t pivot = col;
        for (size_t r = col + 1; r < n; ++r)
            if (std::fabs(a[r][col]) > std::fabs(a[pivot][col]))
                pivot = r;
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        rl_assert(std::fabs(a[col][col]) > 1e-30,
                  "singular system in polynomial fit");
        for (size_t r = col + 1; r < n; ++r) {
            double factor = a[r][col] / a[col][col];
            for (size_t c = col; c < n; ++c)
                a[r][c] -= factor * a[col][c];
            b[r] -= factor * b[col];
        }
    }
    std::vector<double> x(n);
    for (size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (size_t c = i + 1; c < n; ++c)
            acc -= a[i][c] * x[c];
        x[i] = acc / a[i][i];
    }
    return x;
}

} // namespace

std::vector<double>
monomialFit(const std::vector<double> &xs, const std::vector<double> &ys,
            const std::vector<unsigned> &powers)
{
    rl_assert(xs.size() == ys.size(), "mismatched fit inputs");
    rl_assert(xs.size() >= powers.size(),
              "need at least as many points as model terms");
    const size_t terms = powers.size();
    std::vector<std::vector<double>> normal(terms,
                                            std::vector<double>(terms, 0.0));
    std::vector<double> rhs(terms, 0.0);
    for (size_t i = 0; i < xs.size(); ++i) {
        std::vector<double> basis(terms);
        for (size_t t = 0; t < terms; ++t)
            basis[t] = std::pow(xs[i], powers[t]);
        for (size_t r = 0; r < terms; ++r) {
            rhs[r] += basis[r] * ys[i];
            for (size_t c = 0; c < terms; ++c)
                normal[r][c] += basis[r] * basis[c];
        }
    }
    std::vector<double> solution = solveLinear(std::move(normal),
                                               std::move(rhs));
    // Re-expand into a dense coefficient vector indexed by power.
    unsigned max_power = 0;
    for (unsigned p : powers)
        max_power = std::max(max_power, p);
    std::vector<double> dense(max_power + 1, 0.0);
    for (size_t t = 0; t < terms; ++t)
        dense[powers[t]] = solution[t];
    return dense;
}

} // namespace racelogic::sim
