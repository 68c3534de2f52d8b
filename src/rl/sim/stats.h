/**
 * @file
 * Least-squares fitting for the figure benches.
 *
 * One fit: the constrained monomial fit that regenerates the paper's
 * Eq. 5 (energy-vs-N polynomials fitted to simulated points, in
 * bench_fig5_scaling).
 */

#ifndef RACELOGIC_SIM_STATS_H
#define RACELOGIC_SIM_STATS_H

#include <vector>

namespace racelogic::sim {

/**
 * Constrained monomial fit y = sum_{k in powers} c[k] * x^k.
 *
 * The paper fits energy to exactly aN^3 + bN^2 (no constant or linear
 * term); this fit reproduces that model family directly.  Solves the
 * normal equations by Gaussian elimination with partial pivoting,
 * which is ample for a handful of terms.
 *
 * @return Coefficients indexed by power, c[0..max(powers)]; powers
 *         outside the model are 0.
 */
std::vector<double> monomialFit(const std::vector<double> &xs,
                                const std::vector<double> &ys,
                                const std::vector<unsigned> &powers);

} // namespace racelogic::sim

#endif // RACELOGIC_SIM_STATS_H
