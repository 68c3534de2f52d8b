/**
 * @file
 * Generalized Race Logic (paper Section 5, Fig. 8).
 *
 * Modern score matrices (BLOSUM62, PAM250) have symbol-dependent
 * weights spanning a dynamic range N_DR >> 1.  The generalized cell
 * realizes a weight-w edge as: the predecessor's rising edge enables
 * a binary *saturating up-counter*; equality taps detect each
 * distinct weight; a multiplexer addressed by the encoded alphabet
 * selects the desired tap; and a set-on-arrival latch turns the tap
 * pulse into a held level.  A one-hot alternative (a tapped DFF
 * chain) trades N_DR flip-flops against the counter's log2(N_DR)
 * flip-flops plus comparators -- the Section 5 area trade-off
 * reproduced by bench_ablation_encoding.  core::GridFabric::generalized
 * (rl/core/grid_fabric.h) builds a race grid of these cells.
 *
 * The behavioral race of a similarity matrix (api::RaceEngine,
 * ProblemKind::GeneralizedAlignment) first rewrites it into
 * race-ready costs (rl/bio/score_convert.h), races the edit graph,
 * and maps the winning delay back to the original score.
 */

#ifndef RACELOGIC_CORE_GENERALIZED_H
#define RACELOGIC_CORE_GENERALIZED_H

#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/circuit/builders.h"
#include "rl/circuit/netlist.h"

namespace racelogic::core {

/** Delay-element encoding inside a cell (Section 5 trade-off). */
enum class DelayEncoding {
    OneHot, ///< tapped DFF chain: N_DR flip-flops, no comparators
    Binary, ///< saturating counter: log2 flip-flops + equality taps
};

/** Hardware sizing of a generalized cell for a given cost matrix. */
struct GeneralizedCellSpec {
    bio::Score dynamicRange = 0;   ///< N_DR
    unsigned counterBits = 0;      ///< ceil(log2(N_DR + 1))
    unsigned symbolBits = 0;       ///< encoding width per string
    std::vector<bio::Score> distinctPairWeights; ///< finite, ascending
    std::vector<bio::Score> distinctGapWeights;  ///< ascending
    bool hasForbiddenPairs = false;

    /** Derive the sizing from a race-ready cost matrix. */
    static GeneralizedCellSpec fromMatrix(const bio::ScoreMatrix &costs);
};

/**
 * Build the weight applicator for one incoming edge (the Fig. 8
 * structure): delays `pred` by weight_by_index[select], holding the
 * output high once fired.  Index values whose weight is
 * kScoreInfinity never fire (missing edge).
 *
 * @param netlist          Target netlist.
 * @param pred             Predecessor node's output net.
 * @param select           Select bus (symbol or symbol-pair code).
 * @param weight_by_index  Weight for each select code; indexes past
 *                         the vector behave as forbidden.
 * @param spec             Cell sizing (counter width, N_DR).
 * @param encoding         Binary counter or one-hot chain.
 */
circuit::NetId buildWeightApplicator(
    circuit::Netlist &netlist, circuit::NetId pred,
    const circuit::Bus &select,
    const std::vector<bio::Score> &weight_by_index,
    const GeneralizedCellSpec &spec, DelayEncoding encoding);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_GENERALIZED_H
