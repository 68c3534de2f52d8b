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
 * reproduced by bench_ablation_encoding.
 *
 * The behavioral race of a similarity matrix (api::RaceEngine,
 * ProblemKind::GeneralizedAlignment) first rewrites it into
 * race-ready costs (rl/bio/score_convert.h), races the edit graph,
 * and maps the winning delay back to the original score.
 */

#ifndef RACELOGIC_CORE_GENERALIZED_H
#define RACELOGIC_CORE_GENERALIZED_H

#include <memory>
#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/circuit/builders.h"
#include "rl/circuit/netlist.h"
#include "rl/circuit/sim_sync.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_grid_circuit.h"

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

/**
 * Gate-level grid of generalized cells over an arbitrary race-ready
 * cost matrix, simulated on the compiled levelized kernel (lane-pack
 * batches with alignLanes; SyncSim stays the reference path via
 * alignReference).
 */
class GeneralizedGridCircuit
{
  public:
    GeneralizedGridCircuit(bio::ScoreMatrix costs, size_t rows,
                           size_t cols,
                           DelayEncoding encoding = DelayEncoding::Binary);

    /** Race one pair; budget defaults to (rows+cols) * N_DR + 2. */
    CircuitRunResult align(const bio::Sequence &a, const bio::Sequence &b,
                           uint64_t max_cycles = 0);

    /**
     * Race up to 64 pairs at once, one per bit-parallel lane, on a
     * private simulator over the shared compile.  const and
     * allocation-local: the engine's batch screening calls this from
     * many pool threads against one cached fabric plan.
     */
    LaneBatchResult alignLanes(const std::vector<LanePair> &lanes,
                               uint64_t max_cycles = 0,
                               KernelCounters *counters = nullptr) const;

    /** Replay a race on the interpretive SyncSim reference path. */
    CircuitRunResult alignReference(const bio::Sequence &a,
                                    const bio::Sequence &b,
                                    uint64_t max_cycles = 0);

    const circuit::Netlist &netlist() const { return net; }

    /** The active (compiled) simulator behind align(). */
    circuit::CompiledSim &sim() { return *simulator; }

    /** The lazily created SyncSim behind alignReference(). */
    circuit::SyncSim &referenceSim();

    const GeneralizedCellSpec &spec() const { return cellSpec; }

    /**
     * Gate inventory of one generalized cell under `encoding`,
     * measured by building a single cell into a scratch netlist --
     * the library's equivalent of a synthesis report.
     */
    static std::array<size_t, circuit::kGateTypeCount>
    cellInventory(const bio::ScoreMatrix &costs, DelayEncoding encoding);

  private:
    circuit::NetId buildEdge(circuit::NetId pred, const circuit::Bus &sel,
                             const std::vector<bio::Score> &weights,
                             DelayEncoding encoding);

    detail::GridFabricView view() const;
    uint64_t defaultBudget() const;

    bio::ScoreMatrix costs;
    GeneralizedCellSpec cellSpec;
    DelayEncoding encoding;
    size_t numRows;
    size_t numCols;
    circuit::Netlist net;
    circuit::NetId go = circuit::kNoNet;
    util::Grid<circuit::NetId> nodeNets;
    std::vector<circuit::Bus> rowSymbols;
    std::vector<circuit::Bus> colSymbols;
    std::unique_ptr<circuit::CompiledNetlist> compiled;
    std::unique_ptr<circuit::CompiledSim> simulator;
    std::unique_ptr<circuit::SyncSim> refSim;
};

} // namespace racelogic::core

#endif // RACELOGIC_CORE_GENERALIZED_H
