/**
 * @file
 * Gate-level synchronous Race Logic aligner (paper Fig. 4a/4b).
 *
 * This is the synthesizable artifact of the case study: a rows x
 * cols fabric of unit cells, each hosting an OR gate, three DFF
 * delay elements, the diagonal-gating AND, and the XNOR match
 * comparator of Eq. 2.  It implements the Fig. 2b cost matrix with
 * the mismatch weight raised to infinity (missing diagonal edge),
 * which the paper shows -- and our tests verify -- is
 * score-equivalent.
 *
 * The same hardware is reused across comparisons: the strings are
 * primary inputs ("weights of some (or all) edges are controlled by
 * external conditions"), and the fabric is reset between runs.
 *
 * Simulation runs on the compiled levelized kernel
 * (rl/circuit/compiled_sim.h): align() races one pair on the
 * event-driven frontier, and alignLanes() packs up to 64 independent
 * pairs into the bit-parallel lanes of one simulation -- the
 * database-screening configuration.  alignReference() replays a race
 * on the interpretive SyncSim, which stays the tested reference and
 * the debug/inspection path.
 */

#ifndef RACELOGIC_CORE_RACE_GRID_CIRCUIT_H
#define RACELOGIC_CORE_RACE_GRID_CIRCUIT_H

#include <memory>
#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/circuit/builders.h"
#include "rl/circuit/compiled_sim.h"
#include "rl/circuit/netlist.h"
#include "rl/circuit/sim_sync.h"
#include "rl/sim/tick.h"
#include "rl/util/grid.h"

namespace racelogic::core {

struct KernelCounters; // rl/core/kernel_counters.h

/** Outcome of one gate-level race. */
struct CircuitRunResult {
    /** Alignment score (sink arrival cycle); kScoreInfinity if the
     *  sink did not fire within the cycle budget. */
    bio::Score score = bio::kScoreInfinity;

    /** Cycles actually simulated. */
    uint64_t cyclesRun = 0;

    /** True iff the sink fired. */
    bool completed = false;
};

/** One lane of a packed gate-level race (borrowed sequences). */
struct LanePair {
    const bio::Sequence *a = nullptr;
    const bio::Sequence *b = nullptr;
};

/** Outcome of a lane-packed gate-level race. */
struct LaneBatchResult {
    /** Per-lane outcomes, in input order. */
    std::vector<CircuitRunResult> lanes;

    /** Lock-step cycles ticked (max over lanes, budget-clamped). */
    uint64_t cyclesRun = 0;

    /**
     * Lane-summed switching activity of the packed word: the Eq. 3
     * inputs for the whole batch (equal to the sum of the lanes run
     * individually in lock-step for the same cyclesRun).
     */
    circuit::Activity activity;
};

namespace detail {

/**
 * The slice of a grid fabric the shared race drivers need: every
 * rows x cols fabric in this library (plain, gated, generalized)
 * exposes the same go / symbol-bus / sink-net interface.
 */
struct GridFabricView {
    const circuit::CompiledNetlist *compiled = nullptr;
    circuit::NetId go = circuit::kNoNet;
    circuit::NetId sink = circuit::kNoNet;
    const std::vector<circuit::Bus> *rowSymbols = nullptr;
    const std::vector<circuit::Bus> *colSymbols = nullptr;
    unsigned symbolBits = 1;
    const bio::Alphabet *alphabet = nullptr;
    size_t rows = 0;
    size_t cols = 0;
};

/** fatal() unless (a, b) fit the fabric. */
void checkFabricPair(const GridFabricView &view, const bio::Sequence &a,
                     const bio::Sequence &b);

/**
 * Reset `sim`, broadcast the pair's symbols onto the input buses,
 * raise go, and race to the sink: the one-pair driver shared by the
 * compiled (align) and reference (alignReference) paths.
 */
template <typename Sim>
CircuitRunResult
raceFabricPair(Sim &sim, const GridFabricView &view,
               const bio::Sequence &a, const bio::Sequence &b,
               uint64_t max_cycles)
{
    checkFabricPair(view, a, b);
    sim.reset();
    for (size_t i = 0; i < view.rows; ++i)
        for (unsigned bit = 0; bit < view.symbolBits; ++bit)
            sim.setInput((*view.rowSymbols)[i][bit],
                         (a[i] >> bit) & 1);
    for (size_t j = 0; j < view.cols; ++j)
        for (unsigned bit = 0; bit < view.symbolBits; ++bit)
            sim.setInput((*view.colSymbols)[j][bit],
                         (b[j] >> bit) & 1);
    sim.setInput(view.go, true);

    CircuitRunResult result;
    auto fired = sim.runUntil(view.sink, true, max_cycles);
    result.cyclesRun = sim.cycle();
    if (fired) {
        result.completed = true;
        result.score = static_cast<bio::Score>(*fired);
    }
    return result;
}

/**
 * Race up to 64 pairs lock-step on a fresh bit-parallel simulator
 * over the fabric's shared compile (thread-safe: the compile is
 * immutable, the per-call sim state is local).
 *
 * `counters` (nullptr = off) accumulates the packed run's profiling
 * counts -- one lock-step sweep shared by every lane (see
 * CompiledSim::raceLanes); the simulated values are identical either
 * way.
 */
LaneBatchResult raceFabricLanes(const GridFabricView &view,
                                const std::vector<LanePair> &lanes,
                                uint64_t max_cycles,
                                KernelCounters *counters = nullptr);

} // namespace detail

/**
 * A fixed-size gate-level race grid; align any string pair of
 * exactly (rows, cols) symbols over the construction alphabet.
 */
class RaceGridCircuit
{
  public:
    /**
     * Build the fabric.
     *
     * @param alphabet  Symbol set (determines comparator width).
     * @param rows      Length of the first (vertical) string.
     * @param cols      Length of the second (horizontal) string.
     */
    RaceGridCircuit(const bio::Alphabet &alphabet, size_t rows,
                    size_t cols);

    /**
     * Race one string pair on the compiled kernel.  Resets the
     * fabric, loads the symbols, injects the start signal, and steps
     * until the sink fires.
     *
     * @param max_cycles  Optional cycle budget (default: worst case
     *                    rows + cols, plus margin).  A lower budget
     *                    implements Section 6's threshold screening.
     */
    CircuitRunResult align(const bio::Sequence &a, const bio::Sequence &b,
                           uint64_t max_cycles = 0);

    /**
     * Race up to 64 pairs at once, one per bit-parallel lane, on a
     * private simulator.  const and allocation-local, so batch
     * screening may call it from many threads concurrently.
     */
    LaneBatchResult alignLanes(const std::vector<LanePair> &lanes,
                               uint64_t max_cycles = 0,
                               KernelCounters *counters = nullptr) const;

    /**
     * Replay a race on the interpretive SyncSim (the reference /
     * debug path; activity lands in referenceSim().activity()).
     */
    CircuitRunResult alignReference(const bio::Sequence &a,
                                    const bio::Sequence &b,
                                    uint64_t max_cycles = 0);

    /** Firing cycle of every grid node from the last align() call. */
    util::Grid<racelogic::sim::Tick> arrivalMap();

    size_t rows() const { return numRows; }
    size_t cols() const { return numCols; }

    const circuit::Netlist &netlist() const { return net; }

    /** The shared one-time compile align()/alignLanes() run on. */
    const circuit::CompiledNetlist &compiledNetlist() const
    {
        return *compiled;
    }

    /** The active (compiled) simulator behind align(). */
    circuit::CompiledSim &sim() { return *simulator; }

    /** The lazily created SyncSim behind alignReference(). */
    circuit::SyncSim &referenceSim();

    /**
     * Gate inventory of a single unit cell (3 DFFs, OR3, diagonal
     * AND, and a symbolBits-wide XNOR comparator + AND), used by the
     * technology area/energy models.
     */
    static std::array<size_t, circuit::kGateTypeCount>
    unitCellInventory(unsigned symbol_bits);

  private:
    detail::GridFabricView view() const;

    size_t numRows;
    size_t numCols;
    bio::Alphabet alphabet;
    circuit::Netlist net;
    circuit::NetId go = circuit::kNoNet;
    util::Grid<circuit::NetId> nodeNets;     ///< (rows+1) x (cols+1)
    std::vector<circuit::Bus> rowSymbols;    ///< per row i: symbol bus
    std::vector<circuit::Bus> colSymbols;    ///< per col j: symbol bus
    std::unique_ptr<circuit::CompiledNetlist> compiled;
    std::unique_ptr<circuit::CompiledSim> simulator;
    std::unique_ptr<circuit::SyncSim> refSim; ///< lazy debug path
};

} // namespace racelogic::core

#endif // RACELOGIC_CORE_RACE_GRID_CIRCUIT_H
