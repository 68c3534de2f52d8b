/**
 * @file
 * The gate-level Race Logic aligner: one rows x cols grid fabric.
 *
 * This is the synthesizable artifact of the case study.  Every
 * fabric is the same array of unit cells over the same primary
 * inputs -- a start signal plus one symbol bus per row and per column
 * -- so the hardware is reused across comparisons ("weights of some
 * (or all) edges are controlled by external conditions").  What sits
 * inside a cell is the builder's choice:
 *
 *  - unitCells(): the Fig. 4a/4b cell -- an OR gate, three DFF delay
 *    elements, the diagonal-gating AND and the XNOR match comparator
 *    of Eq. 2.  It implements the Fig. 2b cost matrix with the
 *    mismatch weight raised to infinity (missing diagonal edge), which
 *    the paper shows -- and our tests verify -- is score-equivalent.
 *  - gated(): the same datapath, partitioned into m x m regions whose
 *    clock enables are real gates (§4.3, Fig. 7).  A region wakes when
 *    a Boolean "1" reaches any net entering it and sleeps once every
 *    cell output inside it has latched high, after which its state can
 *    never change again.  The simulators charge clock energy only to
 *    enabled DFFs, so the measured clockedDffCycles of this fabric is
 *    the gated C_clk activity of Eq. 6.
 *  - generalized(): the Fig. 8 weight applicators over any race-ready
 *    cost matrix (Section 5).
 *
 * A fabric is immutable and holds no simulator.  A one-pair race runs
 * on a simulator the caller owns, through raceFabricPair(): a
 * circuit::CompiledSim over compiled() (the levelized event-driven
 * kernel), or a circuit::SyncSim over netlist() (the interpretive
 * reference).  alignLanes() packs up to 64 independent pairs into the
 * bit-parallel lanes of a private simulator -- the database-screening
 * configuration.  Both are safe on one fabric from many threads.
 */

#ifndef RACELOGIC_CORE_GRID_FABRIC_H
#define RACELOGIC_CORE_GRID_FABRIC_H

#include <array>
#include <memory>
#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/circuit/builders.h"
#include "rl/circuit/compiled_sim.h"
#include "rl/circuit/netlist.h"
#include "rl/circuit/sim_sync.h"
#include "rl/core/generalized.h"

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

/**
 * A synthesized rows x cols race grid; aligns any string pair of
 * exactly (rows, cols) symbols over its alphabet.
 *
 * Move-only.  The netlist and its compile live on the heap, so a
 * moved fabric -- and any simulator built over it -- stays valid.
 */
class GridFabric
{
  public:
    /**
     * The Fig. 4a/4b fabric.
     *
     * @param alphabet  Symbol set (determines comparator width).
     * @param rows      Length of the first (vertical) string.
     * @param cols      Length of the second (horizontal) string.
     */
    static GridFabric unitCells(const bio::Alphabet &alphabet,
                                size_t rows, size_t cols);

    /**
     * The Fig. 4 datapath plus one clock-gating leaf per m x m region
     * (Fig. 7b).  The boundary frame stays un-gated: it is O(N) of
     * the O(N^2) fabric, and the paper gates the cell array.
     *
     * @param region_side  Gating granularity m (Fig. 7a).
     */
    static GridFabric gated(const bio::Alphabet &alphabet, size_t rows,
                            size_t cols, size_t region_side);

    /** Fig. 8 generalized cells over a race-ready cost matrix. */
    static GridFabric
    generalized(const bio::ScoreMatrix &costs, size_t rows, size_t cols,
                DelayEncoding encoding = DelayEncoding::Binary);

    /**
     * Race up to 64 pairs at once, one per bit-parallel lane, on a
     * private simulator over the shared compile.  const and
     * allocation-local, so batch screening may call it from many
     * threads concurrently.
     *
     * @param max_cycles  Cycle budget; 0 = defaultBudget().  A lower
     *                    budget implements Section 6's threshold
     *                    screening.
     * @param counters    nullptr = off; otherwise accumulates the
     *                    packed run's profiling counts -- one lock-step
     *                    sweep shared by every lane (see
     *                    CompiledSim::raceLanes).  The simulated values
     *                    are identical either way.
     */
    LaneBatchResult alignLanes(const std::vector<LanePair> &lanes,
                               uint64_t max_cycles = 0,
                               KernelCounters *counters = nullptr) const;

    /**
     * fatal() unless (a, b) fit the fabric; then call
     * `drive(input, bit)` for every symbol input bit of the pair.
     */
    template <typename Drive>
    void
    drivePair(const bio::Sequence &a, const bio::Sequence &b,
              Drive &&drive) const
    {
        checkPair(a, b);
        for (size_t i = 0; i < rowSymbols.size(); ++i)
            for (size_t bit = 0; bit < rowSymbols[i].size(); ++bit)
                drive(rowSymbols[i][bit], (a[i] >> bit) & 1);
        for (size_t j = 0; j < colSymbols.size(); ++j)
            for (size_t bit = 0; bit < colSymbols[j].size(); ++bit)
                drive(colSymbols[j][bit], (b[j] >> bit) & 1);
    }

    /** The start signal (primary input) and the sink node's net. */
    circuit::NetId go() const { return goNet; }
    circuit::NetId sink() const { return sinkNet; }

    /**
     * Cycles a full race may take: rows + cols + 2 for unit cells,
     * (rows + cols) * N_DR + 2 for generalized ones.
     */
    uint64_t defaultBudget() const { return budget; }

    const circuit::Netlist &netlist() const { return *net; }

    /** The one-time compile every CompiledSim over this fabric shares. */
    const circuit::CompiledNetlist &compiled() const { return *compile; }

  private:
    /** Compile (and so validate) a built netlist; the shape is the
     *  bus counts. */
    GridFabric(circuit::Netlist netlist, circuit::NetId go,
               circuit::NetId sink, std::vector<circuit::Bus> row_symbols,
               std::vector<circuit::Bus> col_symbols,
               bio::Alphabet alphabet, uint64_t budget);

    void checkPair(const bio::Sequence &a, const bio::Sequence &b) const;

    std::unique_ptr<const circuit::Netlist> net;
    std::unique_ptr<const circuit::CompiledNetlist> compile;
    circuit::NetId goNet;
    circuit::NetId sinkNet;
    std::vector<circuit::Bus> rowSymbols; ///< per row i: symbol bus
    std::vector<circuit::Bus> colSymbols; ///< per col j: symbol bus
    bio::Alphabet alphabet;
    uint64_t budget;
};

/**
 * Race one pair on a caller-owned simulator: reset it, drive the
 * pair's symbols onto the input buses, raise go, and run to the sink.
 * `sim` is a circuit::CompiledSim over fabric.compiled() or a
 * circuit::SyncSim over fabric.netlist(); its activity accumulates
 * across races until the caller clears it.
 *
 * @param max_cycles  Cycle budget; 0 = fabric.defaultBudget().
 */
template <typename Sim>
CircuitRunResult
raceFabricPair(Sim &sim, const GridFabric &fabric, const bio::Sequence &a,
               const bio::Sequence &b, uint64_t max_cycles = 0)
{
    sim.reset();
    fabric.drivePair(a, b, [&sim](circuit::NetId input, bool value) {
        sim.setInput(input, value);
    });
    sim.setInput(fabric.go(), true);

    CircuitRunResult result;
    auto fired = sim.runUntil(
        fabric.sink(), true,
        max_cycles == 0 ? fabric.defaultBudget() : max_cycles);
    result.cyclesRun = sim.cycle();
    if (fired) {
        result.completed = true;
        result.score = static_cast<bio::Score>(*fired);
    }
    return result;
}

/**
 * Gate inventory of a single Fig. 4b unit cell (3 DFFs, OR3, diagonal
 * AND, and a symbolBits-wide XNOR comparator + AND), used by the
 * technology area/energy models.
 */
std::array<size_t, circuit::kGateTypeCount>
unitCellInventory(unsigned symbol_bits);

/**
 * Gate inventory of one generalized cell under `encoding`, measured
 * by building a single cell into a scratch netlist -- the library's
 * equivalent of a synthesis report.
 */
std::array<size_t, circuit::kGateTypeCount>
generalizedCellInventory(const bio::ScoreMatrix &costs,
                         DelayEncoding encoding);

} // namespace racelogic::core

#endif // RACELOGIC_CORE_GRID_FABRIC_H
