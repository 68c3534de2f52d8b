#include "rl/core/grid_fabric.h"

#include <algorithm>

#include "rl/util/bitops.h"
#include "rl/util/grid.h"
#include "rl/util/logging.h"
#include "rl/util/strings.h"

namespace racelogic::core {

namespace {

using circuit::Bus;
using circuit::NetId;
using circuit::Netlist;

/** A fabric under construction: what every builder shares. */
struct Frame {
    Netlist net;
    NetId go = circuit::kNoNet;
    std::vector<Bus> rowSymbols;
    std::vector<Bus> colSymbols;
    util::Grid<NetId> nodes; ///< (rows+1) x (cols+1) node outputs
};

/**
 * The input buses, boundary frame and cell loop of every fabric.
 * Primary inputs are the start signal and one symbol bus per row and
 * per column -- the strings are external conditions, which is what
 * makes the fabric reusable across comparisons.  `edge(net, pred,
 * symbol_bus)` delays a boundary node by one indel, and `cell(frame,
 * i, j)` builds unit cell (i, j) and returns its output.
 */
template <typename Edge, typename Cell>
Frame
buildFrame(size_t rows, size_t cols, unsigned bits, Edge edge, Cell cell)
{
    rl_assert(rows >= 1 && cols >= 1, "grid needs at least one cell");
    Frame f;
    f.go = f.net.input("go");
    for (size_t i = 0; i < rows; ++i)
        f.rowSymbols.push_back(circuit::buildInputBus(
            f.net, util::format("a%zu_", i), bits));
    for (size_t j = 0; j < cols; ++j)
        f.colSymbols.push_back(circuit::buildInputBus(
            f.net, util::format("b%zu_", j), bits));

    f.nodes = util::Grid<NetId>(rows + 1, cols + 1, circuit::kNoNet);
    f.nodes.at(0, 0) = f.go;
    for (size_t j = 1; j <= cols; ++j)
        f.nodes.at(0, j) =
            edge(f.net, f.nodes.at(0, j - 1), f.colSymbols[j - 1]);
    for (size_t i = 1; i <= rows; ++i)
        f.nodes.at(i, 0) =
            edge(f.net, f.nodes.at(i - 1, 0), f.rowSymbols[i - 1]);

    for (size_t i = 1; i <= rows; ++i)
        for (size_t j = 1; j <= cols; ++j)
            f.nodes.at(i, j) = cell(f, i, j);
    return f;
}

/** A cell's three delay elements: top, left, diagonal. */
using CellDffs = std::array<NetId, 3>;

/**
 * The Fig. 4 datapath: indel weight 1 per boundary step, and unit
 * cells (Fig. 4b) OR(top-delayed, left-delayed, match &
 * diag-delayed).  `cell_dffs`, when given, receives each cell's
 * delay elements.
 */
Frame
buildUnitCellFrame(const bio::Alphabet &alphabet, size_t rows,
                   size_t cols, util::Grid<CellDffs> *cell_dffs)
{
    auto delay = [](Netlist &net, NetId pred, const Bus &) {
        return net.dff(pred);
    };
    auto cell = [cell_dffs](Frame &f, size_t i, size_t j) {
        Netlist &net = f.net;
        NetId match = circuit::buildMatchComparator(
            net, f.rowSymbols[i - 1], f.colSymbols[j - 1]);
        NetId top = net.dff(f.nodes.at(i - 1, j));
        NetId left = net.dff(f.nodes.at(i, j - 1));
        NetId diag_delayed = net.dff(f.nodes.at(i - 1, j - 1));
        NetId diag = net.andGate({match, diag_delayed});
        if (cell_dffs)
            cell_dffs->at(i, j) = {top, left, diag_delayed};
        return net.orGate({top, left, diag});
    };
    return buildFrame(rows, cols, std::max(1u, alphabet.bitsPerSymbol()),
                      delay, cell);
}

/**
 * One gating leaf per m x m region (Fig. 7b): the region wakes when
 * a 1 reaches any net entering it and sleeps once all of its cell
 * outputs have latched.
 */
void
gateRegions(Frame &f, size_t region_side,
            const util::Grid<CellDffs> &cell_dffs)
{
    const size_t rows = f.nodes.rows() - 1;
    const size_t cols = f.nodes.cols() - 1;
    const size_t region_rows = util::ceilDiv(rows, region_side);
    const size_t region_cols = util::ceilDiv(cols, region_side);
    Netlist &net = f.net;
    for (size_t rr = 0; rr < region_rows; ++rr) {
        for (size_t rc = 0; rc < region_cols; ++rc) {
            size_t r0 = rr * region_side + 1;
            size_t c0 = rc * region_side + 1;
            size_t r1 = std::min(rows, r0 + region_side - 1);
            size_t c1 = std::min(cols, c0 + region_side - 1);

            // Halo: nodes feeding the region's top/left cells.
            std::vector<NetId> entering;
            for (size_t j = c0 - 1; j <= c1; ++j)
                entering.push_back(f.nodes.at(r0 - 1, j));
            for (size_t i = r0; i <= r1; ++i)
                entering.push_back(f.nodes.at(i, c0 - 1));
            NetId wake = entering.size() == 1
                             ? entering[0]
                             : net.orGate(std::move(entering));

            std::vector<NetId> outputs;
            for (size_t i = r0; i <= r1; ++i)
                for (size_t j = c0; j <= c1; ++j)
                    outputs.push_back(f.nodes.at(i, j));
            NetId all_done = outputs.size() == 1
                                 ? outputs[0]
                                 : net.andGate(std::move(outputs));

            NetId enable = net.andGate({wake, net.notGate(all_done)});
            for (size_t i = r0; i <= r1; ++i)
                for (size_t j = c0; j <= c1; ++j)
                    for (NetId dff : cell_dffs.at(i, j))
                        net.bindDffEnable(dff, enable);
        }
    }
}

/** A generalized cell's sizing and weight tables (Section 5). */
struct GeneralizedWeights {
    GeneralizedCellSpec spec;
    DelayEncoding encoding;
    std::vector<bio::Score> gapBySymbol; ///< indexed by symbol code
    std::vector<bio::Score> pairByCode;  ///< indexed by a + (b << bits)

    GeneralizedWeights(const bio::ScoreMatrix &costs, DelayEncoding enc)
        : spec(GeneralizedCellSpec::fromMatrix(costs)), encoding(enc),
          gapBySymbol(size_t(1) << spec.symbolBits, bio::kScoreInfinity),
          pairByCode(size_t(1) << (2 * spec.symbolBits),
                     bio::kScoreInfinity)
    {
        const bio::Alphabet &alphabet = costs.alphabet();
        for (bio::Symbol s = 0; s < alphabet.size(); ++s)
            gapBySymbol[s] = costs.gap(s);
        for (bio::Symbol a = 0; a < alphabet.size(); ++a)
            for (bio::Symbol b = 0; b < alphabet.size(); ++b)
                pairByCode[a + (size_t(b) << spec.symbolBits)] =
                    costs.pair(a, b);
    }

    /** A symbol-dependent gap edge out of `pred`. */
    NetId
    gap(Netlist &net, NetId pred, const Bus &symbol) const
    {
        return buildWeightApplicator(net, pred, symbol, gapBySymbol, spec,
                                     encoding);
    }

    /**
     * One Fig. 8 cell: gap applicators on the top and left edges, a
     * pair applicator on the diagonal, and the OR.
     */
    NetId
    cell(Netlist &net, NetId top_in, NetId left_in, NetId diag_in,
         const Bus &row, const Bus &col) const
    {
        NetId top = gap(net, top_in, row);
        NetId left = gap(net, left_in, col);
        Bus pair_select = row;
        pair_select.insert(pair_select.end(), col.begin(), col.end());
        NetId diag = buildWeightApplicator(net, diag_in, pair_select,
                                           pairByCode, spec, encoding);
        return net.orGate({top, left, diag});
    }
};

} // namespace

GridFabric::GridFabric(circuit::Netlist netlist, circuit::NetId go,
                       circuit::NetId sink,
                       std::vector<circuit::Bus> row_symbols,
                       std::vector<circuit::Bus> col_symbols,
                       bio::Alphabet alphabet_in, uint64_t budget_in)
    : net(std::make_unique<const circuit::Netlist>(std::move(netlist))),
      compile(std::make_unique<const circuit::CompiledNetlist>(*net)),
      goNet(go), sinkNet(sink), rowSymbols(std::move(row_symbols)),
      colSymbols(std::move(col_symbols)), alphabet(std::move(alphabet_in)),
      budget(budget_in)
{}

GridFabric
GridFabric::unitCells(const bio::Alphabet &alphabet, size_t rows,
                      size_t cols)
{
    Frame f = buildUnitCellFrame(alphabet, rows, cols, nullptr);
    return GridFabric(std::move(f.net), f.go, f.nodes.at(rows, cols),
                      std::move(f.rowSymbols), std::move(f.colSymbols),
                      alphabet, rows + cols + 2);
}

GridFabric
GridFabric::gated(const bio::Alphabet &alphabet, size_t rows, size_t cols,
                  size_t region_side)
{
    rl_assert(region_side >= 1, "region side must be >= 1");
    util::Grid<CellDffs> cell_dffs(
        rows + 1, cols + 1,
        {circuit::kNoNet, circuit::kNoNet, circuit::kNoNet});
    Frame f = buildUnitCellFrame(alphabet, rows, cols, &cell_dffs);
    gateRegions(f, region_side, cell_dffs);
    return GridFabric(std::move(f.net), f.go, f.nodes.at(rows, cols),
                      std::move(f.rowSymbols), std::move(f.colSymbols),
                      alphabet, rows + cols + 2);
}

GridFabric
GridFabric::generalized(const bio::ScoreMatrix &costs, size_t rows,
                        size_t cols, DelayEncoding encoding)
{
    const GeneralizedWeights w(costs, encoding);
    // Boundary chains apply the symbol-dependent gap weights.
    auto gap = [&w](Netlist &net, NetId pred, const Bus &symbol) {
        return w.gap(net, pred, symbol);
    };
    auto cell = [&w](Frame &f, size_t i, size_t j) {
        return w.cell(f.net, f.nodes.at(i - 1, j), f.nodes.at(i, j - 1),
                      f.nodes.at(i - 1, j - 1), f.rowSymbols[i - 1],
                      f.colSymbols[j - 1]);
    };
    Frame f = buildFrame(rows, cols, w.spec.symbolBits, gap, cell);
    const uint64_t budget =
        (rows + cols) * static_cast<uint64_t>(w.spec.dynamicRange) + 2;
    return GridFabric(std::move(f.net), f.go, f.nodes.at(rows, cols),
                      std::move(f.rowSymbols), std::move(f.colSymbols),
                      costs.alphabet(), budget);
}

void
GridFabric::checkPair(const bio::Sequence &a, const bio::Sequence &b) const
{
    rl_assert(a.alphabet() == alphabet && b.alphabet() == alphabet,
              "sequence alphabet does not match the fabric");
    rl_assert(a.size() == rowSymbols.size() && b.size() == colSymbols.size(),
              "this fabric aligns exactly ", rowSymbols.size(), " x ",
              colSymbols.size(), " symbols (got ", a.size(), " x ",
              b.size(), ")");
}

LaneBatchResult
GridFabric::alignLanes(const std::vector<LanePair> &lanes,
                       uint64_t max_cycles, KernelCounters *counters) const
{
    rl_assert(!lanes.empty() && lanes.size() <= 64,
              "lane-packed races take 1..64 pairs (got ", lanes.size(),
              ")");
    circuit::CompiledSim sim(*compile, static_cast<unsigned>(lanes.size()));
    for (unsigned lane = 0; lane < lanes.size(); ++lane)
        drivePair(*lanes[lane].a, *lanes[lane].b,
                  [&sim, lane](NetId input, bool value) {
                      sim.setInputLane(input, lane, value);
                  });
    sim.setInput(goNet, true);

    std::array<uint64_t, 64> arrival;
    sim.raceLanes(sinkNet, max_cycles == 0 ? budget : max_cycles, arrival,
                  counters);

    LaneBatchResult out;
    out.cyclesRun = sim.cycle();
    out.activity = sim.activity();
    out.lanes.reserve(lanes.size());
    for (unsigned lane = 0; lane < lanes.size(); ++lane) {
        CircuitRunResult r;
        r.cyclesRun = out.cyclesRun;
        if (arrival[lane] != circuit::kLaneNever) {
            r.completed = true;
            r.score = static_cast<bio::Score>(arrival[lane]);
        }
        out.lanes.push_back(r);
    }
    return out;
}

std::array<size_t, circuit::kGateTypeCount>
unitCellInventory(unsigned symbol_bits)
{
    std::array<size_t, circuit::kGateTypeCount> inv{};
    auto slot = [&inv](circuit::GateType t) -> size_t & {
        return inv[static_cast<size_t>(t)];
    };
    slot(circuit::GateType::Dff) = 3;  // top, left, diagonal delays
    slot(circuit::GateType::Or) = 1;   // the min node
    // diagonal gating AND + comparator AND (multi-bit symbols only)
    slot(circuit::GateType::And) = symbol_bits > 1 ? 2 : 1;
    slot(circuit::GateType::Xnor) = symbol_bits; // Eq. 2 comparator
    return inv;
}

std::array<size_t, circuit::kGateTypeCount>
generalizedCellInventory(const bio::ScoreMatrix &costs,
                         DelayEncoding encoding)
{
    const GeneralizedWeights w(costs, encoding);
    const unsigned bits = w.spec.symbolBits;
    Netlist scratch;
    NetId pred = scratch.input("pred");
    Bus sym_a = circuit::buildInputBus(scratch, "a", bits);
    Bus sym_b = circuit::buildInputBus(scratch, "b", bits);
    w.cell(scratch, pred, pred, pred, sym_a, sym_b);

    auto counts = scratch.typeCounts();
    // Inputs are shared fabric wiring, not per-cell hardware.
    counts[static_cast<size_t>(circuit::GateType::Input)] = 0;
    return counts;
}

} // namespace racelogic::core
