/**
 * @file
 * Reproduces Figure 4: the OR-type synchronous Race Logic grid for
 * N = M = 7, the cycle-by-cycle propagation table for the paper's
 * example strings (Fig. 4c), and the gate-level fabric's statistics.
 */

#include <iostream>

#include "rl/bio/align_dp.h"
#include "rl/core/grid_fabric.h"
#include "rl/core/race_grid.h"
#include "rl/tech/area_model.h"
#include "rl/tech/cell_library.h"
#include "rl/util/table.h"

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;

int
main()
{
    Sequence p(Alphabet::dna(), "ACTGAGA");
    Sequence q(Alphabet::dna(), "GATTCGA");

    util::printBanner(std::cout,
                      "Fig. 4c: propagation table (cycle at which "
                      "each node's OR output fires)");
    core::RaceGridAligner racer(
        ScoreMatrix::dnaShortestPathInfMismatch());
    core::RaceGridResult result = racer.align(q, p);
    std::cout << "     A C T G A G A   (P along columns)\n"
              << result.arrivalTable()
              << "score (sink arrival) = " << result.score
              << " cycles\n";

    util::printBanner(std::cout,
                      "Fig. 4a: gate-level fabric, N = M = 7");
    const core::GridFabric fabric =
        core::GridFabric::unitCells(Alphabet::dna(), 7, 7);
    circuit::CompiledSim sim(fabric.compiled());
    auto run = core::raceFabricPair(sim, fabric, q, p);
    auto counts = fabric.netlist().typeCounts();
    util::TextTable hw({"metric", "value"});
    hw.row("gate-level score", run.score);
    hw.row("total gates", fabric.netlist().gateCount());
    hw.row("DFF delay elements",
           counts[size_t(circuit::GateType::Dff)]);
    hw.row("OR cells", counts[size_t(circuit::GateType::Or)]);
    hw.row("XNOR comparators (Eq. 2)",
           counts[size_t(circuit::GateType::Xnor)]);
    hw.row("AMIS area um2",
           tech::raceGridArea(tech::CellLibrary::amis(), 7, 7, 2)
               .totalUm2);
    hw.print(std::cout);

    util::printBanner(std::cout,
                      "Unit cell inventory (Fig. 4b: OR + 3 DFF + "
                      "AND + XNOR comparator)");
    auto cell = core::unitCellInventory(2);
    util::TextTable cell_table({"gate", "count"});
    for (size_t t = 0; t < circuit::kGateTypeCount; ++t)
        if (cell[t])
            cell_table.row(
                circuit::gateTypeName(circuit::GateType(t)), cell[t]);
    cell_table.print(std::cout);
    return 0;
}
