/**
 * @file
 * Export a synthesizable Race Logic fabric as structural Verilog.
 *
 *   $ ./export_verilog [rows] [cols] [out.v]
 *
 * Emits the Fig. 4 unit-cell grid as a Verilog-2001 module (clk/rst,
 * per-row/column symbol inputs, done output) -- the artifact the
 * paper pushed through Synopsys Design Vision.  Also prints the gate
 * inventory so the area numbers in rl/tech can be compared with a
 * real synthesis report.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "rl/api/api.h"
#include "rl/circuit/verilog.h"
#include "rl/core/grid_fabric.h"
#include "rl/tech/area_model.h"
#include "rl/util/random.h"
#include "rl/util/strings.h"
#include "rl/util/table.h"

using namespace racelogic;

int
main(int argc, char **argv)
{
    size_t rows = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 7;
    size_t cols = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 7;
    std::string path =
        argc > 3 ? argv[3] : "/tmp/race_grid.v";
    if (rows < 1 || cols < 1 || rows > 64 || cols > 64) {
        std::cerr << "usage: export_verilog [rows 1..64] [cols 1..64] "
                     "[out.v]\n";
        return 1;
    }

    const core::GridFabric fabric =
        core::GridFabric::unitCells(bio::Alphabet::dna(), rows, cols);

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << '\n';
        return 1;
    }
    circuit::writeVerilog(out, fabric.netlist(),
                          util::format("race_grid_%zux%zu", rows, cols),
                          {{"done", fabric.sink()}});

    auto counts = fabric.netlist().typeCounts();
    util::printBanner(std::cout, "wrote " + path);
    util::TextTable table({"metric", "value"});
    table.row("module",
              util::format("race_grid_%zux%zu", rows, cols));
    table.row("total gates", fabric.netlist().gateCount());
    table.row("DFFs", counts[size_t(circuit::GateType::Dff)]);
    table.row("OR cells", counts[size_t(circuit::GateType::Or)]);
    table.row("XNOR comparators",
              counts[size_t(circuit::GateType::Xnor)]);
    table.row("model area (AMIS, um2)",
              tech::raceGridArea(tech::CellLibrary::amis(), rows, cols,
                                 2)
                  .totalUm2);
    table.print(std::cout);

    // Validate the exported shape through the unified engine: a
    // gate-level solve synthesizes a same-shape fabric, races it,
    // and asserts agreement with the behavioral model.
    util::Rng rng(14);
    bio::Sequence a =
        bio::Sequence::random(rng, bio::Alphabet::dna(), rows);
    bio::Sequence b =
        bio::Sequence::random(rng, bio::Alphabet::dna(), cols);
    api::EngineConfig hardware;
    hardware.backend = api::BackendKind::GateLevel;
    api::RaceEngine engine(hardware);
    api::RaceResult check = engine.solve(api::RaceProblem::pairwiseAlignment(
        bio::ScoreMatrix::dnaShortestPathInfMismatch(), a, b));
    std::cout << "\ngate-level cross-check via api::RaceEngine: "
              << a.str() << " vs " << b.str() << " -> score "
              << check.score << " in " << check.latencyCycles
              << " cycles (fabric and behavioral model agree)\n";

    std::cout << "\nUsage of the module: deassert rst, drive the "
                 "symbol buses,\nraise 'go'; count cycles until "
                 "'done' rises -- that count is\nthe alignment "
                 "score.\n";
    return 0;
}
