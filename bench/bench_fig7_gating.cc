/**
 * @file
 * Reproduces Figure 7 / Eq. 6 / Eq. 7: the clock-gating granularity
 * trade-off.  Sweeps the multi-cell-region side m for several string
 * lengths, prints the Eq. 6 energy curve, the closed-form Eq. 7
 * optimum against a numeric argmin, and cross-checks the analytic
 * model against measured per-region windows from real races.
 */

#include <cmath>
#include <iostream>

#include "rl/bio/sequence.h"
#include "rl/core/clock_gating.h"
#include "rl/core/grid_fabric.h"
#include "rl/core/race_grid.h"
#include "rl/tech/energy_model.h"
#include "rl/util/random.h"
#include "rl/util/strings.h"
#include "rl/util/table.h"

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using tech::CellLibrary;
using tech::ClockMode;
using tech::RaceCase;

int
main()
{
    const CellLibrary &lib = CellLibrary::amis();

    for (size_t n : {16u, 32u, 64u, 128u}) {
        util::printBanner(
            std::cout,
            util::format("Eq. 6 energy vs gating granularity m, "
                         "N = %zu (AMIS, worst case)",
                         n));
        util::TextTable table({"m", "clock pJ", "gate overhead pJ",
                               "data pJ", "total pJ"});
        for (size_t m = 1; m <= n; m *= 2) {
            auto e = tech::raceAnalyticEnergy(lib, n, RaceCase::Worst,
                                              ClockMode::Gated, m);
            table.row(m, e.clockJ * 1e12, e.gatingJ * 1e12,
                      e.dataJ * 1e12, e.totalJ() * 1e12);
        }
        auto ungated = tech::raceAnalyticEnergy(lib, n, RaceCase::Worst);
        table.row("inf (ungated)", ungated.clockJ * 1e12, 0.0,
                  ungated.dataJ * 1e12, ungated.totalJ() * 1e12);
        table.print(std::cout);
        double closed = tech::optimalGatingGranularity(lib, n);
        size_t numeric = tech::numericOptimalGranularity(lib, n);
        std::cout << "Eq. 7 closed-form m* = " << closed
                  << "  |  numeric argmin m = " << numeric << '\n';
    }

    util::printBanner(std::cout,
                      "Measured region windows vs the 2m-2 analytic "
                      "crossing time (real worst-case races)");
    util::Rng rng(7);
    core::RaceGridAligner racer(
        ScoreMatrix::dnaShortestPathInfMismatch());
    util::TextTable measured({"N", "m", "max window cycles",
                              "analytic 2m-2", "gated/ungated clock"});
    for (size_t n : {16u, 32u, 64u}) {
        auto [a, b] = bio::worstCasePair(rng, Alphabet::dna(), n);
        core::RaceGridResult race = racer.align(a, b);
        for (size_t m : {2u, 4u, 8u}) {
            core::GatingAnalysis g = core::analyzeClockGating(race, m);
            sim::Tick widest = 0;
            for (size_t r = 0; r < g.windows.rows(); ++r)
                for (size_t c = 0; c < g.windows.cols(); ++c)
                    widest = std::max(widest,
                                      g.windows.at(r, c).activeCycles());
            measured.row(n, m, widest, 2 * m - 2,
                         g.clockActivityRatio());
        }
    }
    measured.print(std::cout);
    std::cout << "(measured windows = 2m-2 crossing + wake/latch "
                 "edges; the H-tree of Fig. 7c gates whole regions)\n";

    util::printBanner(std::cout,
                      "Gate-level gating: real enable logic "
                      "(GatedRaceGridCircuit) vs un-gated fabric");
    util::TextTable gate_level({"N", "m", "score ok",
                                "ungated DFF clocks",
                                "gated DFF clocks", "ratio",
                                "gating gates"});
    for (size_t n : {8u, 12u, 16u}) {
        auto [a, b] = bio::worstCasePair(rng, Alphabet::dna(), n);
        const core::GridFabric plain =
            core::GridFabric::unitCells(Alphabet::dna(), n, n);
        circuit::CompiledSim plain_sim(plain.compiled());
        auto r_plain = core::raceFabricPair(plain_sim, plain, a, b);
        for (size_t m : {2u, 4u}) {
            const core::GridFabric gated =
                core::GridFabric::gated(Alphabet::dna(), n, n, m);
            circuit::CompiledSim gated_sim(gated.compiled());
            auto r_gated = core::raceFabricPair(gated_sim, gated, a, b);
            uint64_t ungated_clocks =
                plain_sim.activity().clockedDffCycles;
            uint64_t gated_clocks =
                gated_sim.activity().clockedDffCycles;
            gate_level.row(
                n, m,
                (r_gated.completed &&
                 r_gated.score == r_plain.score)
                    ? "yes"
                    : "NO",
                ungated_clocks, gated_clocks,
                double(gated_clocks) / double(ungated_clocks),
                // The gated builder adds its gating leaves after the
                // plain datapath.
                gated.netlist().gateCount() - plain.netlist().gateCount());
        }
    }
    gate_level.print(std::cout);
    std::cout << "(scores are bit-identical; only the clock activity "
                 "changes -- Eq. 6 realized in gates)\n";
    return 0;
}
