/**
 * @file
 * Reproduces Figure 9 (AMIS library): (a) throughput per cm^2 vs N,
 * (b) power density vs N against the ITRS 200 W/cm^2 ceiling, and
 * (c) the energy-delay scatter at N = 30 -- plus a measured-activity
 * panel that backs the analytic curves with switching activity
 * simulated on the compiled gate-level kernel
 * (rl/circuit/compiled_sim.h), which is fast enough to sweep the
 * synthesized fabric to N >= 128 (the interpretive SyncSim capped
 * this panel at toy sizes).
 */

#include <iostream>

#include "rl/bio/sequence.h"
#include "rl/core/grid_fabric.h"
#include "rl/tech/energy_model.h"
#include "rl/tech/metrics.h"
#include "rl/util/random.h"
#include "rl/util/table.h"

using namespace racelogic;
using tech::CellLibrary;
using tech::ClockMode;
using tech::DesignPoint;
using tech::RaceCase;

namespace {

const std::vector<size_t> kSweep{4, 8, 12, 16, 20, 30, 40, 50, 60,
                                 70, 80, 90, 100};

void
throughputPanel(const CellLibrary &lib)
{
    util::printBanner(std::cout,
                      "Fig. 9a: throughput (patterns/sec/cm^2) vs N, " +
                          lib.name);
    util::TextTable table({"N", "race best", "race worst", "systolic",
                           "best/sys"});
    size_t crossover = 0;
    for (size_t n : kSweep) {
        auto best = tech::raceDesignPoint(lib, n, RaceCase::Best);
        auto worst = tech::raceDesignPoint(lib, n, RaceCase::Worst);
        auto sys = tech::systolicDesignPoint(lib, n);
        double ratio = best.throughputPerSecPerCm2() /
                       sys.throughputPerSecPerCm2();
        table.row(n, best.throughputPerSecPerCm2(),
                  worst.throughputPerSecPerCm2(),
                  sys.throughputPerSecPerCm2(), ratio);
        if (crossover == 0 && ratio < 1.0)
            crossover = n;
    }
    table.print(std::cout);
    std::cout << "Race-best advantage holds for N < ~" << crossover
              << " (paper: N < 70)\n";
}

void
powerDensityPanel(const CellLibrary &lib)
{
    util::printBanner(std::cout,
                      "Fig. 9b: power density (W/cm^2) vs N, " +
                          lib.name + "  [ITRS ceiling 200]");
    util::TextTable table({"N", "race best", "race worst",
                           "race gated", "race clockless", "systolic"});
    for (size_t n : kSweep) {
        auto best = tech::raceDesignPoint(lib, n, RaceCase::Best);
        auto worst = tech::raceDesignPoint(lib, n, RaceCase::Worst);
        auto gated = tech::raceDesignPoint(lib, n, RaceCase::Worst,
                                           ClockMode::Gated);
        auto clockless = tech::raceDesignPoint(
            lib, n, RaceCase::Worst, ClockMode::Clockless);
        auto sys = tech::systolicDesignPoint(lib, n);
        table.row(n, best.powerDensityWPerCm2(),
                  worst.powerDensityWPerCm2(),
                  gated.powerDensityWPerCm2(),
                  clockless.powerDensityWPerCm2(),
                  sys.powerDensityWPerCm2());
    }
    table.print(std::cout);
}

void
energyDelayScatter(const CellLibrary &lib)
{
    util::printBanner(std::cout,
                      "Fig. 9c: energy-delay scatter at N = 30, " +
                          lib.name);
    const size_t n = 30;
    std::vector<DesignPoint> points{
        tech::raceDesignPoint(lib, n, RaceCase::Best),
        tech::raceDesignPoint(lib, n, RaceCase::Worst),
        tech::raceDesignPoint(lib, n, RaceCase::Best,
                              ClockMode::Gated),
        tech::raceDesignPoint(lib, n, RaceCase::Worst,
                              ClockMode::Gated),
        tech::raceDesignPoint(lib, n, RaceCase::Worst,
                              ClockMode::Clockless),
        tech::systolicDesignPoint(lib, n),
    };
    util::TextTable table({"design point", "energy mJ", "latency ns",
                           "EDP fJ*s"});
    for (const auto &p : points)
        table.row(p.label, p.energyJ * 1e3, p.latencyNs,
                  p.energyDelayProduct() * 1e18);
    table.print(std::cout);
    std::cout << "(iso-EDP curves in the paper: 0.5, 1, 5, 10 fJ*s)\n";
}

void
measuredActivityPanel(const CellLibrary &lib)
{
    // Eq. 3 priced from simulated per-net switching activity (the
    // ModelSim -> PrimeTime substitute) on the compiled kernel, best
    // (identical strings) and worst (complete mismatch) cases, with
    // the analytic worst-case model alongside for cross-checking.
    util::printBanner(
        std::cout,
        "Fig. 9 backing data: measured gate-level energy/comparison "
        "(compiled kernel), " +
            lib.name);
    util::TextTable table({"N", "gates", "best J", "worst J",
                           "analytic worst J", "meas/analytic"});
    util::Rng rng(9);
    for (size_t n : {16ul, 32ul, 64ul, 128ul}) {
        const core::GridFabric fabric =
            core::GridFabric::unitCells(bio::Alphabet::dna(), n, n);
        circuit::CompiledSim sim(fabric.compiled());
        bio::Sequence same =
            bio::Sequence::random(rng, bio::Alphabet::dna(), n);
        auto [w1, w2] = bio::worstCasePair(rng, bio::Alphabet::dna(), n);

        core::raceFabricPair(sim, fabric, same, same);
        double bestJ = tech::energyFromActivityJ(lib, sim.activity());

        sim.clearActivity();
        core::raceFabricPair(sim, fabric, w1, w2);
        double worstJ = tech::energyFromActivityJ(lib, sim.activity());

        double analyticJ =
            tech::raceAnalyticEnergy(lib, n, RaceCase::Worst).totalJ();
        table.row(n, fabric.netlist().gateCount(), bestJ, worstJ,
                  analyticJ, worstJ / analyticJ);
    }
    table.print(std::cout);
    std::cout << "(measured includes comparator/OR data toggles the "
                 "fitted model folds into its data term)\n";
}

} // namespace

int
main()
{
    const CellLibrary &amis = CellLibrary::amis();
    throughputPanel(amis);
    powerDensityPanel(amis);
    energyDelayScatter(amis);
    measuredActivityPanel(amis);
    return 0;
}
