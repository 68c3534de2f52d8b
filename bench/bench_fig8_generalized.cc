/**
 * @file
 * Reproduces Figure 8 and the Section 5 generalized-architecture
 * analysis through the unified api::RaceEngine: the generalized
 * cell's sizing for BLOSUM62/PAM250, its measured gate inventory
 * under both delay encodings, a gate-level validation run (the
 * engine's GateLevel backend cross-checks the synthesized fabric
 * against the behavioral race), and the similarity-to-latency mapping
 * that makes the OR race meaningful for protein matrices.
 */

#include <iostream>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/bio/score_convert.h"
#include "rl/core/grid_fabric.h"
#include "rl/tech/area_model.h"
#include "rl/tech/cell_library.h"
#include "rl/util/random.h"
#include "rl/util/table.h"

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using core::DelayEncoding;
using core::GeneralizedCellSpec;

int
main()
{
    const tech::CellLibrary &lib = tech::CellLibrary::amis();

    for (const char *name : {"BLOSUM62", "PAM250"}) {
        ScoreMatrix sim_matrix = std::string(name) == "BLOSUM62"
                                     ? ScoreMatrix::blosum62()
                                     : ScoreMatrix::pam250();
        bio::ShortestPathForm form = bio::toShortestPathForm(sim_matrix);
        GeneralizedCellSpec spec =
            GeneralizedCellSpec::fromMatrix(form.costs);
        util::printBanner(std::cout,
                          std::string("Generalized cell sizing for ") +
                              name);
        util::TextTable sizing({"N_DR", "counter bits", "symbol bits",
                                "distinct pair weights",
                                "distinct gap weights"});
        sizing.row(spec.dynamicRange, spec.counterBits,
                   spec.symbolBits, spec.distinctPairWeights.size(),
                   spec.distinctGapWeights.size());
        sizing.print(std::cout);

        util::TextTable inv({"encoding", "DFFs", "muxes", "total gates",
                             "cell area um2"});
        for (auto enc : {DelayEncoding::OneHot, DelayEncoding::Binary}) {
            auto counts = core::generalizedCellInventory(form.costs, enc);
            size_t total = 0;
            for (size_t c : counts)
                total += c;
            inv.row(enc == DelayEncoding::OneHot ? "one-hot chain"
                                                 : "binary counter",
                    counts[size_t(circuit::GateType::Dff)],
                    counts[size_t(circuit::GateType::Mux)], total,
                    lib.areaOfInventory(counts));
        }
        inv.print(std::cout);
    }

    util::printBanner(std::cout,
                      "Gate-level validation: 3x3 generalized fabric "
                      "on a BLOSUM62-converted matrix (engine "
                      "GateLevel backend, one cached plan)");
    util::Rng rng(8);
    api::RaceEngine behavioral;
    api::EngineConfig hardware;
    hardware.backend = api::BackendKind::GateLevel;
    api::RaceEngine gateEngine(hardware);
    ScoreMatrix blosum = ScoreMatrix::blosum62();
    util::TextTable runs({"pair", "gate-level cost", "behavioral cost",
                          "recovered similarity", "DP similarity"});
    for (int trial = 0; trial < 4; ++trial) {
        Sequence a = Sequence::random(rng, Alphabet::protein(), 3);
        Sequence b = Sequence::random(rng, Alphabet::protein(), 3);
        api::RaceProblem problem =
            api::RaceProblem::generalizedAlignment(blosum, a, b);
        // solve() on the GateLevel backend asserts fabric == model.
        api::RaceResult hw = gateEngine.solve(problem);
        api::RaceResult sw = behavioral.solve(problem);
        runs.row(a.str() + "/" + b.str(), hw.racedCost, sw.racedCost,
                 sw.score, bio::globalScore(a, b, blosum));
    }
    runs.print(std::cout);
    std::cout << "fabric plans built by the gate-level engine: "
              << gateEngine.stats().plansBuilt << " for "
              << gateEngine.stats().solves
              << " runs (the 3x3 netlist is synthesized once and "
                 "reused)\n";

    util::printBanner(std::cout,
                      "Similarity -> latency mapping (higher "
                      "similarity = earlier sink arrival)");
    util::TextTable lat({"substitution rate", "mean latency cycles",
                         "mean similarity"});
    for (double rate : {0.0, 0.1, 0.3, 0.6, 1.0}) {
        double latency = 0.0, similarity = 0.0;
        const int trials = 10;
        for (int t = 0; t < trials; ++t) {
            Sequence a = Sequence::random(rng, Alphabet::protein(), 16);
            Sequence b = mutate(rng, a,
                                bio::MutationModel{rate, 0.0, 0.0});
            auto r = behavioral.solve(
                api::RaceProblem::generalizedAlignment(blosum, a, b));
            latency += double(r.latencyCycles) / trials;
            similarity += double(r.score) / trials;
        }
        lat.row(rate, latency, similarity);
    }
    lat.print(std::cout);
    return 0;
}
