/**
 * @file
 * Ablation for the Section 5 delay-encoding trade-off: one-hot DFF
 * chains vs binary saturating counters, swept over the dynamic range
 * N_DR.  "When using one hot encoded DFFs ... the area of a single
 * Race Logic cell scales linearly with dynamic range ... Binary
 * encoding with a saturating up-counter allows us to save on area."
 */

#include <iostream>

#include "rl/bio/score_matrix.h"
#include "rl/core/grid_fabric.h"
#include "rl/tech/cell_library.h"
#include "rl/util/random.h"
#include "rl/util/table.h"

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using core::DelayEncoding;
using core::GridFabric;

namespace {

/** DNA cost matrix with match 1, mismatch/gap = ndr (race-ready). */
ScoreMatrix
matrixWithRange(bio::Score ndr)
{
    ScoreMatrix m(Alphabet::dna(), bio::ScoreKind::Cost);
    for (bio::Symbol s = 0; s < 4; ++s) {
        m.setGap(s, ndr);
        for (bio::Symbol t = 0; t < 4; ++t)
            m.setPair(s, t, s == t ? 1 : ndr);
    }
    return m;
}

} // namespace

int
main()
{
    const tech::CellLibrary &lib = tech::CellLibrary::amis();
    util::printBanner(std::cout,
                      "Section 5 ablation: per-cell hardware vs "
                      "dynamic range N_DR (DNA alphabet)");
    util::TextTable table({"N_DR", "one-hot DFFs", "binary DFFs",
                           "one-hot area um2", "binary area um2",
                           "binary wins"});
    for (bio::Score ndr : {2, 4, 8, 16, 32, 64}) {
        ScoreMatrix m = matrixWithRange(ndr);
        auto onehot =
            core::generalizedCellInventory(m, DelayEncoding::OneHot);
        auto binary =
            core::generalizedCellInventory(m, DelayEncoding::Binary);
        double area_oh = lib.areaOfInventory(onehot);
        double area_bin = lib.areaOfInventory(binary);
        table.row(ndr, onehot[size_t(circuit::GateType::Dff)],
                  binary[size_t(circuit::GateType::Dff)], area_oh,
                  area_bin, area_bin < area_oh ? "yes" : "no");
    }
    table.print(std::cout);
    std::cout
        << "(one-hot flip-flops grow linearly in N_DR; the binary\n"
           " counter grows logarithmically, paying a fixed comparator\n"
           " and set-on-arrival overhead -- it wins once N_DR is\n"
           " beyond a handful of cycles, which is why Fig. 8 uses it\n"
           " for BLOSUM-class matrices.)\n";

    util::printBanner(std::cout,
                      "Functional sanity: both encodings race the "
                      "same scores (3x3 fabric, N_DR = 8)");
    util::Rng rng(4);
    ScoreMatrix m = matrixWithRange(8);
    const GridFabric onehot =
        GridFabric::generalized(m, 3, 3, DelayEncoding::OneHot);
    const GridFabric binary =
        GridFabric::generalized(m, 3, 3, DelayEncoding::Binary);
    circuit::CompiledSim onehot_sim(onehot.compiled());
    circuit::CompiledSim binary_sim(binary.compiled());
    util::TextTable agree({"pair", "one-hot", "binary"});
    for (int trial = 0; trial < 4; ++trial) {
        auto a = bio::Sequence::random(rng, Alphabet::dna(), 3);
        auto b = bio::Sequence::random(rng, Alphabet::dna(), 3);
        agree.row(a.str() + "/" + b.str(),
                  core::raceFabricPair(onehot_sim, onehot, a, b).score,
                  core::raceFabricPair(binary_sim, binary, a, b).score);
    }
    agree.print(std::cout);
    return 0;
}
