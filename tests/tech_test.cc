/**
 * @file
 * Tests for the technology models: Eq. 5 fits, Eq. 3/4 analytic
 * energy, Eq. 6/7 gating optimum, area scaling, and the headline
 * ratios of the abstract (the calibration contract of this
 * reproduction).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "rl/bio/alphabet.h"
#include "rl/core/grid_fabric.h"
#include "rl/tech/area_model.h"
#include "rl/tech/cell_library.h"
#include "rl/tech/energy_model.h"
#include "rl/tech/metrics.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using tech::CellLibrary;
using tech::ClockMode;
using tech::RaceCase;

// ------------------------------------------------------------- areas

TEST(AreaModel, RaceGridIsQuadratic)
{
    const CellLibrary &lib = CellLibrary::amis();
    auto a20 = tech::raceGridArea(lib, 20, 20, 2);
    auto a40 = tech::raceGridArea(lib, 40, 40, 2);
    EXPECT_EQ(a20.units, 400u);
    EXPECT_EQ(a40.units, 1600u);
    double ratio = a40.totalUm2 / a20.totalUm2;
    EXPECT_NEAR(ratio, 4.0, 0.2);
}

TEST(AreaModel, SystolicIsLinear)
{
    const CellLibrary &lib = CellLibrary::amis();
    auto a20 = tech::systolicArea(lib, Alphabet::dna(), 20, 20);
    auto a40 = tech::systolicArea(lib, Alphabet::dna(), 40, 40);
    EXPECT_EQ(a20.units, 41u);
    EXPECT_EQ(a40.units, 81u);
    EXPECT_NEAR(a40.totalUm2 / a20.totalUm2, 2.0, 0.15);
}

TEST(AreaModel, RaceCellIsMuchSmallerThanPe)
{
    // "the constants associated with Race Logic are smaller ... due
    // to the simplicity of the fundamental cells".
    const CellLibrary &lib = CellLibrary::amis();
    auto race = tech::raceGridArea(lib, 10, 10, 2);
    auto sys = tech::systolicArea(lib, Alphabet::dna(), 10, 10);
    EXPECT_GT(sys.unitAreaUm2, 3.0 * race.unitAreaUm2);
}

TEST(AreaModel, AreaCrossoverAtSmallN)
{
    // Fig. 5a/5d: quadratic-vs-linear crossover lands at small N.
    const CellLibrary &lib = CellLibrary::amis();
    size_t crossover = 0;
    for (size_t n = 2; n <= 60; ++n) {
        double race = tech::raceGridArea(lib, n, n, 2).totalUm2;
        double sys =
            tech::systolicArea(lib, Alphabet::dna(), n, n).totalUm2;
        if (race > sys) {
            crossover = n;
            break;
        }
    }
    EXPECT_GE(crossover, 5u);
    EXPECT_LE(crossover, 25u);
}

TEST(AreaModel, OsuCellsAreLarger)
{
    auto amis = tech::raceGridArea(CellLibrary::amis(), 10, 10, 2);
    auto osu = tech::raceGridArea(CellLibrary::osu(), 10, 10, 2);
    EXPECT_GT(osu.totalUm2, amis.totalUm2);
}

TEST(AreaModel, GeneralizedCellGrowsWithDynamicRange)
{
    const CellLibrary &lib = CellLibrary::amis();
    bio::ScoreMatrix small_m(Alphabet::dna(), bio::ScoreKind::Cost);
    bio::ScoreMatrix large_m(Alphabet::dna(), bio::ScoreKind::Cost);
    for (bio::Symbol s = 0; s < 4; ++s) {
        small_m.setGap(s, 2);
        large_m.setGap(s, 40);
        for (bio::Symbol t = 0; t < 4; ++t) {
            small_m.setPair(s, t, s == t ? 1 : 3);
            large_m.setPair(s, t, s == t ? 1 : 60);
        }
    }
    auto inv_small = core::generalizedCellInventory(
        small_m, core::DelayEncoding::OneHot);
    auto inv_large = core::generalizedCellInventory(
        large_m, core::DelayEncoding::OneHot);
    EXPECT_GT(lib.areaOfInventory(inv_large),
              2.0 * lib.areaOfInventory(inv_small));
}

// ---------------------------------------------------------- latency

TEST(Latency, CornersAndRatio)
{
    EXPECT_EQ(tech::raceLatencyCycles(20, RaceCase::Best), 20u);
    EXPECT_EQ(tech::raceLatencyCycles(20, RaceCase::Worst), 40u);
}

// ------------------------------------------------------- Eq. 5 fits

TEST(PaperFit, CoefficientsAsPublished)
{
    const CellLibrary &amis = CellLibrary::amis();
    const CellLibrary &osu = CellLibrary::osu();
    // Eq. 5a: 2.65 N^3 + 6.41 N^2 at N = 10 -> 3291 pJ.
    EXPECT_NEAR(tech::paperFitEnergyPj(amis, RaceCase::Worst, 10),
                2650.0 + 641.0, 1e-6);
    EXPECT_NEAR(tech::paperFitEnergyPj(amis, RaceCase::Best, 10),
                1050.0 + 591.0, 1e-6);
    EXPECT_NEAR(tech::paperFitEnergyPj(osu, RaceCase::Worst, 10),
                5300.0 + 376.0, 1e-6);
    EXPECT_NEAR(tech::paperFitEnergyPj(osu, RaceCase::Best, 10),
                2100.0 + 486.0, 1e-6);
}

TEST(AnalyticEnergy, ClockTermReproducesEq5CubicCoefficient)
{
    // The calibration contract: the analytic worst-case clock term
    // equals 2.65 pJ * N^3 (AMIS) and 5.30 pJ * N^3 (OSU).
    for (const CellLibrary *lib : CellLibrary::all()) {
        double expected_coeff = lib->name == "AMIS" ? 2.65 : 5.30;
        for (size_t n : {10u, 20u, 50u}) {
            auto e = tech::raceAnalyticEnergy(*lib, n, RaceCase::Worst);
            double coeff = e.clockJ / (double(n) * n * n) * 1e12;
            EXPECT_NEAR(coeff, expected_coeff, 0.01)
                << lib->name << " N=" << n;
        }
    }
}

TEST(AnalyticEnergy, TracksPaperFitWithinTolerance)
{
    // Eq. 4 with our capacitances should stay within ~35% of the
    // published Eq. 5 fits across the plotted range (the paper's own
    // best-case fit is not exactly half its worst-case fit, so exact
    // agreement is impossible).
    const CellLibrary &amis = CellLibrary::amis();
    for (size_t n = 10; n <= 100; n += 10) {
        for (RaceCase which : {RaceCase::Best, RaceCase::Worst}) {
            double model =
                tech::raceAnalyticEnergy(amis, n, which).totalJ() * 1e12;
            double fit = tech::paperFitEnergyPj(amis, which, double(n));
            EXPECT_NEAR(model / fit, 1.0, 0.35)
                << "N=" << n
                << " case=" << (which == RaceCase::Best ? "best"
                                                        : "worst");
        }
    }
}

TEST(AnalyticEnergy, CaseAndModeOrdering)
{
    const CellLibrary &lib = CellLibrary::amis();
    for (size_t n : {10u, 30u, 80u}) {
        double worst =
            tech::raceAnalyticEnergy(lib, n, RaceCase::Worst).totalJ();
        double best =
            tech::raceAnalyticEnergy(lib, n, RaceCase::Best).totalJ();
        double gated =
            tech::raceAnalyticEnergy(lib, n, RaceCase::Worst,
                                     ClockMode::Gated)
                .totalJ();
        double clockless =
            tech::raceAnalyticEnergy(lib, n, RaceCase::Worst,
                                     ClockMode::Clockless)
                .totalJ();
        EXPECT_LT(best, worst);
        EXPECT_LT(gated, worst);
        EXPECT_LT(clockless, gated);
    }
}

TEST(AnalyticEnergy, UngatedScalesCubically)
{
    const CellLibrary &lib = CellLibrary::amis();
    double e100 =
        tech::raceAnalyticEnergy(lib, 100, RaceCase::Worst).totalJ();
    double e1000 =
        tech::raceAnalyticEnergy(lib, 1000, RaceCase::Worst).totalJ();
    EXPECT_NEAR(e1000 / e100, 1000.0, 150.0);
}

TEST(AnalyticEnergy, ClocklessScalesQuadratically)
{
    const CellLibrary &lib = CellLibrary::amis();
    double e100 = tech::raceAnalyticEnergy(lib, 100, RaceCase::Worst,
                                           ClockMode::Clockless)
                      .totalJ();
    double e1000 = tech::raceAnalyticEnergy(lib, 1000, RaceCase::Worst,
                                            ClockMode::Clockless)
                       .totalJ();
    EXPECT_NEAR(e1000 / e100, 100.0, 1.0);
}

// ----------------------------------------------------- Eq. 6/7 gating

class GatingOptimum : public ::testing::TestWithParam<size_t> {};

TEST_P(GatingOptimum, ClosedFormMatchesNumericArgmin)
{
    size_t n = GetParam();
    const CellLibrary &lib = CellLibrary::amis();
    double closed = tech::optimalGatingGranularity(lib, n);
    size_t numeric = tech::numericOptimalGranularity(lib, n);
    // The discrete argmin sits next to the continuous optimum.
    EXPECT_NEAR(double(numeric), closed, 1.01)
        << "N=" << n << " closed=" << closed;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GatingOptimum,
                         ::testing::Values(8, 16, 32, 64, 128, 256,
                                           512, 1024));

TEST(GatingOptimum, GrowsAsCubeRootOfN)
{
    const CellLibrary &lib = CellLibrary::amis();
    double m64 = tech::optimalGatingGranularity(lib, 64);
    double m512 = tech::optimalGatingGranularity(lib, 512);
    EXPECT_NEAR(m512 / m64, std::cbrt(512.0 / 64.0), 0.05);
}

TEST(GatingOptimum, GatedBeatsUngatedBeyondTinyN)
{
    const CellLibrary &lib = CellLibrary::amis();
    for (size_t n : {16u, 64u, 256u}) {
        double gated = tech::raceAnalyticEnergy(lib, n, RaceCase::Worst,
                                                ClockMode::Gated)
                           .totalJ();
        double ungated =
            tech::raceAnalyticEnergy(lib, n, RaceCase::Worst).totalJ();
        EXPECT_LT(gated, ungated) << "N=" << n;
    }
}

TEST(GatingOptimum, GatedScalesBetweenSquareAndCube)
{
    const CellLibrary &lib = CellLibrary::amis();
    double e1 = tech::raceAnalyticEnergy(lib, 100, RaceCase::Worst,
                                         ClockMode::Gated)
                    .totalJ();
    double e2 = tech::raceAnalyticEnergy(lib, 1000, RaceCase::Worst,
                                         ClockMode::Gated)
                    .totalJ();
    double exponent = std::log10(e2 / e1);
    EXPECT_GT(exponent, 2.0);
    EXPECT_LT(exponent, 3.0);
}

// --------------------------------------------------- headline ratios

TEST(Headline, LatencyAdvantageIsAboutFourX)
{
    // Abstract: "synchronous Race Logic is up to 4x faster".
    const CellLibrary &lib = CellLibrary::amis();
    auto race = tech::raceDesignPoint(lib, 20, RaceCase::Worst);
    auto sys = tech::systolicDesignPoint(lib, 20);
    double ratio = sys.latencyNs / race.latencyNs;
    EXPECT_GT(ratio, 3.3);
    EXPECT_LT(ratio, 4.8);
}

TEST(Headline, ThroughputPerAreaIsAboutThreeX)
{
    // Abstract: "throughput ... per circuit area is about 3x higher
    // ... for 20-long-symbol DNA sequences".
    const CellLibrary &lib = CellLibrary::amis();
    auto race = tech::raceDesignPoint(lib, 20, RaceCase::Best);
    auto sys = tech::systolicDesignPoint(lib, 20);
    double ratio = race.throughputPerSecPerCm2() /
                   sys.throughputPerSecPerCm2();
    EXPECT_GT(ratio, 2.2);
    EXPECT_LT(ratio, 4.5);
}

TEST(Headline, PowerDensityIsAboutFiveXLower)
{
    // Abstract: "5x lower power density".
    const CellLibrary &lib = CellLibrary::amis();
    auto race = tech::raceDesignPoint(lib, 20, RaceCase::Worst);
    auto sys = tech::systolicDesignPoint(lib, 20);
    double ratio = sys.powerDensityWPerCm2() /
                   race.powerDensityWPerCm2();
    EXPECT_GT(ratio, 3.5);
    EXPECT_LT(ratio, 7.0);
}

TEST(Headline, EnergyAdvantageIsOrdersOfMagnitude)
{
    // Intro: "more efficient ... in energy by [a factor of] 200".
    // Our calibration (see EXPERIMENTS.md) reproduces a one-to-two
    // order-of-magnitude advantage for the gated/clockless best case.
    const CellLibrary &lib = CellLibrary::amis();
    auto race_best = tech::raceDesignPoint(lib, 20, RaceCase::Best,
                                           ClockMode::Clockless);
    auto sys = tech::systolicDesignPoint(lib, 20);
    double ratio = sys.energyJ / race_best.energyJ;
    EXPECT_GT(ratio, 20.0);
    double worst_ratio =
        sys.energyJ /
        tech::raceDesignPoint(lib, 20, RaceCase::Worst).energyJ;
    EXPECT_GT(worst_ratio, 4.0);
}

TEST(Headline, ThroughputCrossoverNearSeventy)
{
    // Fig. 9a / Section 6: "better than that of the systolic array
    // for N < 70".
    const CellLibrary &lib = CellLibrary::amis();
    size_t crossover = 0;
    for (size_t n = 10; n <= 120; ++n) {
        auto race = tech::raceDesignPoint(lib, n, RaceCase::Best);
        auto sys = tech::systolicDesignPoint(lib, n);
        if (race.throughputPerSecPerCm2() <
            sys.throughputPerSecPerCm2()) {
            crossover = n;
            break;
        }
    }
    EXPECT_GE(crossover, 50u);
    EXPECT_LE(crossover, 90u);
}

TEST(Headline, BothDesignsBelowItrsCeiling)
{
    // Fig. 9b: everything stays under 200 W/cm^2, Race Logic far
    // under.
    const CellLibrary &lib = CellLibrary::amis();
    for (size_t n = 10; n <= 100; n += 10) {
        auto race = tech::raceDesignPoint(lib, n, RaceCase::Worst);
        auto sys = tech::systolicDesignPoint(lib, n);
        EXPECT_LT(sys.powerDensityWPerCm2(),
                  tech::kItrsPowerDensityLimit);
        EXPECT_LT(race.powerDensityWPerCm2(),
                  tech::kItrsPowerDensityLimit / 4.0);
    }
}

// ------------------------------------------------- activity pricing

TEST(ActivityPricing, ClockAndDataSplit)
{
    const CellLibrary &lib = CellLibrary::amis();
    circuit::Activity activity;
    activity.clockedDffCycles = 1000;
    activity.netToggles = 500;
    double e = tech::energyFromActivityJ(lib, activity);
    double expect = 1000 * lib.dffClockCapF * 25.0 +
                    500 * lib.netCapF * 25.0;
    EXPECT_NEAR(e, expect, expect * 1e-12);
}

TEST(ActivityPricing, MetricsArithmetic)
{
    tech::DesignPoint p;
    p.label = "x";
    p.latencyNs = 100.0;
    p.energyJ = 1e-9;
    p.areaUm2 = 1e6; // 0.01 cm^2
    EXPECT_NEAR(p.throughputPerSec(), 1e7, 1.0);
    EXPECT_NEAR(p.throughputPerSecPerCm2(), 1e9, 1e3);
    EXPECT_NEAR(p.powerDensityWPerCm2(), 1.0, 1e-9);
    EXPECT_NEAR(p.energyDelayProduct(), 1e-16, 1e-22);
}

} // namespace
