/**
 * @file
 * Heap allocations of warm score-only races.  This binary replaces
 * the global operator new with a counting one (the idiom of
 * perfbench/src/count_new.cc), so the count is exact: once a scratch
 * has grown to a race's shape, racing that shape again -- through
 * core::raceEditGrid, through pangraph::raceAlignmentGrid and through
 * each of their sweeps, on the band's pair table and its gather, with
 * a fold of the graph band's tallies, and a race the band gives back
 * to the row sweep -- makes no heap allocation at all.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "rl/bio/score_convert.h"
#include "rl/core/wavefront.h"
#include "rl/core/wavefront_band.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/graph_align_band.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/util/random.h"

namespace {

std::atomic<uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    n = n == 0 ? 1 : n;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t align)
{
    return countedAlloc(n, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t n, std::align_val_t align)
{
    return countedAlloc(n, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;


/**
 * Heap allocations per race of `race`, warm: one race grows the
 * scratch it closes over, then each later race is counted.
 */
template <typename Race>
double
warmAllocationsPerRace(Race race)
{
    race();
    constexpr int kRaces = 8;
    const uint64_t before = gAllocations.load(std::memory_order_relaxed);
    for (int i = 0; i < kRaces; ++i)
        race();
    return double(gAllocations.load(std::memory_order_relaxed) - before) /
           kRaces;
}

TEST(KernelAllocations, CountingOperatorNewSeesTheHeap)
{
    // Through a volatile, so the compiler cannot drop the pair.
    static void *volatile held;
    const uint64_t before = gAllocations.load();
    held = ::operator new(64);
    ::operator delete(held);
    EXPECT_EQ(gAllocations.load() - before, 1u);
}

/** raceEditGrid's sweeps, the band's as the dispatcher calls it. */
using EditGridSweep = decltype(&core::detail::raceEditGridRows);

std::vector<EditGridSweep>
editGridSweeps()
{
    std::vector<EditGridSweep> sweeps = {&core::raceEditGrid,
                                         &core::detail::raceEditGridRows};
    if (core::detail::hostRunsBand())
        sweeps.push_back([](const Sequence &a, const Sequence &b,
                            const ScoreMatrix &m, sim::Tick horizon,
                            core::RaceGridScratch &scratch,
                            const core::CancelToken *cancel,
                            core::KernelCounters *counters, bool arrivals) {
            std::optional<core::RaceGridResult> raced =
                core::detail::raceEditGridBand(a, b, m, horizon, scratch,
                                               cancel, counters, arrivals);
            EXPECT_TRUE(raced.has_value());
            return raced ? std::move(*raced) : core::RaceGridResult();
        });
    return sweeps;
}

/** Every sweep of (a, b) under `m`, warm, score-only, at two horizons,
 *  makes no heap allocation. */
void
expectWarmEditGridRacesAllocateNothing(const Sequence &a, const Sequence &b,
                                       const ScoreMatrix &m)
{
    const core::CancelToken never;
    for (EditGridSweep sweep : editGridSweeps()) {
        for (sim::Tick horizon : {sim::kTickInfinity, sim::Tick(40)}) {
            core::RaceGridScratch scratch;
            core::KernelCounters counters;
            EXPECT_EQ(warmAllocationsPerRace([&] {
                          (void)sweep(a, b, m, horizon, scratch, &never,
                                      &counters, false);
                      }),
                      0.0)
                << "horizon " << horizon;
        }
    }
}

TEST(KernelAllocations, WarmScoreOnlyEditGridRaceAllocatesNothing)
{
    util::Rng rng(7100);
    const ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    const Sequence a = Sequence::random(rng, Alphabet::dna(), 160);
    const Sequence b = Sequence::random(rng, Alphabet::dna(), 150);
    expectWarmEditGridRacesAllocateNothing(a, b, m);
}

TEST(KernelAllocations, WarmScoreOnlyProteinRaceAllocatesNothing)
{
    // Twenty letters: the band gathers its substitution weights.
    util::Rng rng(7110);
    const ScoreMatrix m =
        bio::toShortestPathForm(ScoreMatrix::blosum62()).costs;
    const Sequence a = Sequence::random(rng, Alphabet::protein(), 160);
    const Sequence b = Sequence::random(rng, Alphabet::protein(), 150);
    expectWarmEditGridRacesAllocateNothing(a, b, m);
}

TEST(KernelAllocations, WarmRaceTheBandGivesBackAllocatesNothing)
{
    // Gaps of 600: arrivals pass 2^14 in the first band, so an
    // unbounded raceEditGrid races the band, gives up, and races the
    // row sweep.
    util::Rng rng(7120);
    ScoreMatrix m =
        ScoreMatrix::uniform(Alphabet::dna(), bio::ScoreKind::Cost, 600);
    const Sequence a = Sequence::random(rng, Alphabet::dna(), 40);
    const Sequence b = Sequence::random(rng, Alphabet::dna(), 20);
    core::RaceGridScratch scratch;
    core::KernelCounters counters;
    if (core::detail::hostRunsBand())
        EXPECT_FALSE(core::detail::raceEditGridBand(
                         a, b, m, sim::kTickInfinity, scratch, nullptr,
                         &counters, false)
                         .has_value());
    EXPECT_EQ(warmAllocationsPerRace([&] {
                  (void)core::raceEditGrid(a, b, m, sim::kTickInfinity,
                                           scratch, nullptr, &counters,
                                           false);
              }),
              0.0);
}

/** raceAlignmentGrid's sweeps, the band's as the dispatcher calls it. */
using GraphSweep = decltype(&pangraph::detail::raceAlignmentGridRows);

/** Every sweep of `read` against `aligner`'s graph, warm, score-only,
 *  at two horizons, plain and inhibited (at a horizon below the read's
 *  distance and one past it), makes no heap allocation, and neither
 *  does the unbounded policy's race. */
void
expectWarmGraphRacesAllocateNothing(const pangraph::GraphAligner &aligner,
                                    const Sequence &read)
{
    const core::CancelToken never;
    std::vector<GraphSweep> sweeps = {&pangraph::raceAlignmentGrid,
                                      &pangraph::detail::raceAlignmentGridRows};
    if (core::detail::hostRunsBand())
        sweeps.push_back([](const pangraph::CompiledGraph &compiled,
                            const Sequence &r, const ScoreMatrix &costs,
                            sim::Tick horizon,
                            pangraph::GraphAlignScratch &scratch,
                            const core::CancelToken *cancel,
                            core::KernelCounters *counters, bool arrivals,
                            bool inhibit) {
            std::optional<pangraph::GraphRaceResult> raced =
                pangraph::detail::raceAlignmentGridBand(
                    compiled, r, costs, horizon, scratch, cancel, counters,
                    arrivals, inhibit);
            EXPECT_TRUE(raced.has_value());
            return raced ? std::move(*raced) : pangraph::GraphRaceResult();
        });
    const auto opt = static_cast<sim::Tick>(
        aligner.align(read, sim::kTickInfinity, nullptr, nullptr, false)
            .racedCost);
    for (GraphSweep sweep : sweeps) {
        for (bool inhibit : {false, true}) {
            for (sim::Tick horizon : {inhibit ? opt + 32 : sim::kTickInfinity,
                                      sim::Tick(40)}) {
                pangraph::GraphAlignScratch scratch;
                core::KernelCounters counters;
                EXPECT_EQ(warmAllocationsPerRace([&] {
                              (void)sweep(aligner.compiled(), read,
                                          aligner.costs(), horizon, scratch,
                                          &never, &counters, false, inhibit);
                          }),
                          0.0)
                    << "horizon " << horizon << " inhibit " << inhibit;
            }
        }
    }
    pangraph::GraphAlignScratch scratch;
    core::KernelCounters counters;
    EXPECT_EQ(warmAllocationsPerRace([&] {
                  (void)aligner.alignUnbounded(read, scratch, &never,
                                               &counters, false);
              }),
              0.0);
}

TEST(KernelAllocations, WarmScoreOnlyGraphRaceAllocatesNothing)
{
    util::Rng rng(7200);
    pangraph::VariationGraphParams params;
    params.backboneSegments = 24;
    auto graph = std::make_shared<pangraph::VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    pangraph::GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    expectWarmGraphRacesAllocateNothing(
        aligner,
        pangraph::sampleRead(rng, *graph, bio::MutationModel::uniform(0.1)));
}

TEST(KernelAllocations, WarmScoreOnlyGraphRaceThatFoldsAllocatesNothing)
{
    // A chain of 12000 one-nt segments, each linked to the next three:
    // a lane's tallies pass 2^16 within one band, so the band folds
    // them mid-band.
    const size_t segments = 12000;
    util::Rng rng(7210);
    auto graph =
        std::make_shared<pangraph::VariationGraph>(Alphabet::dna());
    const Sequence labels = Sequence::random(rng, Alphabet::dna(), segments);
    for (size_t i = 0; i < segments; ++i)
        graph->addSegment("s" + std::to_string(i), labels.slice(i, 1));
    for (size_t i = 0; i < segments; ++i)
        for (size_t d = 1; d <= 3 && i + d < segments; ++d)
            graph->addLink(static_cast<pangraph::SegmentId>(i),
                           static_cast<pangraph::SegmentId>(i + d));
    pangraph::GraphAligner aligner(
        graph, ScoreMatrix::uniform(Alphabet::dna(), bio::ScoreKind::Cost, 1));
    expectWarmGraphRacesAllocateNothing(aligner, labels.slice(100, 40));
}

} // namespace
