/**
 * @file
 * Heap allocations of warm score-only races.  This binary replaces
 * the global operator new with a counting one (the idiom of
 * perfbench/src/count_new.cc), so the count is exact: once a scratch
 * has grown to a race's shape, racing that shape again -- through
 * core::raceEditGrid, through pangraph::raceAlignmentGrid and through
 * each of their sweeps -- makes no heap allocation at all.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

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

TEST(KernelAllocations, WarmScoreOnlyEditGridRaceAllocatesNothing)
{
    util::Rng rng(7100);
    const ScoreMatrix m = ScoreMatrix::dnaShortestPath();
    const Sequence a = Sequence::random(rng, Alphabet::dna(), 160);
    const Sequence b = Sequence::random(rng, Alphabet::dna(), 150);
    const core::CancelToken never;
    using Sweep = decltype(&core::detail::raceEditGridRows);
    std::vector<Sweep> sweeps = {&core::raceEditGrid,
                                 &core::detail::raceEditGridRows};
    if (core::detail::hostRunsBand<uint32_t>())
        sweeps.push_back(&core::detail::raceEditGridBand<uint32_t>);
    if (core::detail::hostRunsBand<uint16_t>())
        sweeps.push_back(&core::detail::raceEditGridBand<uint16_t>);
    for (Sweep sweep : sweeps) {
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

TEST(KernelAllocations, WarmScoreOnlyGraphRaceAllocatesNothing)
{
    util::Rng rng(7200);
    pangraph::VariationGraphParams params;
    params.backboneSegments = 24;
    auto graph = std::make_shared<pangraph::VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    pangraph::GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    const Sequence read = pangraph::sampleRead(
        rng, *graph, bio::MutationModel::uniform(0.1));
    const core::CancelToken never;
    using Sweep = decltype(&pangraph::detail::raceAlignmentGridRows);
    std::vector<Sweep> sweeps = {&pangraph::raceAlignmentGrid,
                                 &pangraph::detail::raceAlignmentGridRows};
    if (core::detail::hostRunsBand<uint32_t>())
        sweeps.push_back(&pangraph::detail::raceAlignmentGridBand<uint32_t>);
    if (core::detail::hostRunsBand<uint16_t>())
        sweeps.push_back(&pangraph::detail::raceAlignmentGridBand<uint16_t>);
    for (Sweep sweep : sweeps) {
        for (sim::Tick horizon : {sim::kTickInfinity, sim::Tick(40)}) {
            pangraph::GraphAlignScratch scratch;
            core::KernelCounters counters;
            EXPECT_EQ(warmAllocationsPerRace([&] {
                          (void)sweep(aligner.compiled(), read,
                                      aligner.costs(), horizon, scratch,
                                      &never, &counters, false);
                      }),
                      0.0)
                << "horizon " << horizon;
        }
    }
}

} // namespace
