/**
 * @file
 * Regression tests for the "scratch arenas never shrink" bug and the
 * registry that makes their bytes visible to the serving memory
 * budget.
 *
 * The kernels' thread_local scratch (working rows and hoisted weight
 * rows) grows to each solve's high-water mark and, before
 * shrinkToFit() existed, never gave a byte back: one oversized solve
 * pinned megabytes in an idle worker forever.  These tests nail the
 * contract from both ends -- the arena really shrinks, and the
 * registry's janitor-facing API (lease, publish, shrinkIdle,
 * tombstones) reclaims without ever touching a live or dead arena.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>

#include "rl/core/race_grid.h"
#include "rl/core/scratch_registry.h"
#include "rl/core/wavefront.h"
#include "rl/core/wavefront_band.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/graph_align_band.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;

bio::Sequence
dna(const std::string &s)
{
    return bio::Sequence(bio::Alphabet("ACGT"), s);
}

std::string
longDna(size_t n)
{
    static const char letters[] = "ACGT";
    std::string s;
    s.reserve(n);
    uint32_t state = 0x9E3779B9u;
    for (size_t i = 0; i < n; ++i) {
        state = state * 1664525u + 1013904223u;
        s.push_back(letters[(state >> 24) & 3]);
    }
    return s;
}

TEST(ScratchShrink, RaceGridScratchReleasesItsHighWater)
{
    core::RaceGridAligner aligner(bio::ScoreMatrix::dnaShortestPath());
    core::RaceGridScratch scratch;
    EXPECT_EQ(scratch.residentBytes(), 0u);

    // One oversized solve grows the working row and weight rows...
    (void)aligner.align(dna(longDna(600)), dna(longDna(600)),
                        sim::kTickInfinity, scratch);
    const size_t grown = scratch.residentBytes();
    EXPECT_GT(grown, 0u);

    // ...a small solve keeps all of it resident (the bug: capacity is
    // retained across reset())...
    (void)aligner.align(dna("GATTACA"), dna("GCATGCT"),
                        sim::kTickInfinity, scratch);
    EXPECT_EQ(scratch.residentBytes(), grown);

    // ...and shrinkToFit() is the one call that gives it back.
    scratch.shrinkToFit();
    EXPECT_EQ(scratch.residentBytes(), 0u);

    // The arena regrows on demand: shrinking is never a correctness
    // event, just a capacity one.
    core::RaceGridResult after =
        aligner.align(dna("GATTACA"), dna("GCATGCT"),
                      sim::kTickInfinity, scratch);
    EXPECT_TRUE(after.completed);
    EXPECT_GT(scratch.residentBytes(), 0u);
}

/** A graph of a few hundred positions, and a read sampled from it. */
struct GraphWorkload {
    std::shared_ptr<pangraph::VariationGraph> graph;
    bio::Sequence read{bio::Alphabet::dna()};

    GraphWorkload()
    {
        util::Rng rng(31);
        pangraph::VariationGraphParams params;
        params.backboneSegments = 48;
        graph = std::make_shared<pangraph::VariationGraph>(
            pangraph::randomVariationGraph(rng, bio::Alphabet::dna(),
                                           params));
        read = pangraph::sampleRead(rng, *graph,
                                    bio::MutationModel::uniform(0.1));
    }
};

TEST(ScratchShrink, GraphAlignScratchReleasesItsHighWater)
{
    GraphWorkload w;
    pangraph::GraphAligner aligner(w.graph,
                                   bio::ScoreMatrix::dnaShortestPath());
    pangraph::GraphAlignScratch scratch;
    EXPECT_EQ(scratch.residentBytes(), 0u);

    // A long read grows the working rows (and, where the band runs,
    // its history and skew buffer)...
    (void)aligner.align(w.read, sim::kTickInfinity, scratch);
    const size_t grown = scratch.residentBytes();
    EXPECT_GT(grown, 0u);

    // ...a short one keeps all of it resident...
    (void)aligner.align(dna("GATTACA"), sim::kTickInfinity, scratch);
    EXPECT_EQ(scratch.residentBytes(), grown);

    // ...and shrinkToFit() gives it back.
    scratch.shrinkToFit();
    EXPECT_EQ(scratch.residentBytes(), 0u);

    const pangraph::GraphRaceResult after =
        aligner.align(dna("GATTACA"), sim::kTickInfinity, scratch);
    EXPECT_TRUE(after.completed);
    EXPECT_GT(scratch.residentBytes(), 0u);
}

TEST(ScratchRegistry, GraphBandBuffersAreVisibleAndReclaimed)
{
    // A graph race on the band, with the arrival vector on, is
    // published to the registry: it fills all of the band's buffers --
    // the padded row above, the history and the skew buffer -- and
    // shrinkAll() releases them.
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << "host has no AVX-512BW: raceAlignmentGrid runs the "
                        "row sweep alone";
    core::ScratchRegistry &registry = core::ScratchRegistry::instance();
    const size_t baseline = registry.totalResidentBytes();

    GraphWorkload w;
    pangraph::GraphAligner aligner(w.graph,
                                   bio::ScoreMatrix::dnaShortestPath());
    pangraph::GraphAlignScratch scratch;
    core::ScratchRegistration reg([&scratch](bool shrink) {
        if (shrink)
            scratch.shrinkToFit();
        return scratch.residentBytes();
    });
    {
        core::ScratchLease lease(reg.entry());
        EXPECT_TRUE(pangraph::detail::raceAlignmentGridBand(
                        aligner.compiled(), w.read, aligner.costs(),
                        sim::kTickInfinity, scratch)
                        .has_value());
    }
    const core::detail::BandBuffers &buffers = scratch.band;
    EXPECT_GT(buffers.history.capacity(), 0u);
    EXPECT_GT(buffers.skew.capacity(), 0u);
    const size_t band = buffers.residentBytes();
    EXPECT_GE(band, (buffers.row.capacity() + buffers.history.capacity() +
                     buffers.skew.capacity()) *
                        sizeof(uint16_t));
    EXPECT_GE(scratch.residentBytes(), band);
    EXPECT_GE(registry.totalResidentBytes(), baseline + band);

    EXPECT_GE(registry.shrinkAll(), band);
    EXPECT_EQ(buffers.row.capacity(), 0u);
    EXPECT_EQ(buffers.history.capacity(), 0u);
    EXPECT_EQ(buffers.skew.capacity(), 0u);
    EXPECT_EQ(scratch.residentBytes(), 0u);
    EXPECT_LE(registry.totalResidentBytes(), baseline);
}

TEST(ScratchRegistry, LeasePublishesAndShrinkAllReclaims)
{
    core::ScratchRegistry &registry = core::ScratchRegistry::instance();
    const size_t baseline = registry.totalResidentBytes();

    core::RaceGridScratch scratch;
    core::ScratchRegistration reg([&scratch](bool shrink) {
        if (shrink)
            scratch.shrinkToFit();
        return scratch.residentBytes();
    });

    core::RaceGridAligner aligner(bio::ScoreMatrix::dnaShortestPath());
    {
        core::ScratchLease lease(reg.entry());
        (void)aligner.align(dna(longDna(300)), dna(longDna(300)),
                            sim::kTickInfinity, scratch);
    }
    const size_t grown = scratch.residentBytes();
    EXPECT_GT(grown, 0u);
    EXPECT_GE(registry.totalResidentBytes(), baseline + grown);

    // The janitor's hammer: reclaim everything idle, immediately.
    EXPECT_GE(registry.shrinkAll(), grown);
    EXPECT_EQ(scratch.residentBytes(), 0u);
    EXPECT_LE(registry.totalResidentBytes(), baseline);
}

TEST(ScratchRegistry, BandBuffersAreVisibleAndReclaimed)
{
    // An edit-grid race on the band, with the arrival grid on, is
    // published to the registry: it fills all of the band's buffers --
    // the padded row above, the reversed profile and the skew buffer --
    // and shrinkAll() releases them.
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << "host has no AVX-512BW: raceEditGrid runs the row "
                        "sweep alone";
    core::ScratchRegistry &registry = core::ScratchRegistry::instance();
    const size_t baseline = registry.totalResidentBytes();

    core::RaceGridScratch scratch;
    core::ScratchRegistration reg([&scratch](bool shrink) {
        if (shrink)
            scratch.shrinkToFit();
        return scratch.residentBytes();
    });
    {
        core::ScratchLease lease(reg.entry());
        EXPECT_TRUE(core::detail::raceEditGridBand(
                        dna(longDna(300)), dna(longDna(300)),
                        bio::ScoreMatrix::dnaShortestPath(),
                        sim::kTickInfinity, scratch)
                        .has_value());
    }
    const core::detail::BandBuffers &buffers = scratch.band;
    EXPECT_GT(buffers.profile.capacity(), 0u);
    EXPECT_GT(buffers.skew.capacity(), 0u);
    const size_t band = buffers.residentBytes();
    EXPECT_GE(band, (buffers.row.capacity() + buffers.profile.capacity() +
                     buffers.skew.capacity()) *
                        sizeof(uint16_t));
    EXPECT_GE(scratch.residentBytes(), band);
    EXPECT_GE(registry.totalResidentBytes(), baseline + band);

    EXPECT_GE(registry.shrinkAll(), band);
    EXPECT_EQ(buffers.row.capacity(), 0u);
    EXPECT_EQ(buffers.profile.capacity(), 0u);
    EXPECT_EQ(buffers.skew.capacity(), 0u);
    EXPECT_EQ(scratch.residentBytes(), 0u);
    EXPECT_LE(registry.totalResidentBytes(), baseline);
}

TEST(ScratchRegistry, ThrowingSolveStillPublishesHonestBytes)
{
    core::RaceGridScratch scratch;
    core::ScratchRegistration reg([&scratch](bool shrink) {
        if (shrink)
            scratch.shrinkToFit();
        return scratch.residentBytes();
    });
    core::RaceGridAligner aligner(bio::ScoreMatrix::dnaShortestPath());

    // Serve workers tolerate throwing jobs, so the lease must too:
    // when a solve throws after growing the arena, the destructor
    // still publishes the real high-water -- hiding those bytes from
    // the brownout budget would defeat the accounting.
    EXPECT_THROW(
        {
            core::ScratchLease lease(reg.entry());
            (void)aligner.align(dna(longDna(300)), dna(longDna(300)),
                                sim::kTickInfinity, scratch);
            throw std::runtime_error("job failed after the race");
        },
        std::runtime_error);
    const size_t grown = scratch.residentBytes();
    EXPECT_GT(grown, 0u);
    EXPECT_EQ(reg.entry().residentBytes.load(), grown);

    // Published means reclaimable: the janitor can still see and
    // shrink the orphaned capacity.
    EXPECT_GE(core::ScratchRegistry::instance().shrinkAll(), grown);
    EXPECT_EQ(scratch.residentBytes(), 0u);
}

TEST(ScratchRegistry, ShrinkNeverTouchesABusyLease)
{
    core::RaceGridScratch scratch;
    core::ScratchRegistration reg([&scratch](bool shrink) {
        if (shrink)
            scratch.shrinkToFit();
        return scratch.residentBytes();
    });

    core::RaceGridAligner aligner(bio::ScoreMatrix::dnaShortestPath());
    core::ScratchLease lease(reg.entry());
    (void)aligner.align(dna(longDna(200)), dna(longDna(200)),
                        sim::kTickInfinity, scratch);
    const size_t mid = scratch.residentBytes();
    ASSERT_GT(mid, 0u);

    // The owner holds the lease: a concurrent shrink pass must skip
    // this arena entirely (try_lock), not block and not clear it.
    std::thread janitor([] {
        (void)core::ScratchRegistry::instance().shrinkAll();
    });
    janitor.join();
    EXPECT_EQ(scratch.residentBytes(), mid);
}

TEST(ScratchRegistry, ShrinkIdleSparesRecentlyActiveWorkers)
{
    core::RaceGridScratch scratch;
    core::ScratchRegistration reg([&scratch](bool shrink) {
        if (shrink)
            scratch.shrinkToFit();
        return scratch.residentBytes();
    });
    core::RaceGridAligner aligner(bio::ScoreMatrix::dnaShortestPath());
    {
        core::ScratchLease lease(reg.entry());
        (void)aligner.align(dna(longDna(200)), dna(longDna(200)),
                            sim::kTickInfinity, scratch);
    }
    ASSERT_GT(scratch.residentBytes(), 0u);

    // Released a microsecond ago: an hour-long idle cutoff spares it.
    (void)core::ScratchRegistry::instance().shrinkIdle(
        std::chrono::hours(1));
    EXPECT_GT(scratch.residentBytes(), 0u);

    // A zero cutoff reclaims it.
    (void)core::ScratchRegistry::instance().shrinkAll();
    EXPECT_EQ(scratch.residentBytes(), 0u);
}

TEST(ScratchRegistry, DeadThreadsLeaveSafeTombstones)
{
    core::ScratchRegistry &registry = core::ScratchRegistry::instance();

    // A worker thread registers, grows its arena, publishes it when its
    // lease ends, reads the registry's total while it still lives, and
    // dies.
    auto raceAndDie = [&registry](size_t &published) {
        core::RaceGridScratch scratch;
        core::ScratchRegistration reg([&scratch](bool shrink) {
            if (shrink)
                scratch.shrinkToFit();
            return scratch.residentBytes();
        });
        core::RaceGridAligner aligner(
            bio::ScoreMatrix::dnaShortestPath());
        {
            core::ScratchLease lease(reg.entry());
            (void)aligner.align(dna(longDna(200)), dna(longDna(200)),
                                sim::kTickInfinity, scratch);
        }
        published = registry.totalResidentBytes();
    };

    // The first one leaves a tombstone (or takes over one an earlier
    // test left): its slot is leaked but retracted, so it reports zero
    // bytes, and shrink passes must skip it instead of calling a hook
    // into freed thread_local storage.
    const size_t before = registry.totalResidentBytes();
    size_t published = 0;
    std::thread worker(raceAndDie, std::ref(published));
    worker.join();
    EXPECT_GT(published, before) << "the thread never registered";
    EXPECT_EQ(registry.totalResidentBytes(), before);
    (void)registry.shrinkAll(); // must not crash
    (void)registry.shrinkAll();

    // Each later thread takes a tombstone over: its arena shows in the
    // total while it lives, and the list does not grow.
    const size_t settled = registry.entryCount();
    const size_t idle = registry.totalResidentBytes();
    for (int i = 0; i < 3; ++i) {
        published = 0;
        std::thread next(raceAndDie, std::ref(published));
        next.join();
        EXPECT_GT(published, idle) << "thread " << i << " never registered";
        EXPECT_EQ(registry.entryCount(), settled);
        EXPECT_EQ(registry.totalResidentBytes(), idle);
    }
}

} // namespace
