/**
 * @file
 * Unit tests for rl/util: logging, PRNG, bit utilities, strings,
 * tables, and the Grid container.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rl/util/bitops.h"
#include "rl/util/grid.h"
#include "rl/util/logging.h"
#include "rl/util/random.h"
#include "rl/util/strings.h"
#include "rl/util/table.h"
#include "rl/util/thread_pool.h"

namespace {

using namespace racelogic;

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    util::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    util::Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 60);
}

TEST(Rng, UniformIntStaysInBounds)
{
    util::Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformIntSingletonRange)
{
    util::Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(3, 3), 3);
}

TEST(Rng, UniformIntCoversRange)
{
    util::Rng rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.uniformInt(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, IndexInRange)
{
    util::Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.index(13), 13u);
}

TEST(Rng, UniformRealInHalfOpenUnitInterval)
{
    util::Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, BernoulliExtremes)
{
    util::Rng rng(9);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    util::Rng rng(13);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / double(trials), 0.3, 0.02);
}

TEST(Rng, ShufflePreservesMultiset)
{
    util::Rng rng(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream)
{
    util::Rng a(21);
    util::Rng b = a.split();
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 60);
}

// ------------------------------------------------------------- bitops

TEST(Bitops, IsPowerOfTwo)
{
    EXPECT_FALSE(util::isPowerOfTwo(0));
    EXPECT_TRUE(util::isPowerOfTwo(1));
    EXPECT_TRUE(util::isPowerOfTwo(2));
    EXPECT_FALSE(util::isPowerOfTwo(3));
    EXPECT_TRUE(util::isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(util::isPowerOfTwo((1ULL << 40) + 1));
}

TEST(Bitops, Log2Floor)
{
    EXPECT_EQ(util::log2Floor(1), 0u);
    EXPECT_EQ(util::log2Floor(2), 1u);
    EXPECT_EQ(util::log2Floor(3), 1u);
    EXPECT_EQ(util::log2Floor(4), 2u);
    EXPECT_EQ(util::log2Floor(1023), 9u);
    EXPECT_EQ(util::log2Floor(1024), 10u);
}

TEST(Bitops, Log2Ceil)
{
    EXPECT_EQ(util::log2Ceil(1), 0u);
    EXPECT_EQ(util::log2Ceil(2), 1u);
    EXPECT_EQ(util::log2Ceil(3), 2u);
    EXPECT_EQ(util::log2Ceil(4), 2u);
    EXPECT_EQ(util::log2Ceil(5), 3u);
}

TEST(Bitops, BitsForValue)
{
    EXPECT_EQ(util::bitsForValue(0), 1u);
    EXPECT_EQ(util::bitsForValue(1), 1u);
    EXPECT_EQ(util::bitsForValue(2), 2u);
    EXPECT_EQ(util::bitsForValue(3), 2u);
    EXPECT_EQ(util::bitsForValue(4), 3u);
    EXPECT_EQ(util::bitsForValue(255), 8u);
    EXPECT_EQ(util::bitsForValue(256), 9u);
}

TEST(Bitops, CeilDiv)
{
    EXPECT_EQ(util::ceilDiv(10, 5), 2u);
    EXPECT_EQ(util::ceilDiv(11, 5), 3u);
    EXPECT_EQ(util::ceilDiv(1, 5), 1u);
}

// ------------------------------------------------------------ strings

TEST(Strings, SplitKeepsEmptyFields)
{
    auto fields = util::split("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(fields[3], "");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(util::trim("  hi \t\n"), "hi");
    EXPECT_EQ(util::trim("hi"), "hi");
    EXPECT_EQ(util::trim("   "), "");
    EXPECT_EQ(util::trim(""), "");
}

TEST(Strings, Format)
{
    EXPECT_EQ(util::format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(util::format("%05.1f", 3.25), "003.2");
}

TEST(Strings, SiFormat)
{
    EXPECT_EQ(util::siFormat(2.65e-9, "J"), "2.65nJ");
    EXPECT_EQ(util::siFormat(0.0, "J"), "0J");
    EXPECT_EQ(util::siFormat(1.5e6, "Hz"), "1.5MHz");
}

TEST(Strings, CompactDouble)
{
    EXPECT_EQ(util::compactDouble(3.1400, 4), "3.14");
    EXPECT_EQ(util::compactDouble(2.0, 4), "2");
    EXPECT_EQ(util::compactDouble(0.5, 4), "0.5");
}

// -------------------------------------------------------------- table

TEST(TextTable, AlignsColumns)
{
    util::TextTable table({"N", "value"});
    table.row(1, "a");
    table.row(100, "bb");
    std::ostringstream os;
    table.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("N"), std::string::npos);
    EXPECT_NE(out.find("100"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(TextTable, CsvOutput)
{
    util::TextTable table({"a", "b"});
    table.row(1, 2);
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TextTable, DoubleFormatting)
{
    util::TextTable table({"x"});
    table.row(1.5);
    table.row(1.23456789e9);
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_NE(os.str().find("1.5"), std::string::npos);
    EXPECT_NE(os.str().find("e+09"), std::string::npos);
}

// --------------------------------------------------------------- grid

TEST(Grid, BasicAccess)
{
    util::Grid<int> g(3, 4, 7);
    EXPECT_EQ(g.rows(), 3u);
    EXPECT_EQ(g.cols(), 4u);
    EXPECT_EQ(g.at(2, 3), 7);
    g.at(1, 2) = 42;
    EXPECT_EQ(g(1, 2), 42);
}

TEST(Grid, FillAndEquality)
{
    util::Grid<int> a(2, 2, 0), b(2, 2, 0);
    EXPECT_TRUE(a == b);
    a.fill(5);
    EXPECT_FALSE(a == b);
    b.fill(5);
    EXPECT_TRUE(a == b);
}

TEST(Grid, EmptyGrid)
{
    util::Grid<int> g;
    EXPECT_TRUE(g.empty());
    EXPECT_EQ(g.size(), 0u);
}

// ------------------------------------------------------------ logging

TEST(Logging, LevelGateControlsInform)
{
    auto old = util::setLogLevel(util::LogLevel::Silent);
    // Nothing observable to assert beyond "does not crash"; the
    // level accessor round-trips.
    EXPECT_EQ(util::logLevel(), util::LogLevel::Silent);
    util::setLogLevel(util::LogLevel::Info);
    EXPECT_EQ(util::logLevel(), util::LogLevel::Info);
    util::setLogLevel(old);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH({ rl_panic("boom ", 42); }, "boom 42");
}

TEST(LoggingDeath, AssertAborts)
{
    EXPECT_DEATH({ rl_assert(1 == 2, "math broke"); }, "math broke");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT({ rl_fatal("bad config"); },
                ::testing::ExitedWithCode(1), "bad config");
}

// --------------------------------------------------------- ThreadPool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    util::ThreadPool pool(4);
    std::vector<std::atomic<int>> touched(257);
    pool.parallelFor(touched.size(),
                     [&](size_t i) { touched[i].fetch_add(1); });
    for (const auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, BodyExceptionReachesCaller)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(64,
                         [&](size_t i) {
                             if (i == 17)
                                 throw std::runtime_error("index 17");
                         }),
        std::runtime_error);
}

TEST(ThreadPool, SiblingIndicesStillRunWhenOneThrows)
{
    util::ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.parallelFor(100, [&](size_t i) {
            ran.fetch_add(1);
            if (i == 0)
                throw std::runtime_error("first");
        });
        FAIL() << "expected the body's exception to propagate";
    } catch (const std::runtime_error &) {
    }
    // A throwing body must not strand the rest of the batch.
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, UsableAfterABatchThrew)
{
    util::ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(
                     8, [](size_t) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ConcurrentCallersTakeTurns)
{
    // Several threads sharing one pool (a shared engine's batches)
    // each get every index of their own batch exactly once.
    util::ThreadPool pool(2);
    std::vector<std::thread> callers;
    std::atomic<size_t> total{0};
    for (int c = 0; c < 4; ++c)
        callers.emplace_back([&] {
            for (int round = 0; round < 20; ++round) {
                std::vector<std::atomic<int>> hits(17);
                pool.parallelFor(hits.size(),
                                 [&](size_t i) { hits[i].fetch_add(1); });
                for (const std::atomic<int> &h : hits)
                    EXPECT_EQ(h.load(), 1);
                total += hits.size();
            }
        });
    for (std::thread &caller : callers)
        caller.join();
    EXPECT_EQ(total.load(), 4u * 20u * 17u);
}

TEST(ThreadPool, CpuMaxLimitParsesCgroupQuotas)
{
    // ceil(quota / period); "max" is unlimited; garbage is ignored.
    EXPECT_EQ(util::ThreadPool::cpuMaxLimit("max 100000"), std::nullopt);
    EXPECT_EQ(util::ThreadPool::cpuMaxLimit("150000 100000"), 2u);
    EXPECT_EQ(util::ThreadPool::cpuMaxLimit("50000 100000"), 1u);
    EXPECT_EQ(util::ThreadPool::cpuMaxLimit("200000 100000\n"), 2u);
    EXPECT_EQ(util::ThreadPool::cpuMaxLimit("lots of cpus"), std::nullopt);
    EXPECT_EQ(util::ThreadPool::cpuMaxLimit("100000"), std::nullopt);
    EXPECT_EQ(util::ThreadPool::cpuMaxLimit("12x 100000"), std::nullopt);
    EXPECT_EQ(util::ThreadPool::cpuMaxLimit("100000 0"), std::nullopt);
    EXPECT_EQ(util::ThreadPool::cpuMaxLimit(""), std::nullopt);
}

TEST(ThreadPool, DefaultThreadCountIsAtLeastOne)
{
    EXPECT_GE(util::ThreadPool::defaultThreadCount(), 1u);
}

} // namespace
