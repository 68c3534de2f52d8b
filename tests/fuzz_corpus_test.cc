/**
 * @file
 * Replays the committed fuzz seed corpus through the shared fuzz
 * harness (fuzz/harness.h) as a plain ctest, so every toolchain --
 * not just the Clang+libFuzzer CI job -- proves the parsers are
 * total on the inputs the fuzzer has already found interesting.
 *
 * The corpus directory is baked in at configure time
 * (RACELOGIC_CORPUS_DIR); an empty or missing corpus fails loudly
 * instead of silently passing on nothing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "fuzz/harness.h"

namespace {

namespace fs = std::filesystem;

using HarnessFn = int (*)(const uint8_t *, size_t);

size_t
replayDirectory(const char *subdir, HarnessFn fn)
{
    const fs::path dir = fs::path(RACELOGIC_CORPUS_DIR) / subdir;
    size_t replayed = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        EXPECT_TRUE(in.good()) << entry.path();
        if (!in.good())
            continue;
        std::vector<uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        EXPECT_EQ(fn(bytes.data(), bytes.size()), 0) << entry.path();
        ++replayed;
    }
    return replayed;
}

TEST(FuzzCorpus, GfaSeedsReplayClean)
{
    EXPECT_GE(replayDirectory("gfa", racelogic::fuzz::gfaInput), 5u);
}

TEST(FuzzCorpus, FastaSeedsReplayClean)
{
    EXPECT_GE(replayDirectory("fasta", racelogic::fuzz::fastaInput),
              5u);
}

TEST(FuzzCorpus, WireSeedsReplayClean)
{
    EXPECT_GE(replayDirectory("wire", racelogic::fuzz::wireInput), 5u);
}

TEST(FuzzCorpus, RaceSeedsReplayClean)
{
    EXPECT_GE(replayDirectory("race", racelogic::fuzz::raceInput), 5u);
}

TEST(FuzzCorpus, GraphRaceSeedsReplayClean)
{
    EXPECT_GE(replayDirectory("graph_race", racelogic::fuzz::graphRaceInput),
              5u);
}

} // namespace
