/**
 * @file
 * Tests for the rl/pangraph subsystem: GFA parsing and its rejection
 * paths, the product-DAG race against the graph-NW oracle (exact,
 * cell-by-cell, and on randomized variation graphs), traceback to
 * (walk, CIGAR) mappings that re-score to the raced distance, the
 * Section 5 similarity conversion on rank-balanced graphs, and the
 * Section 6 early-termination horizon.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <csignal>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "rl/bio/align_dp.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/wavefront.h"
#include "rl/core/wavefront_band.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/gfa.h"
#include "rl/pangraph/graph_align_band.h"
#include "rl/pangraph/graph_align_dp.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using pangraph::GraphAligner;
using pangraph::GraphMapping;
using pangraph::SegmentId;
using pangraph::VariationGraph;

Sequence
dna(const std::string &text)
{
    return Sequence(Alphabet::dna(), text);
}

/** The bundled sample: a SNP bubble plus an insertion bubble. */
const char *kSampleGfa =
    "H\tVN:Z:1.0\n"
    "S\ts1\tACTGA\n"
    "S\ts2\tG\n"
    "S\ts3\tT\n"
    "S\ts4\tAC\n"
    "S\ts5\tGT\n"
    "S\ts6\tTAGA\n"
    "L\ts1\t+\ts2\t+\t0M\n"
    "L\ts1\t+\ts3\t+\t0M\n"
    "L\ts2\t+\ts4\t+\t0M\n"
    "L\ts3\t+\ts4\t+\t0M\n"
    "L\ts4\t+\ts5\t+\t0M\n"
    "L\ts4\t+\ts6\t+\t0M\n"
    "L\ts5\t+\ts6\t+\t0M\n";

std::shared_ptr<const VariationGraph>
sampleGraph()
{
    std::istringstream in(kSampleGfa);
    return std::make_shared<VariationGraph>(
        pangraph::readGfa(in, Alphabet::dna()));
}

/** Spell every source-to-sink walk (small graphs only). */
void
spellWalks(const VariationGraph &graph, SegmentId at, std::string prefix,
           std::vector<std::string> &out)
{
    prefix += graph.segment(at).label.str();
    if (graph.outLinks(at).empty()) {
        out.push_back(prefix);
        return;
    }
    for (SegmentId next : graph.outLinks(at))
        spellWalks(graph, next, prefix, out);
}

std::vector<std::string>
allWalks(const VariationGraph &graph)
{
    std::vector<std::string> walks;
    for (SegmentId s : graph.sources())
        spellWalks(graph, s, "", walks);
    return walks;
}

TEST(Gfa, ParsesSampleGraph)
{
    auto graph = sampleGraph();
    EXPECT_EQ(graph->segmentCount(), 6u);
    EXPECT_EQ(graph->linkCount(), 7u);
    EXPECT_EQ(graph->totalLabelLength(), 15u);
    EXPECT_EQ(graph->sources(), std::vector<SegmentId>{0});
    EXPECT_EQ(graph->sinks(), std::vector<SegmentId>{5});
    EXPECT_EQ(graph->segment(graph->findSegment("s6")).label.str(),
              "TAGA");

    // Deterministic Kahn order; sources first, every link forward.
    auto order = graph->topologicalOrder();
    ASSERT_EQ(order.size(), 6u);
    std::vector<size_t> rank(order.size());
    for (size_t i = 0; i < order.size(); ++i)
        rank[order[i]] = i;
    for (SegmentId id = 0; id < graph->segmentCount(); ++id)
        for (SegmentId to : graph->outLinks(id))
            EXPECT_LT(rank[id], rank[to]);

    // Shortest walk skips s5 (5+1+2+4), longest takes it (+2).
    auto range = graph->spelledLengthRange();
    EXPECT_EQ(range.first, 12u);
    EXPECT_EQ(range.second, 14u);
}

TEST(Gfa, ToleratesCrlfLowercaseAndComments)
{
    std::istringstream in(
        "# produced by a windows tool\r\n"
        "H\tVN:Z:1.0\r\n"
        "S\ta\tacgt\r\n"
        "S\tb\tTT\r\n"
        "\r\n"
        "L\ta\t+\tb\t+\t*\r\n");
    VariationGraph graph = pangraph::readGfa(in, Alphabet::dna());
    EXPECT_EQ(graph.segmentCount(), 2u);
    EXPECT_EQ(graph.segment(0).label.str(), "ACGT");
    EXPECT_EQ(graph.outLinks(0), std::vector<SegmentId>{1});
}

TEST(Gfa, RejectsReverseStrandLinksTyped)
{
    std::istringstream in("S\ta\tAC\nS\tb\tGT\nL\ta\t+\tb\t-\t0M\n");
    auto graph = pangraph::tryReadGfa(in, Alphabet::dna());
    ASSERT_FALSE(graph.ok());
    EXPECT_EQ(graph.status().code(), ErrorCode::Unsupported);
    EXPECT_NE(graph.status().message().find("reverse-strand"),
              std::string::npos);
}

TEST(Gfa, RejectsCyclicGraphTyped)
{
    std::istringstream in(
        "S\ta\tAC\nS\tb\tGT\n"
        "L\ta\t+\tb\t+\t0M\nL\tb\t+\ta\t+\t0M\n");
    auto graph = pangraph::tryReadGfa(in, Alphabet::dna());
    ASSERT_FALSE(graph.ok());
    EXPECT_EQ(graph.status().code(), ErrorCode::Unsupported);
    EXPECT_NE(graph.status().message().find("cycle"),
              std::string::npos);
}

TEST(Gfa, RejectsUndeclaredSegmentAndMissingSequenceTyped)
{
    std::istringstream missing("S\ta\tAC\nL\ta\t+\tzz\t+\t0M\n");
    auto noSeg = pangraph::tryReadGfa(missing, Alphabet::dna());
    ASSERT_FALSE(noSeg.ok());
    EXPECT_EQ(noSeg.status().code(), ErrorCode::NotFound);
    EXPECT_NE(noSeg.status().message().find("undeclared"),
              std::string::npos);

    std::istringstream star("S\ta\t*\n");
    auto noSeq = pangraph::tryReadGfa(star, Alphabet::dna());
    ASSERT_FALSE(noSeq.ok());
    EXPECT_EQ(noSeq.status().code(), ErrorCode::Unsupported);
    EXPECT_NE(noSeq.status().message().find("no sequence"),
              std::string::npos);
}

TEST(Gfa, RejectsNonBluntOverlapTyped)
{
    std::istringstream in("S\ta\tAC\nS\tb\tGT\nL\ta\t+\tb\t+\t3M\n");
    auto graph = pangraph::tryReadGfa(in, Alphabet::dna());
    ASSERT_FALSE(graph.ok());
    EXPECT_EQ(graph.status().code(), ErrorCode::Unsupported);
    EXPECT_NE(graph.status().message().find("blunt"),
              std::string::npos);
}

TEST(GfaDeath, FatalWrapperExitsWithDiagnostic)
{
    // readGfa() stays a valueOrFatal() shim over tryReadGfa() for
    // CLI tools; one death test pins the wrapper's contract.
    std::istringstream in("S\ta\tAC\nS\tb\tGT\nL\ta\t+\tb\t-\t0M\n");
    EXPECT_EXIT(pangraph::readGfa(in, Alphabet::dna()),
                ::testing::ExitedWithCode(1), "reverse-strand");
}

TEST(Gfa, RoundTripThroughWriter)
{
    auto graph = sampleGraph();
    std::ostringstream out;
    pangraph::writeGfa(out, *graph);
    std::istringstream in(out.str());
    VariationGraph parsed = pangraph::readGfa(in, Alphabet::dna());
    EXPECT_TRUE(pangraph::sameTopology(*graph, parsed));
    EXPECT_EQ(graph->fingerprint(), parsed.fingerprint());
}

TEST(GraphAlign, SingleSegmentGraphEqualsPairwiseAlignment)
{
    // A one-segment graph is plain pairwise alignment; the graph
    // oracle and the race must both match the classic DP.
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    auto graph = std::make_shared<VariationGraph>(Alphabet::dna());
    graph->addSegment("ref", dna("ACTGAGA"));

    util::Rng rng(11);
    GraphAligner aligner(graph, costs);
    for (int round = 0; round < 8; ++round) {
        Sequence read =
            Sequence::random(rng, Alphabet::dna(),
                             static_cast<size_t>(rng.uniformInt(0, 10)));
        bio::Score expected =
            bio::globalScore(read, dna("ACTGAGA"), costs);
        EXPECT_EQ(pangraph::graphAlignDp(*graph, read, costs).distance,
                  expected);
        EXPECT_EQ(aligner.align(read).score, expected);
    }
}

TEST(GraphAlign, RaceEqualsOracleAndBestWalkOnSample)
{
    auto graph = sampleGraph();
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    GraphAligner aligner(graph, costs);
    std::vector<std::string> walks = allWalks(*graph);
    ASSERT_EQ(walks.size(), 4u); // 2 SNP branches x (with|without s5)

    util::Rng rng(23);
    std::vector<Sequence> reads = {
        dna("ACTGAGACTAGA"),   // exact shortest walk
        dna("ACTGATACGTTAGA"), // exact longest walk (via s3, s5)
        dna("ACTGA"), dna(""), dna("TTTTTTTTTTTT"),
    };
    for (int i = 0; i < 6; ++i)
        reads.push_back(Sequence::random(
            rng, Alphabet::dna(),
            static_cast<size_t>(rng.uniformInt(1, 16))));

    for (const Sequence &read : reads) {
        // Gold standard: the best pairwise alignment over every
        // spelled walk.
        bio::Score best = bio::kScoreInfinity;
        for (const std::string &walk : walks)
            best = std::min(best,
                            bio::globalScore(read, dna(walk), costs));
        pangraph::GraphDpResult oracle =
            pangraph::graphAlignDp(*graph, read, costs);
        EXPECT_EQ(oracle.distance, best);

        pangraph::GraphRaceResult raced = aligner.align(read);
        EXPECT_TRUE(raced.completed);
        EXPECT_EQ(raced.score, best);
        EXPECT_EQ(raced.latencyCycles,
                  static_cast<sim::Tick>(best));

        // The race arrival at product node (j, p) must equal the
        // oracle DP cell (p, j) -- same shortest-path problem.
        const size_t positions = oracle.table.rows();
        for (size_t p = 0; p < positions; ++p) {
            for (size_t j = 0; j <= read.size(); ++j) {
                const auto &arrival =
                    raced.arrival[j * positions + p];
                const bio::Score cell = oracle.table.at(p, j);
                if (arrival.fired())
                    EXPECT_EQ(static_cast<bio::Score>(arrival.time()),
                              cell);
                else
                    EXPECT_EQ(cell, bio::kScoreInfinity);
            }
        }
    }
}

TEST(GraphAlign, ExactWalkReadMapsAllMatches)
{
    auto graph = sampleGraph();
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    GraphAligner aligner(graph, costs);

    // Spell s1 -> s2 -> s4 -> s6 exactly: ACTGA G AC TAGA.
    Sequence read = dna("ACTGAGACTAGA");
    GraphMapping mapping = aligner.map(read);
    EXPECT_EQ(mapping.cigar, "12=");
    EXPECT_EQ(mapping.distance,
              static_cast<bio::Score>(read.size())); // match weight 1
    std::vector<SegmentId> expected = {
        graph->findSegment("s1"), graph->findSegment("s2"),
        graph->findSegment("s4"), graph->findSegment("s6")};
    EXPECT_EQ(mapping.path, expected);
    EXPECT_EQ(pangraph::rescoreMapping(*graph, read, costs, mapping),
              mapping.distance);
}

TEST(GraphAlign, RandomizedRaceOracleAndTracebackAgreement)
{
    // Randomized GFAs with SNP bubbles, indel branches, and node
    // labels from 1 nt up to 64 nt; reads sampled from walks with
    // mutation noise.  The raced distance must equal the oracle and
    // every traceback must re-score to it.
    util::Rng rng(1234);
    const ScoreMatrix matrices[] = {
        ScoreMatrix::dnaShortestPath(),
        ScoreMatrix::dnaShortestPathInfMismatch(),
    };
    for (int round = 0; round < 12; ++round) {
        pangraph::VariationGraphParams params;
        params.backboneSegments =
            static_cast<size_t>(rng.uniformInt(2, 6));
        params.minLabel = 1;
        params.maxLabel = round < 10 ? 8 : 64; // two big-node rounds
        params.snpDensity = 0.4;
        params.insertDensity = 0.25;
        params.deleteDensity = 0.25;
        auto graph = std::make_shared<VariationGraph>(
            pangraph::randomVariationGraph(rng, Alphabet::dna(),
                                           params));
        graph->validate();

        const ScoreMatrix &costs = matrices[round % 2];
        GraphAligner aligner(graph, costs);
        for (int r = 0; r < 4; ++r) {
            Sequence read = pangraph::sampleRead(
                rng, *graph, bio::MutationModel::uniform(0.2));
            pangraph::GraphDpResult oracle =
                pangraph::graphAlignDp(*graph, read, costs);
            pangraph::GraphRaceResult raced = aligner.align(read);
            ASSERT_TRUE(raced.completed);
            ASSERT_EQ(raced.score, oracle.distance)
                << "round " << round << " read " << read.str();

            GraphMapping mapping = aligner.map(read);
            EXPECT_EQ(mapping.distance, raced.score);
            EXPECT_EQ(mapping.readConsumed, read.size());
            EXPECT_EQ(
                pangraph::rescoreMapping(*graph, read, costs, mapping),
                mapping.distance);
        }
    }
}

TEST(GraphAlign, SimilarityMatrixOnBalancedGraph)
{
    // SNP-only graphs are rank-balanced, so the Section 5 conversion
    // preserves the optimum across walks and the recovered score
    // must equal the best similarity over all spelled walks.
    util::Rng rng(77);
    auto graph = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(
            rng, Alphabet::dna(),
            pangraph::VariationGraphParams::balanced(5)));
    ScoreMatrix similarity = ScoreMatrix::dnaLongestPath();
    GraphAligner aligner(graph, similarity);
    ASSERT_TRUE(aligner.conversion().has_value());

    std::vector<std::string> walks = allWalks(*graph);
    for (int r = 0; r < 6; ++r) {
        Sequence read = pangraph::sampleRead(
            rng, *graph, bio::MutationModel::uniform(0.25));
        bio::Score best = -bio::kScoreInfinity;
        for (const std::string &walk : walks)
            best = std::max(
                best, bio::globalScore(read, dna(walk), similarity));
        EXPECT_EQ(aligner.align(read).score, best);
    }
}

TEST(GraphAlign, SimilarityNeedsRankBalanceTyped)
{
    // The sample graph's insertion bubble unbalances walk lengths.
    auto graph = sampleGraph();
    auto aligner =
        GraphAligner::tryMake(graph, ScoreMatrix::dnaLongestPath());
    ASSERT_FALSE(aligner.ok());
    EXPECT_EQ(aligner.status().code(), ErrorCode::Unsupported);
    EXPECT_NE(aligner.status().message().find("rank-balanced"),
              std::string::npos);
}

TEST(GraphAlign, HorizonAbortMatchesFullRaceVerdict)
{
    auto graph = sampleGraph();
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    GraphAligner aligner(graph, costs);
    util::Rng rng(5);
    for (int r = 0; r < 10; ++r) {
        Sequence read = pangraph::sampleRead(
            rng, *graph, bio::MutationModel::uniform(0.3));
        pangraph::GraphRaceResult full = aligner.align(read);
        const sim::Tick threshold =
            static_cast<sim::Tick>(rng.uniformInt(0, 20));
        pangraph::GraphRaceResult bounded =
            aligner.align(read, threshold);
        if (full.racedCost <= static_cast<bio::Score>(threshold)) {
            EXPECT_TRUE(bounded.completed);
            EXPECT_EQ(bounded.racedCost, full.racedCost);
        } else {
            EXPECT_FALSE(bounded.completed);
            EXPECT_EQ(bounded.score, bio::kScoreInfinity);
            EXPECT_EQ(bounded.latencyCycles, threshold);
        }
    }
}

TEST(GraphAlign, RejectsUnraceableWeightsAtPlanTimeTyped)
{
    // Bad matrices must fail in the GraphAligner factory with a
    // typed diagnostic, not deep inside the wavefront kernel.
    auto graph = sampleGraph();
    ScoreMatrix infGap = ScoreMatrix::dnaShortestPath();
    infGap.setGap(Alphabet::dna().encode('A'), bio::kScoreInfinity);
    auto inf = GraphAligner::tryMake(graph, infGap);
    ASSERT_FALSE(inf.ok());
    EXPECT_EQ(inf.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(inf.status().message().find("infinite"),
              std::string::npos);

    ScoreMatrix huge = ScoreMatrix::uniform(
        Alphabet::dna(), bio::ScoreKind::Cost,
        core::kMaxWavefrontWeight + 1);
    auto overCap = GraphAligner::tryMake(graph, huge);
    ASSERT_FALSE(overCap.ok());
    EXPECT_EQ(overCap.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(overCap.status().message().find("race-ready range"),
              std::string::npos);
}

TEST(GraphAlign, VariationGraphRejectsBadSegmentsTyped)
{
    VariationGraph graph{Alphabet::dna()};
    graph.addSegment("a", dna("AC"));
    auto dup = graph.tryAddSegment("a", dna("GT"));
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(dup.status().message().find("duplicate"),
              std::string::npos);
    auto empty = graph.tryAddSegment("b", dna(""));
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(empty.status().message().find("empty"),
              std::string::npos);
    // A rejected segment leaves the graph untouched.
    EXPECT_EQ(graph.segmentCount(), 1u);
}

TEST(GraphAlign, CompileGraphValidatesWeightsForDirectCallersTyped)
{
    // tryCompileGraph() is public; its own plan-time validation must
    // catch matrices GraphAligner would reject, so a direct caller
    // gets a typed diagnostic instead of a compiled view whose hoisted
    // gap weights no race can realize.
    auto graph = sampleGraph();
    ScoreMatrix infGap = ScoreMatrix::dnaShortestPath();
    infGap.setGap(Alphabet::dna().encode('A'), bio::kScoreInfinity);
    auto inf = pangraph::tryCompileGraph(*graph, infGap);
    ASSERT_FALSE(inf.ok());
    EXPECT_EQ(inf.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(inf.status().message().find("infinite"),
              std::string::npos);

    ScoreMatrix huge = ScoreMatrix::uniform(
        Alphabet::dna(), bio::ScoreKind::Cost,
        core::kMaxWavefrontWeight + 1);
    auto overCap = pangraph::tryCompileGraph(*graph, huge);
    ASSERT_FALSE(overCap.ok());
    EXPECT_EQ(overCap.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(overCap.status().message().find("race-ready range"),
              std::string::npos);
}

TEST(GraphAlignDeath, RejectsMatrixMismatchedWithCompiledView)
{
    // The compiled view hoists gap weights from one matrix; handing
    // either product builder a different matrix must die (the race
    // would mix the view's gap weights with the foreign matrix's pair
    // weights).
    auto graph = sampleGraph();
    GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    ScoreMatrix other = ScoreMatrix::uniform(
        Alphabet::dna(), bio::ScoreKind::Cost, 3);
    EXPECT_EXIT(pangraph::raceAlignmentGrid(aligner.compiled(),
                                            dna("AC"), other),
                ::testing::KilledBySignal(SIGABRT), "compiled");
    EXPECT_EXIT(pangraph::buildAlignmentGraph(aligner.compiled(),
                                              dna("AC"), other),
                ::testing::KilledBySignal(SIGABRT), "compiled");
}

/**
 * Race `read` on the materialized product DAG (the reference path)
 * and on the fused kernel, and assert the outcomes are bit-identical:
 * every result field including the event count, and the arrival
 * vector element by element (super-sink included).  A score-only
 * fused race must match in everything but the (empty) arrivals.
 */
void
expectFusedMatchesMaterialized(const GraphAligner &aligner,
                               const Sequence &read, sim::Tick horizon)
{
    pangraph::GraphRaceResult reference = aligner.align(
        pangraph::buildAlignmentGraph(aligner.compiled(), read,
                                      aligner.costs()),
        horizon);
    core::KernelCounters counters;
    pangraph::GraphRaceResult fused =
        aligner.align(read, horizon, nullptr, &counters);

    EXPECT_EQ(fused.completed, reference.completed);
    EXPECT_EQ(fused.racedCost, reference.racedCost);
    EXPECT_EQ(fused.score, reference.score);
    EXPECT_EQ(fused.latencyCycles, reference.latencyCycles);
    EXPECT_EQ(fused.events, reference.events);
    EXPECT_EQ(fused.nodes, reference.nodes);
    EXPECT_EQ(fused.cellsFired, reference.cellsFired);
    ASSERT_EQ(fused.arrival.size(), reference.arrival.size());
    for (size_t n = 0; n < fused.arrival.size(); ++n)
        ASSERT_EQ(fused.arrival[n].rawTime(),
                  reference.arrival[n].rawTime())
            << "arrival diverges at product node " << n << " (read "
            << read.str() << ", horizon " << horizon << ")";

    EXPECT_EQ(counters.events, fused.events);
    EXPECT_EQ(counters.lanesOccupied, fused.cellsFired);
    EXPECT_EQ(counters.horizonAborts, fused.completed ? 0u : 1u);

    // Score-only: no arrival vector, every other field and counter
    // equal.
    core::KernelCounters bareCounters;
    pangraph::GraphRaceResult bare = aligner.align(
        read, horizon, nullptr, &bareCounters, /*arrivals=*/false);
    EXPECT_TRUE(bare.arrival.empty());
    EXPECT_EQ(bare.completed, fused.completed);
    EXPECT_EQ(bare.cancelled, fused.cancelled);
    EXPECT_EQ(bare.racedCost, fused.racedCost);
    EXPECT_EQ(bare.score, fused.score);
    EXPECT_EQ(bare.latencyCycles, fused.latencyCycles);
    EXPECT_EQ(bare.events, fused.events);
    EXPECT_EQ(bare.nodes, fused.nodes);
    EXPECT_EQ(bare.cellsFired, fused.cellsFired);
    EXPECT_EQ(bareCounters.events, counters.events);
    EXPECT_EQ(bareCounters.bucketsDrained, counters.bucketsDrained);
    EXPECT_EQ(bareCounters.scratchHighWater, counters.scratchHighWater);
    EXPECT_EQ(bareCounters.lanesOccupied, counters.lanesOccupied);
    EXPECT_EQ(bareCounters.cancels, counters.cancels);
    EXPECT_EQ(bareCounters.horizonAborts, counters.horizonAborts);
}

TEST(GraphAlignFused, BitIdenticalToMaterializedDagOnRandomGraphs)
{
    // The fused kernel generates product edges on the fly; racing the
    // materialized DAG on core::raceDag is the reference.
    // Randomized graphs (SNP bubbles, indel branches, 1..64 nt
    // labels), both factory cost matrices, reads with mutation noise,
    // full races and random Section 6 horizons.
    util::Rng rng(4242);
    const ScoreMatrix matrices[] = {
        ScoreMatrix::dnaShortestPath(),
        ScoreMatrix::dnaShortestPathInfMismatch(),
    };
    for (int round = 0; round < 10; ++round) {
        pangraph::VariationGraphParams params;
        params.backboneSegments =
            static_cast<size_t>(rng.uniformInt(2, 6));
        params.minLabel = 1;
        params.maxLabel = round < 8 ? 8 : 64; // two big-node rounds
        params.snpDensity = 0.4;
        params.insertDensity = 0.25;
        params.deleteDensity = 0.25;
        auto graph = std::make_shared<VariationGraph>(
            pangraph::randomVariationGraph(rng, Alphabet::dna(),
                                           params));
        GraphAligner aligner(graph, matrices[round % 2]);
        for (int r = 0; r < 3; ++r) {
            Sequence read = pangraph::sampleRead(
                rng, *graph, bio::MutationModel::uniform(0.25));
            expectFusedMatchesMaterialized(aligner, read,
                                           sim::kTickInfinity);
            expectFusedMatchesMaterialized(
                aligner, read,
                static_cast<sim::Tick>(rng.uniformInt(0, 30)));
        }
    }
}

TEST(GraphAlignFused, SimilarityPlanRecoversThroughFusedPath)
{
    // Converted (Section 5) plans race the fused kernel too; the
    // recovered similarity must match the materialized reference.
    util::Rng rng(99);
    auto graph = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(
            rng, Alphabet::dna(),
            pangraph::VariationGraphParams::balanced(4)));
    GraphAligner aligner(graph, ScoreMatrix::dnaLongestPath());
    for (int r = 0; r < 4; ++r) {
        Sequence read = pangraph::sampleRead(
            rng, *graph, bio::MutationModel::uniform(0.2));
        expectFusedMatchesMaterialized(aligner, read,
                                       sim::kTickInfinity);
    }
}

TEST(GraphAlignFused, EdgeCasesMatchReference)
{
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();

    // Empty read on the bundled bubble graph: pure deletion sweep.
    GraphAligner bubbles(sampleGraph(), costs);
    expectFusedMatchesMaterialized(bubbles, dna(""),
                                   sim::kTickInfinity);
    expectFusedMatchesMaterialized(bubbles, dna(""), 3);

    // Graph of one segment (single source = sink, one terminal).
    auto single = std::make_shared<VariationGraph>(Alphabet::dna());
    single->addSegment("only", dna("ACGTAC"));
    GraphAligner aligner(single, costs);
    for (const char *text : {"", "A", "ACGTAC", "TTTT"}) {
        expectFusedMatchesMaterialized(aligner, dna(text),
                                       sim::kTickInfinity);
        expectFusedMatchesMaterialized(aligner, dna(text), 0);
        expectFusedMatchesMaterialized(aligner, dna(text), 2);
    }

    // Horizon exactly at the raced distance must still complete.
    pangraph::GraphRaceResult full = aligner.align(dna("ACGAC"));
    ASSERT_TRUE(full.completed);
    expectFusedMatchesMaterialized(
        aligner, dna("ACGAC"),
        static_cast<sim::Tick>(full.racedCost));
    if (full.racedCost > 0)
        expectFusedMatchesMaterialized(
            aligner, dna("ACGAC"),
            static_cast<sim::Tick>(full.racedCost) - 1);
}

TEST(GraphAlignFused, PreCancelledTokenAbortsWithTypedResult)
{
    GraphAligner aligner(sampleGraph(), ScoreMatrix::dnaShortestPath());
    core::CancelToken token;
    token.cancel();
    pangraph::GraphRaceResult r =
        aligner.align(dna("ACGAC"), sim::kTickInfinity, &token);
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.score, bio::kScoreInfinity);
}

TEST(GraphAlignFused, UncancelledTokenIsBitIdenticalToPlainAlign)
{
    GraphAligner aligner(sampleGraph(), ScoreMatrix::dnaShortestPath());
    const Sequence read = dna("ACGTAC");
    const pangraph::GraphRaceResult plain = aligner.align(read);

    const core::CancelToken idle; // never cancelled
    pangraph::GraphRaceResult r =
        aligner.align(read, sim::kTickInfinity, &idle);
    EXPECT_FALSE(r.cancelled);
    EXPECT_EQ(r.score, plain.score);
    EXPECT_EQ(r.racedCost, plain.racedCost);
    EXPECT_EQ(r.events, plain.events);
    EXPECT_EQ(r.cellsFired, plain.cellsFired);
    ASSERT_EQ(r.arrival.size(), plain.arrival.size());
    for (size_t n = 0; n < r.arrival.size(); ++n)
        EXPECT_EQ(r.arrival[n].rawTime(), plain.arrival[n].rawTime());
}

TEST(GraphAlignFused, MidRaceCancelCountsOnlyTheRowsItSwept)
{
    // A deadline a few ms out stops a long read mid-sweep, after read
    // row k - 1.  The swept rows are exactly the product of the read
    // prefix read[0..k-1) with the graph, and a cancelled race counts
    // only the arrivals into rows it swept -- the last of which
    // schedules deletions alone, like the prefix race's last row.  The
    // prefix race also drains its terminal states into the sink, which
    // the cancelled one never reaches; with those wires taken off,
    // events and the latest arrival must match.
    util::Rng rng(1403);
    pangraph::VariationGraphParams params;
    params.backboneSegments = 160;
    params.minLabel = 4;
    params.maxLabel = 24;
    auto graph = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    const pangraph::CompiledGraph &compiled = aligner.compiled();
    const size_t positions = compiled.positionCount();
    const Sequence read =
        pangraph::sampleRead(rng, *graph, bio::MutationModel::uniform(0.1));
    pangraph::GraphAlignScratch scratch;

    // Retry until the cancel lands mid-sweep (1 < k <= |read|): double
    // the deadline when it fired before row 2, halve it when the race
    // finished first.
    auto deadline = std::chrono::microseconds(1000);
    for (int attempt = 0; attempt < 40; ++attempt) {
        const core::CancelToken token(core::CancelToken::Clock::now() +
                                      deadline);
        core::KernelCounters counters;
        const pangraph::GraphRaceResult cut = aligner.align(
            read, sim::kTickInfinity, scratch, &token, &counters);
        size_t k = 0; // rows published; position 0 fires in every one
        while (k <= read.size() && cut.arrival[k * positions].fired())
            ++k;
        if (!cut.cancelled) {
            deadline /= 2;
            continue;
        }
        if (k <= 1) {
            deadline *= 2;
            continue;
        }
        ASSERT_LE(k, read.size());
        SCOPED_TRACE(testing::Message() << "cancelled after row " << k - 1);
        EXPECT_FALSE(cut.completed);
        EXPECT_EQ(counters.cancels, 1u);

        core::KernelCounters prefixCounters;
        const pangraph::GraphRaceResult prefix =
            aligner.align(read.slice(0, k - 1), sim::kTickInfinity, scratch,
                          nullptr, &prefixCounters);
        ASSERT_TRUE(prefix.completed);
        uint64_t wires = 0;
        for (size_t p = 1; p < positions; ++p)
            wires += compiled.terminal[p] &&
                     prefix.arrival[(k - 1) * positions + p].fired();
        EXPECT_EQ(cut.events, prefix.events - wires);
        EXPECT_EQ(cut.latencyCycles, prefixCounters.bucketsDrained - 1);
        EXPECT_EQ(counters.bucketsDrained, prefixCounters.bucketsDrained);
        EXPECT_EQ(cut.cellsFired, prefix.cellsFired - 1); // no sink
        for (size_t n = 0; n < k * positions; ++n)
            ASSERT_EQ(cut.arrival[n].rawTime(), prefix.arrival[n].rawTime());
        return;
    }
    FAIL() << "no deadline cancelled the race mid-sweep";
}

TEST(GraphAlignFused, ScratchReuseIsBitIdenticalAndBuildsNoProduct)
{
    // The steady-state read-mapping shape: one scratch across many
    // reads.  Outcomes must equal fresh-scratch runs, and the fused
    // path must not materialize any product DAG.
    auto graph = sampleGraph();
    GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    util::Rng rng(7);
    std::vector<Sequence> reads;
    for (int r = 0; r < 12; ++r)
        reads.push_back(pangraph::sampleRead(
            rng, *graph, bio::MutationModel::uniform(0.3)));

    const uint64_t builds = pangraph::alignmentGraphBuildCount();
    pangraph::GraphAlignScratch scratch;
    for (const Sequence &read : reads) {
        pangraph::GraphRaceResult reused =
            aligner.align(read, sim::kTickInfinity, scratch);
        pangraph::GraphRaceResult fresh = aligner.align(read);
        EXPECT_EQ(reused.racedCost, fresh.racedCost);
        EXPECT_EQ(reused.events, fresh.events);
        EXPECT_EQ(reused.cellsFired, fresh.cellsFired);
        ASSERT_EQ(reused.arrival.size(), fresh.arrival.size());
        for (size_t n = 0; n < reused.arrival.size(); ++n)
            EXPECT_EQ(reused.arrival[n].rawTime(),
                      fresh.arrival[n].rawTime());
    }
    EXPECT_EQ(pangraph::alignmentGraphBuildCount(), builds);

    // Tracebacks from fused arrivals re-score exactly (map() races
    // fused and walks tight edges on the same vector).
    for (const Sequence &read : reads) {
        GraphMapping mapping = aligner.map(read);
        EXPECT_EQ(
            pangraph::rescoreMapping(*graph, read, aligner.costs(),
                                     mapping),
            mapping.distance);
    }
}

// ---------------------------------------- graph band vs row sweep

using GraphSweep = decltype(&pangraph::detail::raceAlignmentGridRows);

constexpr size_t kLanes = core::detail::kBandLanes;
constexpr sim::Tick kBound = core::detail::kBandUnfired; // 2^14

const char *const kNoBand =
    "host has no AVX-512BW: raceAlignmentGrid runs the row sweep alone";

/**
 * raceAlignmentGrid's band, which must keep the race: one it gives
 * back to the row sweep fails the test and reads as a default result.
 */
pangraph::GraphRaceResult
keptBand(const pangraph::CompiledGraph &compiled, const Sequence &read,
         const ScoreMatrix &costs, sim::Tick horizon,
         pangraph::GraphAlignScratch &scratch,
         const core::CancelToken *cancel, core::KernelCounters *counters,
         bool arrivals, bool inhibit)
{
    std::optional<pangraph::GraphRaceResult> raced =
        pangraph::detail::raceAlignmentGridBand(compiled, read, costs,
                                                horizon, scratch, cancel,
                                                counters, arrivals, inhibit);
    EXPECT_TRUE(raced.has_value())
        << "the band gave the race back to the row sweep";
    return raced ? std::move(*raced) : pangraph::GraphRaceResult();
}

/**
 * Race `read` on the row sweep and on `subject` and assert the
 * outcomes are identical: every GraphRaceResult field, the arrival
 * vector (AlignmentGraph::node() layout) included, and every
 * KernelCounters field.  The subject races on `bandScratch`, which the
 * caller reuses across graphs, so a ring left by a graph of another
 * shape is raced over too.
 */
void
expectGraphBandMatchesRows(const GraphAligner &aligner, const Sequence &read,
                           sim::Tick horizon, bool arrivals,
                           const core::CancelToken *cancel,
                           pangraph::GraphAlignScratch &bandScratch,
                           GraphSweep subject)
{
    SCOPED_TRACE(testing::Message()
                 << "positions=" << aligner.compiled().positionCount()
                 << " |read|=" << read.size() << " horizon=" << horizon
                 << " arrivals=" << arrivals
                 << " cancel=" << (cancel ? cancel->cancelled() : -1));
    pangraph::GraphAlignScratch rowScratch;
    core::KernelCounters rowCounters, bandCounters;
    const pangraph::GraphRaceResult rows =
        pangraph::detail::raceAlignmentGridRows(
            aligner.compiled(), read, aligner.costs(), horizon, rowScratch,
            cancel, &rowCounters, arrivals);
    const pangraph::GraphRaceResult band =
        subject(aligner.compiled(), read, aligner.costs(), horizon,
                bandScratch, cancel, &bandCounters, arrivals, false);

    EXPECT_EQ(band.score, rows.score);
    EXPECT_EQ(band.racedCost, rows.racedCost);
    EXPECT_EQ(band.completed, rows.completed);
    EXPECT_EQ(band.cancelled, rows.cancelled);
    EXPECT_EQ(band.latencyCycles, rows.latencyCycles);
    EXPECT_EQ(band.events, rows.events);
    EXPECT_EQ(band.nodes, rows.nodes);
    EXPECT_EQ(band.cellsFired, rows.cellsFired);
    ASSERT_EQ(band.arrival.size(), rows.arrival.size());
    for (size_t n = 0; n < band.arrival.size(); ++n)
        ASSERT_EQ(band.arrival[n].rawTime(), rows.arrival[n].rawTime())
            << "arrival diverges at product node " << n;

    EXPECT_EQ(bandCounters.events, rowCounters.events);
    EXPECT_EQ(bandCounters.bucketsDrained, rowCounters.bucketsDrained);
    EXPECT_EQ(bandCounters.scratchHighWater, rowCounters.scratchHighWater);
    EXPECT_EQ(bandCounters.lanesOccupied, rowCounters.lanesOccupied);
    EXPECT_EQ(bandCounters.cancels, rowCounters.cancels);
    EXPECT_EQ(bandCounters.horizonAborts, rowCounters.horizonAborts);
}

/**
 * Every horizon, arrival mode and token of the suite, for one read on
 * the band: horizons {inf, 0, opt - 1, opt, random}, arrivals on and
 * off, and no token, a never-cancelled one and a pre-cancelled one.
 * The band must keep every race.
 */
void
expectGraphBandMatchesRowsEverywhere(const GraphAligner &aligner,
                                     const Sequence &read, util::Rng &rng,
                                     pangraph::GraphAlignScratch &bandScratch)
{
    pangraph::GraphAlignScratch scratch;
    const pangraph::GraphRaceResult full =
        pangraph::detail::raceAlignmentGridRows(
            aligner.compiled(), read, aligner.costs(), sim::kTickInfinity,
            scratch, nullptr, nullptr, /*arrivals=*/false);
    ASSERT_TRUE(full.completed);
    const auto opt = static_cast<sim::Tick>(full.racedCost);
    const core::CancelToken never;
    core::CancelToken already;
    already.cancel();
    for (sim::Tick horizon :
         {sim::kTickInfinity, sim::Tick(0), opt > 0 ? opt - 1 : 0, opt,
          sim::Tick(rng.index(2 * opt + 2))}) {
        for (bool arrivals : {true, false}) {
            expectGraphBandMatchesRows(aligner, read, horizon, arrivals,
                                       nullptr, bandScratch, &keptBand);
            expectGraphBandMatchesRows(aligner, read, horizon, arrivals,
                                       &never, bandScratch, &keptBand);
            expectGraphBandMatchesRows(aligner, read, horizon, arrivals,
                                       &already, bandScratch, &keptBand);
        }
    }
}

/**
 * Reads of 0, 1-9 nt, one off either side of one and two band widths
 * (31 .. 33, 63 .. 65), up to 200 nt, and a noisy walk.
 */
std::vector<Sequence>
bandReads(util::Rng &rng, const VariationGraph &graph)
{
    std::vector<Sequence> reads;
    for (size_t n : {size_t(0), size_t(1), size_t(rng.uniformInt(2, 9)),
                     kLanes - 1, kLanes, kLanes + 1, 2 * kLanes - 1,
                     2 * kLanes, 2 * kLanes + 1,
                     size_t(rng.uniformInt(18, 200))})
        reads.push_back(Sequence::random(rng, graph.alphabet(), n));
    reads.push_back(pangraph::sampleRead(rng, graph,
                                         bio::MutationModel::uniform(0.2)));
    return reads;
}

/**
 * Several sources and segments of in-degree three and more, in a
 * random id order: a random DAG over `segments` segments whose links
 * run forward in a shuffled order, so position order is not
 * topological and joins need several far slots.
 */
std::shared_ptr<VariationGraph>
fanGraph(util::Rng &rng, size_t segments)
{
    auto graph = std::make_shared<VariationGraph>(Alphabet::dna());
    std::vector<SegmentId> rank(segments);
    for (size_t i = 0; i < segments; ++i) {
        graph->addSegment("f" + std::to_string(i),
                          Sequence::random(rng, Alphabet::dna(),
                                           size_t(rng.uniformInt(1, 4))));
        rank[i] = static_cast<SegmentId>(i);
    }
    for (size_t i = segments; i > 1; --i)
        std::swap(rank[i - 1], rank[rng.index(i)]);
    for (size_t i = 0; i < segments; ++i)
        for (size_t j = i + 1; j < segments; ++j)
            if (rng.bernoulli(0.35))
                graph->addLink(rank[i], rank[j]);
    return graph;
}

class GraphBandSweep : public ::testing::TestWithParam<int>
{
  protected:
    void
    SetUp() override
    {
        if (!core::detail::hostRunsBand())
            GTEST_SKIP() << kNoBand;
    }
};

TEST_P(GraphBandSweep, MatchesRowSweepOnEveryFieldAndCounter)
{
    const int param = GetParam();
    util::Rng rng(6100 + param);
    pangraph::GraphAlignScratch bandScratch;
    const ScoreMatrix matrices[] = {
        ScoreMatrix::dnaShortestPath(),
        ScoreMatrix::dnaShortestPathInfMismatch(),
    };

    // Random variation graphs: bubble segments are numbered after the
    // backbone, so position order is not the sweep order.
    pangraph::VariationGraphParams params;
    params.backboneSegments = static_cast<size_t>(rng.uniformInt(1, 10));
    params.maxLabel = param % 4 == 0 ? 24 : 8;
    params.snpDensity = 0.4;
    params.insertDensity = 0.25;
    params.deleteDensity = 0.25;
    auto variation = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    GraphAligner onVariation(variation, matrices[param % 2]);
    for (const Sequence &read : bandReads(rng, *variation))
        expectGraphBandMatchesRowsEverywhere(onVariation, read, rng,
                                             bandScratch);

    // Several sources and joins of in-degree >= 3.
    auto fan = fanGraph(rng, static_cast<size_t>(rng.uniformInt(3, 12)));
    GraphAligner onFan(fan, matrices[(param + 1) % 2]);
    for (const Sequence &read : bandReads(rng, *fan))
        expectGraphBandMatchesRowsEverywhere(onFan, read, rng, bandScratch);

    // A converted (Section 5) similarity plan on a rank-balanced graph.
    auto balanced = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(
            rng, Alphabet::dna(),
            pangraph::VariationGraphParams::balanced(
                static_cast<size_t>(rng.uniformInt(1, 6)))));
    GraphAligner similarity(balanced, ScoreMatrix::dnaLongestPath());
    for (const Sequence &read : bandReads(rng, *balanced))
        expectGraphBandMatchesRowsEverywhere(similarity, read, rng,
                                             bandScratch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphBandSweep, ::testing::Range(0, 24));

/**
 * The band's tables for `aligner`'s graph, built on any host, with the
 * far groups held to CompiledGraph::pred: expanded back into (step,
 * lane, far predecessor) triples, they are exactly the triples of every
 * predecessor k' of sweep index k but k - 1, raced by lane r at step
 * k + r -- each once.  Every group reads a slot the band wrote earlier
 * in the same band (d <= t - r, and d < window, so the ring has not
 * overwritten it), and a step has one group per distance.
 */
pangraph::GraphBandTables
checkedBandTables(const GraphAligner &aligner)
{
    using Triple = std::tuple<size_t, size_t, size_t>; // (t, r, k')
    const pangraph::CompiledGraph &compiled = aligner.compiled();
    pangraph::GraphBandTables tables =
        pangraph::detail::compileBandTables(compiled, aligner.costs());
    const size_t positions = compiled.positionCount();
    EXPECT_FALSE(tables.empty());
    EXPECT_TRUE(std::has_single_bit(tables.window));
    EXPECT_EQ(tables.farBegin.size(), positions + kLanes);

    std::vector<Triple> expected;
    for (size_t k = 1; k < positions; ++k) {
        const pangraph::CharPos q = tables.order[k];
        for (uint32_t e = compiled.predOffsets[q];
             e < compiled.predOffsets[q + 1]; ++e) {
            const size_t from = tables.rank[compiled.pred[e]];
            if (from + 1 == k)
                continue;
            EXPECT_LT(k - from, tables.window);
            for (size_t r = 0; r < kLanes; ++r)
                expected.emplace_back(k + r, r, from);
        }
    }

    std::vector<Triple> expanded;
    for (size_t t = 0; t + 1 < tables.farBegin.size(); ++t) {
        std::set<uint32_t> slots;
        for (uint32_t g = tables.farBegin[t]; g < tables.farBegin[t + 1];
             ++g) {
            const auto group = tables.far[g];
            EXPECT_LT(group.slot, tables.window);
            EXPECT_NE(group.lanes, 0u);
            EXPECT_TRUE(slots.insert(group.slot).second)
                << "two groups of step " << t << " read one slot";
            // The one distance in 1 .. window - 1 whose step t - d
            // wrote the slot.
            const size_t d = (t - group.slot) & (tables.window - 1);
            EXPECT_GE(d, 1u);
            for (size_t r = 0; r < kLanes; ++r) {
                if (!(group.lanes >> r & 1))
                    continue;
                EXPECT_LE(r + d, t) << "step " << t << " lane " << r
                                    << " reads a slot not yet written";
                expanded.emplace_back(t, r, t - r - d);
            }
        }
    }
    std::sort(expected.begin(), expected.end());
    std::sort(expanded.begin(), expanded.end());
    EXPECT_EQ(expanded, expected);
    return tables;
}

TEST(GraphBandTables, FarGroupsExpandToEveryFarPredecessorOnce)
{
    util::Rng rng(6200);
    for (int round = 0; round < 24; ++round) {
        pangraph::VariationGraphParams params;
        params.backboneSegments = static_cast<size_t>(rng.uniformInt(1, 12));
        params.maxLabel = round % 4 == 0 ? 24 : 8;
        params.snpDensity = 0.4;
        params.insertDensity = 0.25;
        params.deleteDensity = 0.25;
        auto variation = std::make_shared<VariationGraph>(
            pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
        SCOPED_TRACE(testing::Message() << "round " << round);
        checkedBandTables(
            GraphAligner(variation, ScoreMatrix::dnaShortestPath()));
        checkedBandTables(GraphAligner(
            fanGraph(rng, static_cast<size_t>(rng.uniformInt(3, 12))),
            ScoreMatrix::dnaShortestPathInfMismatch()));
    }
}

TEST(GraphBandTables, FanJoinsNeedSeveralFarGroups)
{
    // Four sources into one join, which then has one chain predecessor
    // at most and three far ones, at three sweep distances.  Position
    // 0 lies the same three distances back from three of the sources'
    // first characters, so no step races more than three far groups,
    // and every step that races the join races three.
    auto graph = std::make_shared<VariationGraph>(Alphabet::dna());
    const SegmentId join = graph->addSegment("join", dna("GATTACA"));
    for (const char *name : {"a", "b", "c", "d"})
        graph->addLink(graph->addSegment(name, dna("ACG")), join);
    GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    const pangraph::GraphBandTables tables = checkedBandTables(aligner);
    uint32_t widest = 0;
    for (size_t t = 0; t + 1 < tables.farBegin.size(); ++t)
        widest = std::max(widest, tables.farBegin[t + 1] - tables.farBegin[t]);
    EXPECT_EQ(widest, 3u);
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << kNoBand;
    pangraph::GraphAlignScratch scratch;
    util::Rng rng(6201);
    for (const Sequence &read : bandReads(rng, *graph))
        expectGraphBandMatchesRowsEverywhere(aligner, read, rng, scratch);
}

TEST(GraphBandTables, LinkBeyondTheMinimumWindowWidensTheRing)
{
    // An optional 40-nt insertion: the segment after it has a far
    // predecessor 41 sweep steps back, past the 16-step window of the
    // graph-map shapes, so the ring grows to 64 steps.
    auto graph = std::make_shared<VariationGraph>(Alphabet::dna());
    util::Rng rng(6202);
    const SegmentId from = graph->addSegment("from", dna("ACGTACGT"));
    const SegmentId to = graph->addSegment("to", dna("TTGACA"));
    const SegmentId insert = graph->addSegment(
        "insert", Sequence::random(rng, Alphabet::dna(), 40));
    graph->addLink(from, insert);
    graph->addLink(insert, to);
    graph->addLink(from, to);
    GraphAligner aligner(graph, ScoreMatrix::dnaShortestPathInfMismatch());
    EXPECT_EQ(checkedBandTables(aligner).window, 64u);
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << kNoBand;
    EXPECT_EQ(aligner.compiled().band.window, 64u);
    pangraph::GraphAlignScratch scratch;
    for (const Sequence &read : bandReads(rng, *graph))
        expectGraphBandMatchesRowsEverywhere(aligner, read, rng, scratch);
}

TEST(GraphBandTables, TalliesThatWouldWrapFoldMidBand)
{
    // A chain of 12000 one-nt segments, each linked to the next three:
    // every position past the third has two far predecessors, so a
    // lane tallies up to 3 x 12031 + 2 x 23997 arrivals per band, past
    // 2^16.  The band folds its lanes' tallies into the race's before
    // they wrap, mid-band, and keeps the race, bounded or not.
    const size_t segments = 12000;
    auto graph = std::make_shared<VariationGraph>(Alphabet::dna());
    util::Rng rng(6203);
    const Sequence labels =
        Sequence::random(rng, Alphabet::dna(), segments);
    for (size_t i = 0; i < segments; ++i)
        graph->addSegment("s" + std::to_string(i), labels.slice(i, 1));
    for (size_t i = 0; i < segments; ++i)
        for (size_t d = 1; d <= 3 && i + d < segments; ++d)
            graph->addLink(static_cast<SegmentId>(i),
                           static_cast<SegmentId>(i + d));
    const ScoreMatrix unit =
        ScoreMatrix::uniform(Alphabet::dna(), bio::ScoreKind::Cost, 1);
    GraphAligner aligner(graph, unit);
    const pangraph::GraphBandTables tables =
        pangraph::detail::compileBandTables(aligner.compiled(), unit);
    ASSERT_FALSE(tables.empty());
    size_t growth = 0; // a lane's tallies over one band, at most
    for (size_t t = 0; t + 1 < tables.farBegin.size(); ++t)
        growth += 3 + 2 * (tables.farBegin[t + 1] - tables.farBegin[t]);
    EXPECT_GT(growth, size_t(UINT16_MAX));
    EXPECT_LT(tables.foldSteps, tables.farBegin.size() - 1);
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << kNoBand;
    EXPECT_FALSE(aligner.compiled().band.empty());
    const Sequence read = labels.slice(100, 40);
    pangraph::GraphAlignScratch scratch;
    const auto opt = static_cast<sim::Tick>(
        pangraph::detail::raceAlignmentGridRows(aligner.compiled(), read,
                                                unit, sim::kTickInfinity,
                                                scratch, nullptr, nullptr,
                                                false)
            .racedCost);
    for (sim::Tick horizon : {sim::kTickInfinity, opt - 1, opt})
        for (bool arrivals : {true, false})
            expectGraphBandMatchesRows(aligner, read, horizon, arrivals,
                                       nullptr, scratch, &keptBand);
}

TEST(GraphBandMemory, ResidentBytesCountTheTables)
{
    // The plan cache counts a plan's band tables through
    // GraphBandTables::residentBytes(): the sweep order, the weights
    // and the far groups.
    util::Rng rng(6240);
    pangraph::VariationGraphParams params;
    params.backboneSegments = 24;
    auto graph = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    const pangraph::GraphBandTables tables =
        pangraph::detail::compileBandTables(aligner.compiled(),
                                            aligner.costs());
    ASSERT_FALSE(tables.empty());
    const size_t lanes =
        tables.weights.capacity() * sizeof(uint16_t) +
        tables.farBegin.capacity() * sizeof(uint32_t) +
        tables.far.capacity() * sizeof(core::detail::BandFarGroup);
    EXPECT_GT(lanes, 0u);
    EXPECT_EQ(tables.residentBytes(),
              tables.order.capacity() * sizeof(pangraph::CharPos) +
                  tables.rank.capacity() * sizeof(uint32_t) + lanes);
}

/**
 * Race `read` under `horizon` on the band where the host has it, and
 * assert it keeps the race exactly when its lanes hold it -- the
 * horizon is below 2^14, or the row sweep's latest arrival plus the
 * largest weight is -- and then matches the row sweep; and that
 * raceAlignmentGrid, which races the row sweep again for a race the
 * band gives back, matches it either way.  Returns whether the band
 * kept the race (false on a host without the band).
 */
bool
expectGraphBandKeepsWhatItsLanesHold(const GraphAligner &aligner,
                                     const Sequence &read, sim::Tick horizon,
                                     bool arrivals,
                                     pangraph::GraphAlignScratch &scratch)
{
    SCOPED_TRACE(testing::Message() << "|read|=" << read.size()
                                    << " horizon=" << horizon
                                    << " arrivals=" << arrivals);
    expectGraphBandMatchesRows(aligner, read, horizon, arrivals, nullptr,
                               scratch, &pangraph::raceAlignmentGrid);
    if (!core::detail::hostRunsBand())
        return false;
    pangraph::GraphAlignScratch rowScratch;
    core::KernelCounters rowCounters, bandCounters;
    (void)pangraph::detail::raceAlignmentGridRows(
        aligner.compiled(), read, aligner.costs(), horizon, rowScratch,
        nullptr, &rowCounters, false);
    const sim::Tick latest = rowCounters.bucketsDrained - 1;
    const bool holds =
        horizon < kBound ||
        latest + static_cast<sim::Tick>(aligner.costs().maxFinite()) < kBound;
    const std::optional<pangraph::GraphRaceResult> band =
        pangraph::detail::raceAlignmentGridBand(
            aligner.compiled(), read, aligner.costs(), horizon, scratch,
            nullptr, &bandCounters, arrivals);
    EXPECT_EQ(band.has_value(), holds) << "latest arrival " << latest;
    if (band)
        expectGraphBandMatchesRows(aligner, read, horizon, arrivals, nullptr,
                                   scratch, &keptBand);
    else
        EXPECT_EQ(bandCounters.events + bandCounters.bucketsDrained +
                      bandCounters.scratchHighWater +
                      bandCounters.lanesOccupied + bandCounters.cancels +
                      bandCounters.horizonAborts,
                  0u)
            << "a race the band gave back touched the counters";
    return band.has_value();
}

TEST(GraphBandBound, TheBandRacesBelowTheBoundAndTheRowSweepFromIt)
{
    // Costs of 1 for every match and gap, mismatches forbidden, on a
    // one-nt bubble (a -> b | c -> d, so d has a far predecessor).
    // With K = 4, (|read| + 4 + 1) x 1 < 2^14 -- the worst-case path
    // bound the band once took races by -- up to |read| = 16378, so
    // that read's arrivals, plus the largest weight, stay below 2^14.
    // The next read length sits on that bound, and a 20000-nt read
    // sends the sink past 2^14.  The band keeps what its lanes hold --
    // every race under a horizon below 2^14 -- and gives the rest back.
    util::Rng rng(6250);
    ScoreMatrix m =
        ScoreMatrix::uniform(Alphabet::dna(), bio::ScoreKind::Cost, 1);
    for (bio::Symbol x = 0; x < 4; ++x)
        for (bio::Symbol y = 0; y < 4; ++y)
            if (x != y)
                m.setPair(x, y, bio::kScoreInfinity);
    auto graph = std::make_shared<VariationGraph>(Alphabet::dna());
    const SegmentId a = graph->addSegment("a", dna("A"));
    const SegmentId b = graph->addSegment("b", dna("C"));
    const SegmentId c = graph->addSegment("c", dna("G"));
    const SegmentId d = graph->addSegment("d", dna("T"));
    graph->addLink(a, b);
    graph->addLink(a, c);
    graph->addLink(b, d);
    graph->addLink(c, d);
    GraphAligner aligner(graph, m);
    pangraph::GraphAlignScratch scratch;
    for (size_t n : {size_t(16378), size_t(16379), size_t(20000)}) {
        SCOPED_TRACE(testing::Message() << "|read|=" << n);
        const Sequence read = Sequence::random(rng, Alphabet::dna(), n);
        const auto opt = static_cast<sim::Tick>(
            pangraph::graphAlignDp(*graph, read, m).distance);
        EXPECT_EQ(pangraph::raceAlignmentGrid(aligner.compiled(), read, m)
                      .racedCost,
                  static_cast<bio::Score>(opt));
        // The bound itself, and a horizon past every lane value.
        for (sim::Tick horizon : {sim::kTickInfinity, opt - 1, opt, kBound,
                                  sim::Tick(1) << 40}) {
            for (bool arrivals : {true, false}) {
                const bool kept = expectGraphBandKeepsWhatItsLanesHold(
                    aligner, read, horizon, arrivals, scratch);
                if (!core::detail::hostRunsBand())
                    continue;
                if (n == 16378 || horizon < kBound)
                    EXPECT_TRUE(kept);
                if (n == 20000 && horizon >= kBound)
                    EXPECT_FALSE(kept);
            }
        }
    }
}

TEST(GraphBandAlphabet, EveryAlphabetUpToSixtyFourLettersRacesTheBand)
{
    // The pair table has 8 codes per axis: 7 letters and the unfired
    // code.  From 8 letters the band gathers its substitution weights.
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << kNoBand;
    util::Rng rng(6260);
    const std::string letters64 =
        "ACDEFGHIKLMNPQRSTVWYBJOUXZabcdefghijklmnopqrstuvwxyz0123456789+/";
    for (size_t letters : {size_t(7), size_t(8), size_t(20), size_t(64)}) {
        SCOPED_TRACE(testing::Message() << letters << " letters");
        const Alphabet alphabet(letters64.substr(0, letters));
        ScoreMatrix m(alphabet, bio::ScoreKind::Cost);
        for (size_t x = 0; x < letters; ++x) {
            m.setGap(bio::Symbol(x), rng.uniformInt(1, 9));
            for (size_t y = 0; y < letters; ++y)
                m.setPair(bio::Symbol(x), bio::Symbol(y),
                          x != y && rng.index(4) == 0
                              ? bio::kScoreInfinity
                              : rng.uniformInt(1, 9));
        }
        pangraph::VariationGraphParams params;
        params.backboneSegments = 8;
        auto graph = std::make_shared<VariationGraph>(
            pangraph::randomVariationGraph(rng, alphabet, params));
        GraphAligner aligner(graph, m);
        EXPECT_FALSE(aligner.compiled().band.empty());
        pangraph::GraphAlignScratch scratch;
        for (const Sequence &read : bandReads(rng, *graph))
            expectGraphBandMatchesRowsEverywhere(aligner, read, rng, scratch);
    }
}

/**
 * Cancel a long (read x graph) product from a second thread: the sweep
 * must come back with the typed abort, having swept whole read rows
 * and counted exactly the arrivals into them.  dnaShortestPath has no
 * forbidden pair, so an unbounded race fires every state of each swept
 * row; the rows swept are then a read prefix, whose own race counts
 * the same arrivals plus the sink wires out of its last row.
 */
void
expectGraphCancelledFromAnotherThread(GraphSweep sweep)
{
    util::Rng rng(6300);
    pangraph::VariationGraphParams params;
    params.backboneSegments = 160;
    params.minLabel = 4;
    params.maxLabel = 24;
    auto graph = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    const pangraph::CompiledGraph &compiled = aligner.compiled();
    const size_t positions = compiled.positionCount();
    const Sequence read =
        pangraph::sampleRead(rng, *graph, bio::MutationModel::uniform(0.1));

    // The cancel lands whenever the scheduler runs the canceller; race
    // until it has landed.  The race in flight then stops mid-sweep, or
    // the next one before its first row.
    core::CancelToken token;
    std::thread canceller([&token] { token.cancel(); });
    pangraph::GraphRaceResult cut;
    core::KernelCounters counters;
    pangraph::GraphAlignScratch scratch;
    for (int race = 0; race < 2000; ++race) {
        counters = core::KernelCounters();
        cut = sweep(compiled, read, aligner.costs(), sim::kTickInfinity,
                    scratch, &token, &counters, false, false);
        if (!cut.completed)
            break;
    }
    canceller.join();

    EXPECT_FALSE(cut.completed);
    EXPECT_TRUE(cut.cancelled);
    EXPECT_EQ(cut.score, bio::kScoreInfinity);
    EXPECT_EQ(counters.cancels, 1u);
    EXPECT_EQ(counters.horizonAborts, 0u);
    ASSERT_EQ(cut.cellsFired % positions, 0u);
    const size_t swept = cut.cellsFired / positions;
    ASSERT_LE(swept, read.size()) << "the last row was swept";
    SCOPED_TRACE(testing::Message() << "rows swept: " << swept);
    if (swept == 0) {
        EXPECT_EQ(cut.events, 0u);
        return;
    }
    core::KernelCounters prefixCounters;
    const pangraph::GraphRaceResult prefix =
        sweep(compiled, read.slice(0, swept - 1), aligner.costs(),
              sim::kTickInfinity, scratch, nullptr, &prefixCounters, true,
              false);
    ASSERT_TRUE(prefix.completed);
    uint64_t wires = 0;
    for (size_t p = 1; p < positions; ++p)
        wires += compiled.terminal[p] &&
                 prefix.arrival[(swept - 1) * positions + p].fired();
    EXPECT_EQ(cut.events, prefix.events - wires);
    EXPECT_EQ(counters.events, cut.events);
    EXPECT_EQ(cut.latencyCycles, prefixCounters.bucketsDrained - 1);
    EXPECT_EQ(counters.bucketsDrained, prefixCounters.bucketsDrained);
}

TEST(GraphBandSweepCancel, RowSweepStopsWithTheTypedAbort)
{
    expectGraphCancelledFromAnotherThread(
        &pangraph::detail::raceAlignmentGridRows);
}

TEST(GraphBandSweepCancel, BandStopsWithTheTypedAbort)
{
    if (!core::detail::hostRunsBand())
        GTEST_SKIP() << kNoBand;
    expectGraphCancelledFromAnotherThread(&keptBand);
}

// ------------------------------ the edit grid as a one-segment graph

using EditGridSweep = decltype(&core::detail::raceEditGridRows);

/** raceEditGrid's band, which must keep the race, as keptBand(). */
core::RaceGridResult
keptEditGridBand(const Sequence &a, const Sequence &b, const ScoreMatrix &m,
                 sim::Tick horizon, core::RaceGridScratch &scratch,
                 const core::CancelToken *cancel,
                 core::KernelCounters *counters, bool arrivals)
{
    std::optional<core::RaceGridResult> raced =
        core::detail::raceEditGridBand(a, b, m, horizon, scratch, cancel,
                                       counters, arrivals);
    EXPECT_TRUE(raced.has_value())
        << "the band gave the race back to the row sweep";
    return raced ? std::move(*raced) : core::RaceGridResult();
}

/**
 * A race-ready cost matrix over `alphabet` drawn at random, and
 * asymmetric: pair(x, y) and pair(y, x) are drawn apart, from 1..9 or
 * forbidden, and the gaps from 1..9.
 */
ScoreMatrix
randomAsymmetricCosts(util::Rng &rng, const Alphabet &alphabet)
{
    ScoreMatrix m(alphabet, bio::ScoreKind::Cost);
    for (size_t x = 0; x < alphabet.size(); ++x) {
        m.setGap(bio::Symbol(x), rng.uniformInt(1, 9));
        for (size_t y = 0; y < alphabet.size(); ++y)
            m.setPair(bio::Symbol(x), bio::Symbol(y),
                      x != y && rng.index(5) == 0 ? bio::kScoreInfinity
                                                  : rng.uniformInt(1, 9));
    }
    return m;
}

/**
 * Race (a, b) on the edit grid's `edit` sweep and read a against a
 * one-segment graph spelling b on the graph kernel's `graph` sweep,
 * and hold them to each other: grid cell (i, j) is product state
 * (i, j), and the product's super-sink adds one wire -- an event and a
 * fired node -- when the sink fires, and nothing when it does not.
 */
void
expectProductMatchesEditGrid(const Sequence &a, const Sequence &b,
                             const GraphAligner &aligner, sim::Tick horizon,
                             EditGridSweep edit, GraphSweep graph)
{
    SCOPED_TRACE(testing::Message() << "|a|=" << a.size() << " |b|="
                                    << b.size() << " horizon=" << horizon);
    core::RaceGridScratch gridScratch;
    pangraph::GraphAlignScratch productScratch;
    core::KernelCounters gridCounters, productCounters;
    const core::RaceGridResult grid = edit(
        a, b, aligner.costs(), horizon, gridScratch, nullptr, &gridCounters,
        /*arrivals=*/true);
    const pangraph::GraphRaceResult product =
        graph(aligner.compiled(), a, aligner.costs(), horizon,
              productScratch, nullptr, &productCounters, /*arrivals=*/true,
              /*inhibit=*/false);

    EXPECT_EQ(product.score, grid.score);
    EXPECT_EQ(product.completed, grid.completed);
    EXPECT_EQ(product.latencyCycles, grid.latencyCycles);
    const size_t wire = grid.completed ? 1 : 0;
    EXPECT_EQ(product.events, grid.events + wire);
    EXPECT_EQ(product.cellsFired, grid.cellsFired + wire);
    EXPECT_EQ(productCounters.lanesOccupied,
              gridCounters.lanesOccupied + wire);
    const size_t positions = b.size() + 1;
    ASSERT_EQ(product.arrival.size(), (a.size() + 1) * positions + 1);
    for (size_t i = 0; i <= a.size(); ++i)
        for (size_t j = 0; j <= b.size(); ++j)
            ASSERT_EQ(product.arrival[i * positions + j].rawTime(),
                      grid.arrival.at(i, j))
                << "cell (" << i << ", " << j << ")";
}

TEST(EditGridChain, OneSegmentProductIsTheEditGrid)
{
    util::Rng rng(6300);
    for (int round = 0; round < 24; ++round) {
        const Alphabet &alphabet =
            round % 2 ? Alphabet::protein() : Alphabet::dna();
        const ScoreMatrix costs = randomAsymmetricCosts(rng, alphabet);
        const Sequence a = Sequence::random(
            rng, alphabet, size_t(rng.uniformInt(0, 70)));
        const Sequence b = Sequence::random(
            rng, alphabet, size_t(rng.uniformInt(1, 70)));
        auto graph = std::make_shared<VariationGraph>(alphabet);
        graph->addSegment("b", b);
        const GraphAligner aligner(graph, costs);

        core::RaceGridScratch scratch;
        const auto opt = static_cast<sim::Tick>(
            core::detail::raceEditGridRows(a, b, costs, sim::kTickInfinity,
                                           scratch, nullptr, nullptr, false)
                .score);
        // Both kernels race DNA on the pair table and protein's 20
        // letters on the gather, and keep every race.
        for (sim::Tick horizon : {sim::kTickInfinity, opt - 1, opt}) {
            expectProductMatchesEditGrid(
                a, b, aligner, horizon, &core::detail::raceEditGridRows,
                &pangraph::detail::raceAlignmentGridRows);
            if (core::detail::hostRunsBand())
                expectProductMatchesEditGrid(a, b, aligner, horizon,
                                             &keptEditGridBand, &keptBand);
        }
    }
}

// ---------------------------------------------------- inhibited races

/** LB(i, p) = max(m - i, G(p)) x minFinite(), from first principles:
 *  G by a walk over the compiled successors. */
std::vector<sim::Tick>
lowerBounds(const GraphAligner &aligner, size_t m)
{
    const pangraph::CompiledGraph &compiled = aligner.compiled();
    const size_t positions = compiled.positionCount();
    // G(p): fewest characters to a terminal, relaxed to a fixed point.
    std::vector<sim::Tick> g(positions, sim::kTickInfinity);
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t p = 0; p < positions; ++p) {
            sim::Tick best = compiled.terminal[p] ? 0 : sim::kTickInfinity;
            for (uint32_t e = compiled.succOffsets[p];
                 e < compiled.succOffsets[p + 1]; ++e)
                if (g[compiled.succ[e]] != sim::kTickInfinity)
                    best = std::min(best, g[compiled.succ[e]] + 1);
            if (best < g[p]) {
                g[p] = best;
                changed = true;
            }
        }
    }
    const auto minWeight = static_cast<sim::Tick>(aligner.costs().minFinite());
    std::vector<sim::Tick> lb((m + 1) * positions);
    for (size_t i = 0; i <= m; ++i)
        for (size_t p = 0; p < positions; ++p)
            lb[i * positions + p] =
                std::max<sim::Tick>(m - i, g[p]) * minWeight;
    return lb;
}

/** An inhibited race as core::raceDag races it, with its counters. */
struct InhibitedReference {
    pangraph::GraphRaceResult result;
    core::KernelCounters counters;
};

/**
 * The inhibited race on the materialized product: core::raceDag with
 * inhibit times H - LB(i, p) (0 where LB exceeds H) and H at the
 * super-sink, read back as the fused kernel reports it -- over the
 * first `rows` read rows alone when a cancel stopped the race after
 * them (`rows` <= |read|): the arrivals delivered into them, their
 * fired states and the latest arrival.
 */
InhibitedReference
inhibitedOnRaceDag(const GraphAligner &aligner, const Sequence &read,
                   sim::Tick horizon, size_t rows)
{
    const size_t m = read.size();
    const size_t positions = aligner.compiled().positionCount();
    const pangraph::AlignmentGraph product = pangraph::buildAlignmentGraph(
        aligner.compiled(), read, aligner.costs());
    const std::vector<sim::Tick> lb = lowerBounds(aligner, m);
    std::vector<sim::Tick> inhibit(product.dag.nodeCount(), horizon);
    for (size_t n = 0; n < lb.size(); ++n)
        inhibit[n] = horizon > lb[n] ? horizon - lb[n] : 0;
    const core::RaceOutcome outcome = core::raceDag(
        product.dag, {product.source}, core::RaceType::Or, horizon, inhibit);

    const bool cut = rows <= m;
    const size_t counted = cut ? rows * positions : product.dag.nodeCount();
    InhibitedReference ref;
    pangraph::GraphRaceResult &r = ref.result;
    r.nodes = product.dag.nodeCount();
    r.arrival.assign(r.nodes, core::TemporalValue::never());
    sim::Tick latest = 0;
    for (const graph::Edge &e : product.dag.edges()) {
        const core::TemporalValue from = outcome.at(e.from);
        if (e.to >= counted || !from.fired())
            continue;
        const sim::Tick at = from.time() + static_cast<sim::Tick>(e.weight);
        if (at <= horizon && at <= inhibit[e.to]) {
            ++r.events;
            latest = std::max(latest, at);
        }
    }
    if (!cut)
        EXPECT_EQ(r.events, outcome.events);
    for (size_t n = 0; n < counted; ++n) {
        r.arrival[n] = outcome.at(n);
        r.cellsFired += outcome.at(n).fired();
    }
    const core::TemporalValue sink = outcome.at(product.sink);
    r.completed = !cut && sink.fired();
    r.cancelled = cut;
    if (r.completed) {
        // The kernel's score is the raced cost; the aligner recovers.
        r.racedCost = r.score = static_cast<bio::Score>(sink.time());
        r.latencyCycles = sink.time();
    } else {
        r.racedCost = r.score = bio::kScoreInfinity;
        r.latencyCycles = cut ? latest : horizon;
    }
    ref.counters.events = r.events;
    ref.counters.bucketsDrained = latest + 1;
    ref.counters.scratchHighWater = positions;
    ref.counters.lanesOccupied = r.cellsFired;
    ref.counters.cancels = r.cancelled;
    ref.counters.horizonAborts = !r.completed && !r.cancelled;
    return ref;
}

/** Every field of an inhibited race and its counters against the
 *  reference; arrivals only when the race filled them. */
void
expectInhibitedMatches(const InhibitedReference &ref,
                       const pangraph::GraphRaceResult &raced,
                       const core::KernelCounters &counters)
{
    const pangraph::GraphRaceResult &want = ref.result;
    EXPECT_EQ(raced.score, want.score);
    EXPECT_EQ(raced.racedCost, want.racedCost);
    EXPECT_EQ(raced.completed, want.completed);
    EXPECT_EQ(raced.cancelled, want.cancelled);
    EXPECT_EQ(raced.latencyCycles, want.latencyCycles);
    EXPECT_EQ(raced.events, want.events);
    EXPECT_EQ(raced.nodes, want.nodes);
    EXPECT_EQ(raced.cellsFired, want.cellsFired);
    if (!raced.arrival.empty()) {
        ASSERT_EQ(raced.arrival.size(), want.arrival.size());
        for (size_t n = 0; n < raced.arrival.size(); ++n)
            ASSERT_EQ(raced.arrival[n].rawTime(), want.arrival[n].rawTime())
                << "arrival diverges at product node " << n << " of "
                << raced.arrival.size();
    }
    EXPECT_EQ(counters.events, ref.counters.events);
    EXPECT_EQ(counters.bucketsDrained, ref.counters.bucketsDrained);
    EXPECT_EQ(counters.scratchHighWater, ref.counters.scratchHighWater);
    EXPECT_EQ(counters.lanesOccupied, ref.counters.lanesOccupied);
    EXPECT_EQ(counters.cancels, ref.counters.cancels);
    EXPECT_EQ(counters.horizonAborts, ref.counters.horizonAborts);
}

/**
 * One read under horizons {LB(source), opt - 1, opt, opt + 32, inf}:
 * the row sweep, the band (where it runs and the horizon fits its
 * bound row) and raceAlignmentGrid, arrivals on and off, all against
 * raceDag with the same inhibit times; for H >= opt the score and
 * latency are the plain race's.
 */
void
expectInhibitedRaceIsRaceDag(const GraphAligner &aligner, const Sequence &read,
                             pangraph::GraphAlignScratch &scratch)
{
    const pangraph::GraphRaceResult plain = aligner.align(
        read, sim::kTickInfinity, scratch, nullptr, nullptr, false);
    ASSERT_TRUE(plain.completed);
    const auto opt = static_cast<sim::Tick>(plain.racedCost);
    const sim::Tick least = lowerBounds(aligner, read.size())[0];
    ASSERT_LE(least, opt);
    for (sim::Tick horizon : {least, opt > 0 ? opt - 1 : 0, opt, opt + 32,
                              sim::kTickInfinity}) {
        SCOPED_TRACE(testing::Message()
                     << "|read|=" << read.size() << " horizon=" << horizon
                     << " LB(source)=" << least << " opt=" << opt);
        const InhibitedReference ref =
            inhibitedOnRaceDag(aligner, read, horizon, read.size() + 1);
        if (horizon >= opt) {
            EXPECT_EQ(ref.result.racedCost, plain.racedCost);
            EXPECT_EQ(ref.result.latencyCycles, plain.latencyCycles);
        }
        for (bool arrivals : {true, false}) {
            core::KernelCounters counters;
            expectInhibitedMatches(
                ref,
                pangraph::detail::raceAlignmentGridRows(
                    aligner.compiled(), read, aligner.costs(), horizon,
                    scratch, nullptr, &counters, arrivals, true),
                counters);
            counters = core::KernelCounters();
            expectInhibitedMatches(
                ref,
                pangraph::raceAlignmentGrid(aligner.compiled(), read,
                                            aligner.costs(), horizon, scratch,
                                            nullptr, &counters, arrivals,
                                            true),
                counters);
            if (core::detail::hostRunsBand() && horizon <= UINT16_MAX) {
                counters = core::KernelCounters();
                expectInhibitedMatches(
                    ref,
                    keptBand(aligner.compiled(), read, aligner.costs(),
                             horizon, scratch, nullptr, &counters, arrivals,
                             true),
                    counters);
            }
        }
    }
}

TEST(GraphAlignInhibited, EqualsRaceDagWithInhibitTimesOnRandomGraphs)
{
    util::Rng rng(7300);
    const ScoreMatrix matrices[] = {
        ScoreMatrix::dnaShortestPath(),
        ScoreMatrix::dnaShortestPathInfMismatch(),
    };
    pangraph::GraphAlignScratch scratch;
    for (int round = 0; round < 12; ++round) {
        pangraph::VariationGraphParams params;
        params.backboneSegments = static_cast<size_t>(rng.uniformInt(2, 12));
        params.maxLabel = round % 3 == 0 ? 24 : 8;
        params.snpDensity = 0.4;
        params.insertDensity = 0.25;
        params.deleteDensity = 0.25;
        auto variation = std::make_shared<VariationGraph>(
            pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
        GraphAligner onVariation(variation, matrices[round % 2]);
        for (const Sequence &read : bandReads(rng, *variation))
            expectInhibitedRaceIsRaceDag(onVariation, read, scratch);

        // Several sources and joins of in-degree >= 3, and asymmetric
        // weights with a smallest weight above 1.
        auto fan = fanGraph(rng, static_cast<size_t>(rng.uniformInt(3, 12)));
        ScoreMatrix heavy = randomAsymmetricCosts(rng, Alphabet::dna());
        for (size_t x = 0; x < 4; ++x) {
            heavy.setGap(bio::Symbol(x), heavy.gap(bio::Symbol(x)) + 2);
            for (size_t y = 0; y < 4; ++y)
                if (heavy.pair(bio::Symbol(x), bio::Symbol(y)) !=
                    bio::kScoreInfinity)
                    heavy.setPair(bio::Symbol(x), bio::Symbol(y),
                                  heavy.pair(bio::Symbol(x), bio::Symbol(y)) +
                                      2);
        }
        GraphAligner onFan(fan, round % 2 ? heavy : matrices[0]);
        for (const Sequence &read : bandReads(rng, *fan))
            expectInhibitedRaceIsRaceDag(onFan, read, scratch);
    }

    // A converted (Section 5) similarity plan on a rank-balanced graph.
    auto balanced = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(
            rng, Alphabet::dna(),
            pangraph::VariationGraphParams::balanced(6)));
    GraphAligner similarity(balanced, ScoreMatrix::dnaLongestPath());
    for (const Sequence &read : bandReads(rng, *balanced))
        expectInhibitedRaceIsRaceDag(similarity, read, scratch);
}

TEST(GraphAlignInhibited, CancelledMidRaceCountsTheRowsItSwept)
{
    // A cancel from another thread stops an inhibited race between
    // rows: the reference is raceDag with the same inhibit times, read
    // over the rows swept -- the leading rows with a fired state.
    util::Rng rng(7400);
    pangraph::VariationGraphParams params;
    params.backboneSegments = 160;
    params.minLabel = 4;
    params.maxLabel = 24;
    auto graph = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    const size_t positions = aligner.compiled().positionCount();
    const Sequence read =
        pangraph::sampleRead(rng, *graph, bio::MutationModel::uniform(0.1));
    const sim::Tick horizon =
        static_cast<sim::Tick>(
            aligner.align(read, sim::kTickInfinity, nullptr, nullptr, false)
                .racedCost) +
        32;

    std::vector<GraphSweep> sweeps = {&pangraph::detail::raceAlignmentGridRows};
    if (core::detail::hostRunsBand())
        sweeps.push_back(&keptBand);
    for (GraphSweep sweep : sweeps) {
        core::CancelToken token;
        std::thread canceller([&token] { token.cancel(); });
        pangraph::GraphRaceResult cut;
        core::KernelCounters counters;
        pangraph::GraphAlignScratch scratch;
        for (int race = 0; race < 2000; ++race) {
            counters = core::KernelCounters();
            cut = sweep(aligner.compiled(), read, aligner.costs(), horizon,
                        scratch, &token, &counters, true, true);
            if (!cut.completed)
                break;
        }
        canceller.join();
        ASSERT_TRUE(cut.cancelled);
        size_t rows = 0;
        while (rows <= read.size() &&
               std::any_of(cut.arrival.begin() + rows * positions,
                           cut.arrival.begin() + (rows + 1) * positions,
                           [](const core::TemporalValue &v) {
                               return v.fired();
                           }))
            ++rows;
        ASSERT_LE(rows, read.size()) << "the last row was swept";
        SCOPED_TRACE(testing::Message() << "rows swept: " << rows);
        expectInhibitedMatches(inhibitedOnRaceDag(aligner, read, horizon, rows),
                               cut, counters);
    }
}

TEST(GraphAlignInhibited, UnboundedPolicyAnswersWithThePlainScore)
{
    // alignUnbounded(): the plain race's score and latency, the
    // answering attempt's events, and misses counted before it.  A
    // read far from the graph misses every attempt and races plainly.
    util::Rng rng(7500);
    pangraph::VariationGraphParams params;
    params.backboneSegments = 24;
    auto graph = std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    GraphAligner aligner(graph, ScoreMatrix::dnaShortestPath());
    pangraph::GraphAlignScratch scratch;
    std::vector<Sequence> reads;
    for (int r = 0; r < 8; ++r)
        reads.push_back(pangraph::sampleRead(
            rng, *graph, bio::MutationModel::uniform(0.1 * r)));
    reads.push_back(Sequence(Alphabet::dna(), std::string(400, 'A')));
    for (const Sequence &read : reads) {
        const pangraph::GraphRaceResult plain =
            aligner.align(read, sim::kTickInfinity, scratch);
        core::KernelCounters counters;
        const pangraph::GraphRaceResult inhibited =
            aligner.alignUnbounded(read, scratch, nullptr, &counters);
        EXPECT_TRUE(inhibited.completed);
        EXPECT_EQ(inhibited.score, plain.score);
        EXPECT_EQ(inhibited.racedCost, plain.racedCost);
        EXPECT_EQ(inhibited.latencyCycles, plain.latencyCycles);
        EXPECT_LE(inhibited.events, plain.events);
        EXPECT_EQ(counters.events, inhibited.events);
        EXPECT_EQ(counters.horizonAborts, 0u);
        // The attempt that answered, whose arrivals trace back.
        const GraphMapping mapping = pangraph::mappingFromArrival(
            aligner.compiled(), read, aligner.costs(), inhibited.arrival);
        EXPECT_EQ(mapping.distance, plain.racedCost);
    }
    const pangraph::GraphRaceResult far =
        aligner.alignUnbounded(reads.back(), scratch);
    EXPECT_GE(far.inhibitMisses, 2u);
    EXPECT_EQ(far.events, aligner.align(reads.back(), sim::kTickInfinity,
                                        scratch).events);
}

} // namespace
