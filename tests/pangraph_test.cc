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

#include <chrono>
#include <csignal>
#include <sstream>

#include "rl/bio/align_dp.h"
#include "rl/core/cancel.h"
#include "rl/core/kernel_counters.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/gfa.h"
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
    // materialized DAG on the general CSR kernel is the reference.
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

} // namespace
