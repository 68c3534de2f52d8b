/**
 * @file
 * Tests for ProblemKind::GraphAlign through api::RaceEngine: solve
 * against the graph-NW oracle, read-mapping batches (1000+ reads on
 * one cached graph plan, parallel bit-identical to serial),
 * threshold early-termination verdicts, and the GateLevel
 * cross-check on small graphs.
 */

#include <gtest/gtest.h>

#include <csignal>

#include "rl/api/api.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/graph_align_dp.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/pangraph/mapping.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::BackendKind;
using api::EngineConfig;
using api::RaceEngine;
using api::RaceProblem;
using bio::Alphabet;
using bio::ScoreMatrix;
using bio::Sequence;
using pangraph::VariationGraph;

std::shared_ptr<const VariationGraph>
demoGraph(uint64_t seed = 42, size_t backbone = 5)
{
    util::Rng rng(seed);
    pangraph::VariationGraphParams params;
    params.backboneSegments = backbone;
    params.maxLabel = 6;
    params.snpDensity = 0.4;
    params.insertDensity = 0.2;
    params.deleteDensity = 0.2;
    return std::make_shared<VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
}

std::vector<Sequence>
sampleReads(const VariationGraph &graph, size_t count, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<Sequence> reads;
    reads.reserve(count);
    for (size_t i = 0; i < count; ++i)
        reads.push_back(pangraph::sampleRead(
            rng, graph, bio::MutationModel::uniform(0.25)));
    return reads;
}

TEST(ApiGraphAlign, SolveMatchesOracle)
{
    auto graph = demoGraph();
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    RaceEngine engine;
    for (const Sequence &read : sampleReads(*graph, 8, 7)) {
        auto result = engine.solve(
            RaceProblem::graphAlign(costs, read, graph));
        EXPECT_EQ(result.kind, api::ProblemKind::GraphAlign);
        EXPECT_TRUE(result.completed);
        EXPECT_EQ(result.score,
                  pangraph::graphAlignDp(*graph, read, costs).distance);
        EXPECT_EQ(result.latencyCycles,
                  static_cast<sim::Tick>(result.score));
        EXPECT_FALSE(result.nodeArrival.empty());
        ASSERT_TRUE(result.estimate.has_value());
        EXPECT_GT(result.estimate->wallTimeNs, 0.0);
    }
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
    EXPECT_EQ(engine.stats().planCacheHits, 7u);
}

TEST(ApiGraphAlign, ThousandReadBatchParallelBitIdenticalToSerial)
{
    // The acceptance workload: >= 1000 reads against one cached
    // graph plan, raced on the thread pool, with results
    // field-by-field identical to a serial run.
    auto graph = demoGraph(3, 4);
    ScoreMatrix costs = ScoreMatrix::dnaShortestPathInfMismatch();
    const std::vector<Sequence> reads = sampleReads(*graph, 1000, 99);
    // Near the median raced distance for this workload, so the
    // verdict mix exercises both the accept and the abort paths.
    const bio::Score threshold = 21;

    EngineConfig serialCfg;
    serialCfg.workerThreads = 1;
    RaceEngine serial(serialCfg);
    auto serialOut = serial.mapReads(graph, costs, threshold, reads);
    EXPECT_EQ(serial.stats().parallelBatches, 0u);
    EXPECT_EQ(serial.stats().plansBuilt, 1u);
    EXPECT_EQ(serial.stats().planCacheHits, reads.size() - 1);

    EngineConfig parallelCfg;
    parallelCfg.workerThreads = 4;
    RaceEngine parallel(parallelCfg);
    auto parallelOut =
        parallel.mapReads(graph, costs, threshold, reads);
    EXPECT_EQ(parallel.stats().parallelBatches, 1u);
    EXPECT_EQ(parallel.stats().plansBuilt, 1u);

    ASSERT_EQ(parallelOut.results.size(), serialOut.results.size());
    size_t accepted = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        const api::RaceResult &s = serialOut.results[i];
        const api::RaceResult &p = parallelOut.results[i];
        EXPECT_EQ(p.score, s.score);
        EXPECT_EQ(p.racedCost, s.racedCost);
        EXPECT_EQ(p.completed, s.completed);
        EXPECT_EQ(p.accepted, s.accepted);
        EXPECT_EQ(p.latencyCycles, s.latencyCycles);
        EXPECT_EQ(p.cyclesUsed, s.cyclesUsed);
        EXPECT_EQ(p.events, s.events);
        EXPECT_EQ(p.cellsFired, s.cellsFired);
        ASSERT_EQ(p.nodeArrival.size(), s.nodeArrival.size());
        for (size_t n = 0; n < p.nodeArrival.size(); ++n)
            EXPECT_EQ(p.nodeArrival[n].rawTime(),
                      s.nodeArrival[n].rawTime());
        // Verdicts are exact: accepted iff the oracle distance fits.
        const bio::Score oracle =
            pangraph::graphAlignDp(*graph, reads[i], costs).distance;
        EXPECT_EQ(s.accepted, oracle <= threshold);
        if (s.accepted) {
            EXPECT_EQ(s.score, oracle);
            ++accepted;
        } else {
            EXPECT_EQ(s.score, bio::kScoreInfinity);
            EXPECT_EQ(s.cyclesUsed,
                      static_cast<sim::Tick>(threshold));
            // Rejected reads drop their arrival detail: no mapping
            // exists, and batches must not retain reads x product
            // size memory.
            EXPECT_TRUE(s.nodeArrival.empty());
        }
    }
    EXPECT_EQ(serialOut.acceptedCount(), accepted);
    // The mutation noise should produce a mix of verdicts.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, reads.size());

    // Read-mapping batches are screening-shaped (one shared graph
    // plan), so the fabric-pool deployment schedule applies.
    ASSERT_TRUE(serialOut.schedule.has_value());
    EXPECT_GT(serialOut.schedule->utilization, 0.0);
}

TEST(ApiGraphAlign, GraphMappingTracesBackWithoutReracing)
{
    // The engine reconstructs (walk, CIGAR) mappings from a solve's
    // own arrival times via the cached plan -- solves stay flat and
    // only plan-cache hits accrue.
    auto graph = demoGraph(14, 4);
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    RaceEngine engine;
    for (const Sequence &read : sampleReads(*graph, 5, 31)) {
        auto problem = RaceProblem::graphAlign(costs, read, graph);
        auto result = engine.solve(problem);
        const uint64_t solvesBefore = engine.stats().solves;
        pangraph::GraphMapping mapping =
            engine.graphMapping(problem, result);
        EXPECT_EQ(engine.stats().solves, solvesBefore);
        EXPECT_EQ(mapping.distance, result.score);
        EXPECT_EQ(mapping.readConsumed, read.size());
        EXPECT_EQ(
            pangraph::rescoreMapping(*graph, read, costs, mapping),
            mapping.distance);
    }
    EXPECT_EQ(engine.stats().plansBuilt, 1u);
}

TEST(ApiGraphAlign, EarlyTerminateToggleKeepsVerdicts)
{
    auto graph = demoGraph(8, 4);
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    auto reads = sampleReads(*graph, 32, 5);
    const bio::Score threshold = 12;

    RaceEngine racing;
    auto raced = racing.mapReads(graph, costs, threshold, reads);

    EngineConfig measureCfg;
    measureCfg.earlyTerminate = false;
    RaceEngine measuring(measureCfg);
    auto measured = measuring.mapReads(graph, costs, threshold, reads);

    for (size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(raced.results[i].accepted,
                  measured.results[i].accepted);
        EXPECT_EQ(raced.results[i].cyclesUsed,
                  measured.results[i].cyclesUsed);
    }
    // Measurement mode knows the full-race latency of rejected reads.
    EXPECT_GE(measured.fullRaceCycles(), measured.busyCycles());
    EXPECT_GE(measured.speedup(), 1.0);
}

TEST(ApiGraphAlign, GateLevelCrossCheckAgreesOnSmallGraph)
{
    // The GateLevel backend synthesizes the product DAG as a race
    // fabric and asserts agreement internally; a clean run with
    // matching scores IS the cross-check.
    auto graph = demoGraph(21, 3);
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();

    EngineConfig gateCfg;
    gateCfg.backend = BackendKind::GateLevel;
    RaceEngine gate(gateCfg);
    RaceEngine soft;

    for (const Sequence &read : sampleReads(*graph, 3, 2)) {
        auto hard = gate.solve(
            RaceProblem::graphAlign(costs, read, graph));
        auto behavioral = soft.solve(
            RaceProblem::graphAlign(costs, read, graph));
        EXPECT_EQ(hard.score, behavioral.score);
        ASSERT_TRUE(hard.estimate.has_value());
        EXPECT_GT(hard.estimate->gateCount, 0u);
        EXPECT_GT(hard.estimate->energyJ, 0.0);
        EXPECT_GT(hard.estimate->areaUm2, 0.0);
    }

    // An aborted screen cross-checks too: the fabric must not fire
    // within the threshold budget.
    Sequence far(Alphabet::dna(), "TTTTTTTTTTTTTTTTTTTT");
    auto aborted = gate.solve(
        RaceProblem::graphAlign(costs, far, graph, /*threshold=*/2));
    EXPECT_FALSE(aborted.accepted);
    EXPECT_FALSE(aborted.completed);
}

TEST(ApiGraphAlign, MapReadsRacesFusedWithoutProductDagsBitIdentically)
{
    // The Behavioral read-mapping path must never materialize a
    // (read x graph) product DAG -- it races the fused kernel -- and
    // its batch results must be bit-identical to racing each read's
    // materialized product on the reference kernel by hand.
    auto graph = demoGraph(6, 4);
    ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    const std::vector<Sequence> reads = sampleReads(*graph, 64, 13);
    const bio::Score threshold = 15;

    EngineConfig cfg;
    cfg.workerThreads = 2;
    RaceEngine engine(cfg);
    const uint64_t builds = pangraph::alignmentGraphBuildCount();
    auto outcome = engine.mapReads(graph, costs, threshold, reads);
    EXPECT_EQ(pangraph::alignmentGraphBuildCount(), builds)
        << "Behavioral mapReads materialized a product DAG";

    // Reference: materialize + race each product under the same
    // Section 6 horizon the engine uses (earlyTerminate defaults on).
    pangraph::GraphAligner aligner(graph, costs);
    ASSERT_EQ(outcome.results.size(), reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        pangraph::GraphRaceResult reference = aligner.align(
            pangraph::buildAlignmentGraph(aligner.compiled(), reads[i],
                                          aligner.costs()),
            static_cast<sim::Tick>(threshold));
        const api::RaceResult &got = outcome.results[i];
        EXPECT_EQ(got.completed, reference.completed);
        EXPECT_EQ(got.events, reference.events);
        EXPECT_EQ(got.cellsFired, reference.cellsFired);
        if (reference.completed) {
            EXPECT_EQ(got.racedCost, reference.racedCost);
            EXPECT_EQ(got.score, reference.score);
            ASSERT_EQ(got.nodeArrival.size(),
                      reference.arrival.size());
            for (size_t n = 0; n < got.nodeArrival.size(); ++n)
                EXPECT_EQ(got.nodeArrival[n].rawTime(),
                          reference.arrival[n].rawTime());
        } else {
            // Rejected screens reveal only the verdict and drop
            // their arrival detail.
            EXPECT_FALSE(got.accepted);
            EXPECT_EQ(got.score, bio::kScoreInfinity);
            EXPECT_TRUE(got.nodeArrival.empty());
        }
    }
}

TEST(ApiGraphAlign, UnboundedReadFarFromTheGraphMissesThenRacesPlainly)
{
    // A 100 nt walk of A's (one SNP bubble) against 100 T's: every
    // alignment costs 200, twice LB(source) = 100.  The inhibited
    // attempts at 100 + 32 and 100 + 64 miss, the next slack (128)
    // exceeds LB(source), and the read races plainly -- to the DP's
    // distance, counted as one solve and one plan-cache hit, with the
    // misses in inhibitMisses.  A read on the graph answers at once.
    auto graph = std::make_shared<VariationGraph>(Alphabet::dna());
    const auto head = graph->addSegment("head", Sequence(Alphabet::dna(),
                                                         std::string(50, 'A')));
    const auto a = graph->addSegment("a", Sequence(Alphabet::dna(), "A"));
    const auto c = graph->addSegment("c", Sequence(Alphabet::dna(), "C"));
    const auto tail = graph->addSegment("tail", Sequence(Alphabet::dna(),
                                                         std::string(49, 'A')));
    graph->addLink(head, a);
    graph->addLink(head, c);
    graph->addLink(a, tail);
    graph->addLink(c, tail);
    const ScoreMatrix costs = ScoreMatrix::dnaShortestPath();
    const Sequence far(Alphabet::dna(), std::string(100, 'T'));
    const Sequence near(Alphabet::dna(), std::string(100, 'A'));
    const bio::Score distance =
        pangraph::graphAlignDp(*graph, far, costs).distance;
    EXPECT_EQ(distance, 200);

    RaceEngine engine;
    for (bool arrivals : {true, false}) {
        const api::EngineStats before = engine.stats();
        RaceProblem problem = RaceProblem::graphAlign(costs, far, graph);
        problem.arrivals = arrivals;
        const api::RaceResult result = engine.solve(problem);
        EXPECT_TRUE(result.completed);
        EXPECT_EQ(result.score, distance);
        EXPECT_EQ(result.latencyCycles, static_cast<sim::Tick>(distance));
        const api::EngineStats after = engine.stats();
        EXPECT_EQ(after.solves, before.solves + 1);
        EXPECT_EQ(after.plansBuilt + after.planCacheHits,
                  before.plansBuilt + before.planCacheHits + 1);
        EXPECT_EQ(after.inhibitMisses, before.inhibitMisses + 2);
    }

    // Score-only and full detail race the one inhibited race.
    const api::EngineStats before = engine.stats();
    RaceProblem detailed = RaceProblem::graphAlign(costs, near, graph);
    RaceProblem bare = detailed;
    bare.arrivals = false;
    const api::RaceResult full = engine.solve(detailed);
    const api::RaceResult scoreOnly = engine.solve(bare);
    EXPECT_EQ(full.score, pangraph::graphAlignDp(*graph, near, costs).distance);
    EXPECT_EQ(scoreOnly.score, full.score);
    EXPECT_EQ(scoreOnly.events, full.events);
    EXPECT_EQ(scoreOnly.cellsFired, full.cellsFired);
    EXPECT_EQ(engine.stats().inhibitMisses, before.inhibitMisses);
    EXPECT_EQ(engine.stats().solves, before.solves + 2);
}

TEST(ApiGraphAlign, SystolicBackendRefusesGraphs)
{
    auto graph = demoGraph(4, 3);
    EngineConfig cfg;
    cfg.backend = BackendKind::Systolic;
    RaceEngine engine(cfg);
    EXPECT_EXIT(engine.solve(RaceProblem::graphAlign(
                    ScoreMatrix::dnaShortestPath(),
                    Sequence(Alphabet::dna(), "ACGT"), graph)),
                ::testing::KilledBySignal(SIGABRT), "systolic");
}

TEST(ApiGraphAlign, SystolicBackendRefusesGraphsTyped)
{
    // trySolve() must turn the same invariant into a recoverable
    // Unsupported verdict before the dispatch assert can fire.
    auto graph = demoGraph(4, 3);
    EngineConfig cfg;
    cfg.backend = BackendKind::Systolic;
    RaceEngine engine(cfg);
    auto result = engine.trySolve(RaceProblem::graphAlign(
        ScoreMatrix::dnaShortestPath(),
        Sequence(Alphabet::dna(), "ACGT"), graph));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::Unsupported);
    EXPECT_NE(result.status().message().find("systolic"),
              std::string::npos);
}

} // namespace
