/**
 * @file
 * The differential oracle suite: every ProblemKind x BackendKind pair
 * api::RaceEngine accepts, on randomized inputs, against the kind's
 * DP oracle -- bio::globalScore (pairwise, generalized, screens),
 * bio::affineGlobalScore, apps::dtwDistance, graph::solveDag and
 * pangraph::graphAlignDp.  Each drawn instance is solved through
 * trySolve() under the thresholds {0, optimum - 1, optimum, infinity},
 * with early termination on and off, and with no, a live and a
 * pre-cancelled cancel token; every field of the Section 6 contract
 * is checked against the oracle, and a batch of the instances must
 * reproduce the single solves.  The delay-cap validation closes the
 * file.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "rl/api/api.h"
#include "rl/bio/affine.h"
#include "rl/bio/align_dp.h"
#include "rl/bio/score_convert.h"
#include "rl/core/wavefront.h"
#include "rl/graph/generate.h"
#include "rl/graph/paths.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/graph_align_dp.h"
#include "rl/systolic/lipton_lopresti.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using api::BackendKind;
using api::EngineConfig;
using api::ProblemKind;
using api::RaceEngine;
using api::RaceProblem;
using api::RaceResult;
using bio::Alphabet;
using bio::Score;
using bio::ScoreMatrix;
using bio::Sequence;

constexpr Score kInf = bio::kScoreInfinity;

// ------------------------------------------------------------ the table

/** One randomized instance and what its DP oracle says about it. */
struct Case {
    RaceProblem problem;
    /** The optimum in race cycles: when the sink fires (racedCost). */
    Score cost = 0;
    /** The optimum in the caller's units (RaceResult::score). */
    Score score = 0;
};

/**
 * A string length in [min, max]; the gate-level fabric is synthesized
 * per grid size, so it races tiny strings (at most 4 DNA or 2 protein
 * symbols, whose cells are ~10^3 gates each).
 */
size_t
drawLength(util::Rng &rng, BackendKind backend, const Alphabet &alphabet,
           size_t min, size_t max)
{
    if (backend == BackendKind::GateLevel)
        max = alphabet.size() > 4 ? 2 : 4;
    return min + rng.index(max - min + 1);
}

/** Only the behavioral race takes an empty string (a 0-cell grid). */
size_t
minLength(BackendKind backend)
{
    return backend == BackendKind::Behavioral ? 0 : 1;
}

/**
 * A global alignment case: the score is the DP over the caller's
 * matrix, the race cost the DP over the costs actually raced (the
 * Section 5 conversion of a similarity matrix).
 */
Case
alignmentCase(RaceProblem problem)
{
    const ScoreMatrix &m = *problem.matrix;
    const Sequence &a = *problem.a;
    const Sequence &b = *problem.b;
    Case c{problem, 0, bio::globalScore(a, b, m)};
    if (m.isCost()) {
        c.cost = c.score;
    } else {
        const bio::ShortestPathForm form =
            bio::toShortestPathForm(m, problem.lambda);
        c.cost = bio::globalScore(a, b, form.costs);
        EXPECT_EQ(form.recoverScore(c.cost, a.size(), b.size()), c.score)
            << "the two oracles disagree on the Section 5 identity";
    }
    return c;
}

Case
drawPairwise(util::Rng &rng, BackendKind backend)
{
    // The systolic array encodes the Fig. 2b cost family only.
    std::vector<ScoreMatrix> matrices{
        ScoreMatrix::dnaShortestPath(),
        ScoreMatrix::dnaShortestPathInfMismatch()};
    if (backend != BackendKind::Systolic)
        matrices.push_back(ScoreMatrix::blosum62());
    const ScoreMatrix m = rng.pick(matrices);
    const size_t min = minLength(backend);
    const Sequence a = Sequence::random(
        rng, m.alphabet(), drawLength(rng, backend, m.alphabet(), min, 24));
    const Sequence b = Sequence::random(
        rng, m.alphabet(), drawLength(rng, backend, m.alphabet(), min, 24));
    return alignmentCase(RaceProblem::pairwiseAlignment(m, a, b));
}

Case
drawGeneralized(util::Rng &rng, BackendKind backend)
{
    const ScoreMatrix m = rng.pick(std::vector<ScoreMatrix>{
        ScoreMatrix::blosum62(), ScoreMatrix::pam250(),
        ScoreMatrix::dnaLongestPath()});
    const Score lambda = 1 + static_cast<Score>(rng.index(2));
    const size_t min = minLength(backend);
    const Sequence a = Sequence::random(
        rng, m.alphabet(), drawLength(rng, backend, m.alphabet(), min, 16));
    const Sequence b = Sequence::random(
        rng, m.alphabet(), drawLength(rng, backend, m.alphabet(), min, 16));
    return alignmentCase(
        RaceProblem::generalizedAlignment(m, a, b, lambda));
}

Case
drawScreen(util::Rng &rng, BackendKind backend)
{
    const ScoreMatrix m = rng.bernoulli(0.5)
                              ? ScoreMatrix::dnaShortestPath()
                              : ScoreMatrix::dnaShortestPathInfMismatch();
    const size_t min = minLength(backend);
    const Sequence query = Sequence::random(
        rng, m.alphabet(), drawLength(rng, backend, m.alphabet(), min, 24));
    // Half related (the Section 6 hits), half unrelated.
    Sequence candidate =
        rng.bernoulli(0.5)
            ? mutate(rng, query, bio::MutationModel::uniform(0.2))
            : Sequence::random(rng, m.alphabet(),
                               drawLength(rng, backend, m.alphabet(),
                                          min, 24));
    if (candidate.size() < min)
        candidate = Sequence::random(rng, m.alphabet(), min);
    // The threshold is set per solve.
    return alignmentCase(
        RaceProblem::thresholdScreen(m, 0, query, candidate));
}

Case
drawAffine(util::Rng &rng, BackendKind backend)
{
    ScoreMatrix m(Alphabet::dna(), bio::ScoreKind::Cost);
    const Score match = rng.uniformInt(1, 2);
    const Score mismatch = rng.bernoulli(0.3) ? kInf : rng.uniformInt(1, 4);
    for (bio::Symbol s = 0; s < 4; ++s)
        for (bio::Symbol t = 0; t < 4; ++t)
            m.setPair(s, t, s == t ? match : mismatch);
    m.setAllGaps(1); // unused: the gaps below replace the gap column
    const bio::AffineGapCosts gaps{rng.uniformInt(2, 6),
                                   rng.uniformInt(1, 2)};
    const Sequence a = Sequence::random(
        rng, m.alphabet(), drawLength(rng, backend, m.alphabet(), 0, 14));
    const Sequence b = Sequence::random(
        rng, m.alphabet(), drawLength(rng, backend, m.alphabet(), 0, 14));
    const Score d = bio::affineGlobalScore(a, b, m, gaps);
    return {RaceProblem::affineAlignment(m, gaps, a, b), d, d};
}

Case
drawDtw(util::Rng &rng, BackendKind backend)
{
    auto signal = [&] {
        std::vector<apps::Sample> s(
            drawLength(rng, backend, Alphabet::dna(), 1, 16));
        for (apps::Sample &v : s)
            v = rng.uniformInt(-12, 12);
        return s;
    };
    const std::vector<apps::Sample> x = signal();
    // Identical signals race every edge as a zero-delay wire.
    const std::vector<apps::Sample> y = rng.bernoulli(0.2) ? x : signal();
    const Score d = apps::dtwDistance(x, y);
    return {RaceProblem::dtw(x, y), d, d};
}

Case
drawDagPath(util::Rng &rng, BackendKind backend)
{
    const size_t nodes = backend == BackendKind::GateLevel
                             ? 4 + rng.index(5)
                             : 8 + rng.index(33);
    // Zero-weight edges are plain wires; the super endpoints make
    // every node reachable, so the AND race matches the longest-path
    // DP (core::andRaceMatchesDp).
    graph::Dag dag = graph::randomDag(rng, nodes, 0.25, {0, 6});
    const auto [source, sink] = graph::addSuperEndpoints(dag, 1);
    const graph::Objective objective = rng.bernoulli(0.5)
                                           ? graph::Objective::Shortest
                                           : graph::Objective::Longest;
    const Score d = graph::solveDag(dag, {source}, objective).distance[sink];
    return {RaceProblem::dagPath(dag, {source}, sink, objective), d, d};
}

Case
drawGraphAlign(util::Rng &rng, BackendKind backend)
{
    // The gate-level backend synthesizes the whole read x graph
    // product, so it maps short reads against a tiny pangenome.
    const bool tiny = backend == BackendKind::GateLevel;
    pangraph::VariationGraphParams params;
    params.backboneSegments = tiny ? 2 : 2 + rng.index(4);
    params.maxLabel = tiny ? 2 : 4;
    auto graph = std::make_shared<const pangraph::VariationGraph>(
        pangraph::randomVariationGraph(rng, Alphabet::dna(), params));
    const ScoreMatrix m = rng.bernoulli(0.5)
                              ? ScoreMatrix::dnaShortestPath()
                              : ScoreMatrix::dnaShortestPathInfMismatch();
    const Sequence read = pangraph::sampleRead(
        rng, *graph, bio::MutationModel::uniform(0.2));
    const Score d = pangraph::graphAlignDp(*graph, read, m).distance;
    return {RaceProblem::graphAlign(m, read, graph), d, d};
}

/** A row of the table: one problem kind and how to draw it. */
struct KindRow {
    ProblemKind kind;
    const char *name;
    Case (*draw)(util::Rng &, BackendKind);
};

const KindRow kKinds[] = {
    {ProblemKind::PairwiseAlignment, "Pairwise", drawPairwise},
    {ProblemKind::AffineAlignment, "Affine", drawAffine},
    {ProblemKind::Dtw, "Dtw", drawDtw},
    {ProblemKind::DagPath, "DagPath", drawDagPath},
    {ProblemKind::GeneralizedAlignment, "Generalized", drawGeneralized},
    {ProblemKind::ThresholdScreen, "Screen", drawScreen},
    {ProblemKind::GraphAlign, "GraphAlign", drawGraphAlign},
};

/** The systolic array races these two kinds and rejects the rest. */
bool
systolicKind(ProblemKind kind)
{
    return kind == ProblemKind::PairwiseAlignment ||
           kind == ProblemKind::ThresholdScreen;
}

/** Every kind x backend pair the engine accepts. */
struct KindBackend {
    const KindRow *row;
    BackendKind backend;
};

std::vector<KindBackend>
acceptedPairs()
{
    std::vector<KindBackend> pairs;
    for (const KindRow &row : kKinds)
        for (BackendKind backend :
             {BackendKind::Behavioral, BackendKind::GateLevel,
              BackendKind::Systolic})
            if (backend != BackendKind::Systolic || systolicKind(row.kind))
                pairs.push_back({&row, backend});
    return pairs;
}

void
PrintTo(const KindBackend &pair, std::ostream *os)
{
    *os << pair.row->name << " on " << api::backendKindName(pair.backend);
}

std::string
pairName(const ::testing::TestParamInfo<KindBackend> &info)
{
    static const char *const backends[] = {"Behavioral", "GateLevel",
                                           "Systolic"};
    return std::string(info.param.row->name) + "_" +
           backends[static_cast<int>(info.param.backend)];
}

// --------------------------------------------------------- the contract

/**
 * Kinds whose threshold is the problem's own -- a Section 6 screen,
 * whose rejected race reveals only that it exceeded the threshold.
 * Every other kind takes the engine-wide EngineConfig::threshold and
 * still reports its exact score when over it.
 */
bool
problemThreshold(ProblemKind kind)
{
    return kind == ProblemKind::ThresholdScreen ||
           kind == ProblemKind::GraphAlign;
}

/**
 * Whether a cancel token reaches the race: the behavioral sweeps poll
 * it (a GateLevel grid solve races that sweep first); the DAG kernel,
 * the graph product's gate-level race and the systolic array ignore it.
 */
bool
takesCancel(ProblemKind kind, BackendKind backend)
{
    const bool grid = kind == ProblemKind::PairwiseAlignment ||
                      kind == ProblemKind::GeneralizedAlignment ||
                      kind == ProblemKind::ThresholdScreen;
    return (grid && backend != BackendKind::Systolic) ||
           (kind == ProblemKind::GraphAlign &&
            backend == BackendKind::Behavioral);
}

enum class Token { None, Live, Cancelled };

/** How one solve of a case is run. */
struct Mode {
    Score threshold = kInf;
    bool earlyTerminate = true;
    Token token = Token::None;
};

/** Assert `r` is what the contract says solving `c` under `mode` gives. */
void
expectContract(const Case &c, BackendKind backend, const Mode &mode,
               const RaceResult &r)
{
    const ProblemKind kind = c.problem.kind;
    EXPECT_EQ(r.kind, kind);
    EXPECT_EQ(r.backend, backend);
    if (mode.token == Token::Cancelled && takesCancel(kind, backend)) {
        // A typed abort that reveals nothing about the score.
        EXPECT_TRUE(r.cancelled);
        EXPECT_FALSE(r.completed);
        EXPECT_FALSE(r.accepted);
        EXPECT_EQ(r.score, kInf);
        return;
    }
    EXPECT_FALSE(r.cancelled);

    const Score threshold = mode.threshold;
    if (backend == BackendKind::Systolic) {
        // The array cannot abort: every comparison runs its full
        // latency and reports the exact score beside its verdict.
        const uint64_t cycles = systolic::LiptonLoprestiArray::latencyCycles(
            c.problem.a->size(), c.problem.b->size());
        EXPECT_EQ(r.score, c.score);
        EXPECT_EQ(r.racedCost, c.cost);
        EXPECT_EQ(r.accepted, c.cost <= threshold);
        EXPECT_EQ(r.latencyCycles, cycles);
        EXPECT_EQ(r.cyclesUsed, cycles);
        return;
    }

    const sim::Tick cost = static_cast<sim::Tick>(c.cost);
    const bool longest = kind == ProblemKind::DagPath &&
                         c.problem.objective == graph::Objective::Longest;
    // An AND race's answer is known only at the end, so no threshold
    // applies to it.
    const bool accepted = longest || c.cost <= threshold;
    EXPECT_EQ(r.accepted, accepted);
    if (accepted) {
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.score, c.score);
        EXPECT_EQ(r.racedCost, c.cost);
        EXPECT_EQ(r.latencyCycles, cost);
        EXPECT_EQ(r.cyclesUsed, cost);
        return;
    }
    // Rejected: the fabric was busy until the threshold cycle.
    EXPECT_EQ(r.cyclesUsed, static_cast<sim::Tick>(threshold));
    if (problemThreshold(kind)) {
        // Early termination stops the race at the threshold; without
        // it the race runs on, but the verdict stays a bare reject.
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.score, kInf);
        EXPECT_EQ(r.latencyCycles,
                  mode.earlyTerminate ? static_cast<sim::Tick>(threshold)
                                      : cost);
    } else {
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.score, c.score);
        EXPECT_EQ(r.racedCost, c.cost);
        EXPECT_EQ(r.latencyCycles, cost);
    }
}

/** {0, optimum - 1, optimum, infinity}, skipping negatives. */
std::vector<Score>
thresholdsFor(const Case &c)
{
    std::vector<Score> thresholds{0};
    if (c.cost >= 2)
        thresholds.push_back(c.cost - 1);
    if (c.cost >= 1)
        thresholds.push_back(c.cost);
    thresholds.push_back(kInf);
    return thresholds;
}

RaceProblem
withMode(RaceProblem problem, const Mode &mode,
         const core::CancelToken &live, const core::CancelToken &stopped)
{
    if (problemThreshold(problem.kind))
        problem.threshold = mode.threshold;
    problem.cancel = mode.token == Token::None   ? nullptr
                     : mode.token == Token::Live ? &live
                                                 : &stopped;
    return problem;
}

EngineConfig
configFor(BackendKind backend, ProblemKind kind, const Mode &mode,
          bool estimates)
{
    EngineConfig config;
    config.backend = backend;
    config.earlyTerminate = mode.earlyTerminate;
    config.withEstimates = estimates;
    config.workerThreads = 2;
    if (!problemThreshold(kind))
        config.threshold = mode.threshold;
    return config;
}

/** One seed per (kind, backend, draw), stable across runs. */
uint64_t
seedFor(const KindBackend &pair, int draw)
{
    return 0xD1FF0000u + 1000u * static_cast<uint64_t>(pair.row->kind) +
           100u * static_cast<uint64_t>(pair.backend) +
           static_cast<uint64_t>(draw);
}

int
drawsFor(BackendKind backend)
{
    return backend == BackendKind::GateLevel ? 6 : 20;
}

class Differential : public ::testing::TestWithParam<KindBackend> {};

TEST_P(Differential, EverySolveMatchesTheOracle)
{
    const KindBackend pair = GetParam();
    core::CancelToken live, stopped;
    stopped.cancel();
    for (int draw = 0; draw < drawsFor(pair.backend); ++draw) {
        util::Rng rng(seedFor(pair, draw));
        const Case c = pair.row->draw(rng, pair.backend);
        SCOPED_TRACE(testing::Message() << "draw " << draw << ": optimum "
                                        << c.cost);
        for (Score threshold : thresholdsFor(c)) {
            for (bool early : {true, false}) {
                Mode mode{threshold, early, Token::None};
                RaceEngine engine(configFor(pair.backend, c.problem.kind,
                                            mode, draw % 2 == 0));
                for (Token token :
                     {Token::None, Token::Live, Token::Cancelled}) {
                    mode.token = token;
                    SCOPED_TRACE(testing::Message()
                                 << "threshold " << threshold << " early "
                                 << early << " token " << int(token));
                    Expected<RaceResult> solved = engine.trySolve(
                        withMode(c.problem, mode, live, stopped));
                    if (c.problem.kind == ProblemKind::ThresholdScreen &&
                        threshold == kInf) {
                        // A screen needs a finite threshold.
                        ASSERT_FALSE(solved.ok());
                        EXPECT_EQ(solved.status().code(),
                                  ErrorCode::InvalidArgument);
                        continue;
                    }
                    ASSERT_TRUE(solved.ok()) << solved.status().message();
                    expectContract(c, pair.backend, mode, *solved);
                }
            }
        }
    }
}

TEST_P(Differential, BatchReproducesSingleSolves)
{
    // Mixed tokens and thresholds in one batch: the parallel grid and
    // graph paths and the 64-lane gate-level replay must return what
    // one-at-a-time solves do, result for result.
    const KindBackend pair = GetParam();
    core::CancelToken live, stopped;
    stopped.cancel();
    std::vector<RaceProblem> problems;
    for (int draw = 0; draw < drawsFor(pair.backend); ++draw) {
        util::Rng rng(seedFor(pair, draw));
        const Case c = pair.row->draw(rng, pair.backend);
        const std::vector<Score> thresholds = thresholdsFor(c);
        Mode mode;
        // A screen's finite thresholds; the engine-wide one stays off.
        mode.threshold = problemThreshold(c.problem.kind)
                             ? thresholds[draw % (thresholds.size() - 1)]
                             : kInf;
        mode.token = static_cast<Token>(draw % 3);
        problems.push_back(withMode(c.problem, mode, live, stopped));
    }
    const Mode batchMode;
    RaceEngine batchEngine(
        configFor(pair.backend, pair.row->kind, batchMode, false));
    const api::BatchOutcome batch = batchEngine.solveBatch(problems);
    ASSERT_EQ(batch.results.size(), problems.size());

    RaceEngine single(
        configFor(pair.backend, pair.row->kind, batchMode, false));
    for (size_t i = 0; i < problems.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "problem " << i);
        const RaceResult want = single.solve(problems[i]);
        const RaceResult &got = batch.results[i];
        EXPECT_EQ(got.score, want.score);
        EXPECT_EQ(got.racedCost, want.racedCost);
        EXPECT_EQ(got.latencyCycles, want.latencyCycles);
        EXPECT_EQ(got.completed, want.completed);
        EXPECT_EQ(got.cancelled, want.cancelled);
        EXPECT_EQ(got.accepted, want.accepted);
        EXPECT_EQ(got.cyclesUsed, want.cyclesUsed);
        EXPECT_EQ(got.events, want.events);
        EXPECT_EQ(got.cellsFired, want.cellsFired);
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, Differential,
                         ::testing::ValuesIn(acceptedPairs()), pairName);

TEST(DifferentialBackends, SystolicRejectsWhatTheArrayCannotRace)
{
    EngineConfig config;
    config.backend = BackendKind::Systolic;
    RaceEngine engine(config);
    util::Rng rng(77);
    for (const KindRow &row : kKinds) {
        if (systolicKind(row.kind))
            continue;
        SCOPED_TRACE(row.name);
        const Case c = row.draw(rng, BackendKind::Behavioral);
        EXPECT_EQ(engine.validate(c.problem).code(), ErrorCode::Unsupported);
        EXPECT_EQ(engine.trySolve(c.problem).status().code(),
                  ErrorCode::Unsupported);
    }
    // Outside the Fig. 2b cost family: a similarity matrix (converted,
    // its indels are not unit), a non-unit match, a wide mismatch and
    // mixed mismatch weights.
    EXPECT_EQ(engine
                  .trySolve(RaceProblem::pairwiseAlignment(
                      ScoreMatrix::blosum62(),
                      Sequence(Alphabet::protein(), "HEAG"),
                      Sequence(Alphabet::protein(), "PAW")))
                  .status()
                  .code(),
              ErrorCode::Unsupported);
    ScoreMatrix heavyMatch = ScoreMatrix::dnaShortestPath();
    heavyMatch.setPair(0, 0, 2);
    ScoreMatrix wideMismatch = ScoreMatrix::dnaShortestPath();
    wideMismatch.setPairSymmetric(0, 1, 3);
    ScoreMatrix mixedMismatch = ScoreMatrix::dnaShortestPath();
    mixedMismatch.setPairSymmetric(0, 1, kInf);
    for (const ScoreMatrix &m : {heavyMatch, wideMismatch, mixedMismatch})
        EXPECT_EQ(engine
                      .trySolve(RaceProblem::pairwiseAlignment(
                          m, Sequence(Alphabet::dna(), "ACG"),
                          Sequence(Alphabet::dna(), "AG")))
                      .status()
                      .code(),
                  ErrorCode::Unsupported);
    // An empty string.
    EXPECT_EQ(engine
                  .trySolve(RaceProblem::thresholdScreen(
                      ScoreMatrix::dnaShortestPath(), 4,
                      Sequence(Alphabet::dna(), "ACG"),
                      Sequence(Alphabet::dna(), "")))
                  .status()
                  .code(),
              ErrorCode::Unsupported);
}

TEST(DifferentialBackends, GateLevelRejectsEmptyGridsTyped)
{
    EngineConfig config;
    config.backend = BackendKind::GateLevel;
    RaceEngine engine(config);
    const Sequence empty(Alphabet::dna(), "");
    const Sequence acg(Alphabet::dna(), "ACG");
    for (const RaceProblem &p :
         {RaceProblem::pairwiseAlignment(ScoreMatrix::dnaShortestPath(),
                                         empty, acg),
          RaceProblem::generalizedAlignment(ScoreMatrix::dnaLongestPath(),
                                            acg, empty),
          RaceProblem::thresholdScreen(ScoreMatrix::dnaShortestPath(), 3,
                                       empty, empty)}) {
        const Expected<RaceResult> r = engine.trySolve(p);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), ErrorCode::Unsupported);
    }
}

// ------------------------------------------ validation at the delay cap

/** trySolve() must reject `problem` with the race-ready range error. */
void
expectOverCap(RaceEngine &engine, const RaceProblem &problem)
{
    const Expected<RaceResult> solved = engine.trySolve(problem);
    ASSERT_FALSE(solved.ok());
    EXPECT_EQ(solved.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(solved.status().message().find("race-ready range"),
              std::string::npos)
        << solved.status().message();
}

TEST(DelayCap, DtwSampleSpreadBeyondTheCapIsInvalid)
{
    RaceEngine engine;
    // |0 - INT64_MIN| overflows int64: it must neither wrap into a
    // negative delay nor kill the process.
    expectOverCap(engine, RaceProblem::dtw(
                              {0}, {std::numeric_limits<int64_t>::min()}));
    // Each delay fits int64, but the lattice's path sum would not.
    const apps::Sample huge = int64_t(1) << 62;
    expectOverCap(engine, RaceProblem::dtw({huge, 0}, {0, huge}));
    // The cap itself is a legal delay.
    const Expected<RaceResult> atCap = engine.trySolve(
        RaceProblem::dtw({0}, {core::kMaxWavefrontWeight}));
    ASSERT_TRUE(atCap.ok()) << atCap.status().message();
    EXPECT_EQ(atCap->score, core::kMaxWavefrontWeight);
    expectOverCap(engine, RaceProblem::dtw(
                              {-1}, {core::kMaxWavefrontWeight}));
}

TEST(DelayCap, GateLevelDagEdgeBeyondTheCapIsInvalid)
{
    // Validated only -- synthesizing it would build a 2^40-deep DFF
    // chain.
    EngineConfig config;
    config.backend = BackendKind::GateLevel;
    RaceEngine engine(config);
    graph::Dag dag(3);
    dag.addEdge(0, 1, graph::Weight(1) << 40);
    dag.addEdge(1, 2, 1);
    const Status status = engine.validate(RaceProblem::dagPath(
        dag, {0}, 2, graph::Objective::Shortest));
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("race-ready range"), std::string::npos)
        << status.message();
}

TEST(DelayCap, AffineWeightsBeyondTheCapAreInvalid)
{
    RaceEngine engine;
    const Sequence a(Alphabet::dna(), "ACGT");
    const Sequence b(Alphabet::dna(), "AGT");
    expectOverCap(engine,
                  RaceProblem::affineAlignment(
                      ScoreMatrix::dnaShortestPath(),
                      bio::AffineGapCosts{Score(1) << 20, 1}, a, b));
    ScoreMatrix pricey = ScoreMatrix::dnaShortestPath();
    pricey.setPair(0, 1, core::kMaxWavefrontWeight + 1);
    expectOverCap(engine, RaceProblem::affineAlignment(
                              pricey, bio::AffineGapCosts{2, 1}, a, b));
    // A zero pair weight is below the lattice's range [1, cap].
    ScoreMatrix zero = ScoreMatrix::dnaShortestPath();
    zero.setPair(0, 0, 0);
    expectOverCap(engine, RaceProblem::affineAlignment(
                              zero, bio::AffineGapCosts{2, 1}, a, b));
}

} // namespace
