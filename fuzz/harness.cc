#include "fuzz/harness.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/bio/fasta.h"
#include "rl/core/wavefront_band.h"
#include "rl/pangraph/alignment_graph.h"
#include "rl/pangraph/gfa.h"
#include "rl/pangraph/graph_align_band.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/serve/wire.h"

namespace racelogic::fuzz {

namespace {

[[noreturn]] void
violated(const char *property, const std::string &detail)
{
    std::fprintf(stderr, "fuzz harness: %s violated: %s\n", property,
                 detail.c_str());
    std::abort();
}

/** The preloaded pangenome a fuzzed daemon would serve: a SNP bubble
 *  plus an insertion bubble, with the Fig. 2b race-ready matrix. */
struct GraphContext {
    std::shared_ptr<const pangraph::VariationGraph> graph;
    bio::ScoreMatrix matrix;
};

const GraphContext &
graphContext()
{
    static const GraphContext ctx = [] {
        auto g = std::make_shared<pangraph::VariationGraph>(
            bio::Alphabet::dna());
        const bio::Alphabet &dna = bio::Alphabet::dna();
        auto seg = [&](const char *name, const char *label) {
            return g->addSegment(name, bio::Sequence(dna, label));
        };
        auto s1 = seg("s1", "ACTGA");
        auto sA = seg("snpA", "C");
        auto sB = seg("snpB", "G");
        auto s2 = seg("s2", "TT");
        auto ins = seg("ins", "AC");
        auto s3 = seg("s3", "GATT");
        g->addLink(s1, sA);
        g->addLink(s1, sB);
        g->addLink(sA, s2);
        g->addLink(sB, s2);
        g->addLink(s2, ins);
        g->addLink(s2, s3);
        g->addLink(ins, s3);
        return GraphContext{std::move(g),
                            bio::ScoreMatrix::dnaShortestPath()};
    }();
    return ctx;
}

/** Bytes read front to back; past the end every read is 0. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    uint8_t
    byte()
    {
        return at_ < size_ ? data_[at_++] : 0;
    }

    uint16_t
    u16()
    {
        const uint16_t low = byte();
        return static_cast<uint16_t>(low | byte() << 8);
    }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t at_ = 0;
};

/** One edit-grid race decoded from fuzz bytes (raceInput()). */
struct RaceCase {
    bio::ScoreMatrix costs;
    bio::Sequence a, b;
    sim::Tick horizon;
    bool arrivals;
};

RaceCase
decodeRace(const uint8_t *data, size_t size)
{
    static const std::string kLetters =
        "ACGTDEFHIKLMNPQRSVWYBJOUXZabcdefghijklmnopqrstuvwxyz0123456789+/";
    ByteReader in(data, size);
    const size_t letters = 1 + in.byte() % serve::kMaxWireAlphabet;
    const bio::Alphabet alphabet(kLetters.substr(0, letters));

    // Weights scale up to `top`, so small tops race near-DNA costs and
    // large ones pass 2^14 within a few cells; 255 forbids a pair.
    const auto top =
        static_cast<bio::Score>(1 + in.u16() % serve::kMaxWireWeight);
    auto weight = [&](uint8_t b) {
        return 1 + static_cast<bio::Score>(b) * (top - 1) / 254;
    };
    bio::ScoreMatrix costs(alphabet, bio::ScoreKind::Cost);
    for (size_t x = 0; x < letters; ++x) {
        costs.setGap(static_cast<bio::Symbol>(x), weight(in.byte() % 255));
        for (size_t y = 0; y < letters; ++y) {
            const uint8_t b = in.byte();
            costs.setPair(static_cast<bio::Symbol>(x),
                          static_cast<bio::Symbol>(y),
                          b == 255 && x != y ? bio::kScoreInfinity
                                             : weight(b % 255));
        }
    }

    // Lengths capped so that the grid stays near 2^16 cells; symbols
    // past the bytes' end continue from a generator the bytes seed.
    const size_t rows = in.u16() % 1024;
    const size_t cols = std::min<size_t>(in.u16() % 1024,
                                         (size_t(1) << 16) / (rows + 1));
    uint32_t state = in.u16();
    auto symbols = [&](size_t n) {
        std::string s;
        for (size_t i = 0; i < n; ++i) {
            state = state * 1664525u + 1013904223u;
            s.push_back(kLetters[(in.byte() + (state >> 24)) % letters]);
        }
        return bio::Sequence(alphabet, s);
    };
    bio::Sequence a = symbols(rows);
    bio::Sequence b = symbols(cols);

    // The horizon: unbounded, just below or just past 2^14, or any
    // 16-bit value.
    const uint8_t pick = in.byte();
    const sim::Tick near = in.byte();
    const sim::Tick bound = core::detail::kBandUnfired;
    const sim::Tick horizon = pick % 4 == 0   ? sim::kTickInfinity
                              : pick % 4 == 1 ? bound - 1 - near
                              : pick % 4 == 2 ? bound + near
                                              : in.u16();
    return {std::move(costs), std::move(a), std::move(b), horizon,
            (pick & 4) != 0};
}

/** Every field of two decoded requests equal. */
bool
sameRequest(const serve::Request &x, const serve::Request &y)
{
    return x.tag == y.tag && x.id == y.id && x.deadlineMs == y.deadlineMs &&
           x.priority == y.priority && x.matrix == y.matrix &&
           x.a == y.a && x.b == y.b && x.threshold == y.threshold &&
           x.open == y.open && x.extend == y.extend && x.x == y.x &&
           x.y == y.y && x.read == y.read && x.reads == y.reads;
}

} // namespace

int
raceInput(const uint8_t *data, size_t size)
{
    const RaceCase race = decodeRace(data, size);
    core::RaceGridScratch scratch, rowScratch;
    core::KernelCounters counters, rowCounters;
    const core::RaceGridResult raced =
        core::raceEditGrid(race.a, race.b, race.costs, race.horizon,
                           scratch, nullptr, &counters, race.arrivals);
    const core::RaceGridResult rows = core::detail::raceEditGridRows(
        race.a, race.b, race.costs, race.horizon, rowScratch, nullptr,
        &rowCounters, race.arrivals);
    const auto field = [](const char *name, uint64_t got, uint64_t want) {
        if (got != want)
            violated("raceEditGrid == its row sweep",
                     std::string(name) + " " + std::to_string(got) +
                         " != " + std::to_string(want));
    };
    field("score", uint64_t(raced.score), uint64_t(rows.score));
    field("completed", raced.completed, rows.completed);
    field("cancelled", raced.cancelled, rows.cancelled);
    field("latencyCycles", raced.latencyCycles, rows.latencyCycles);
    field("cellsFired", raced.cellsFired, rows.cellsFired);
    field("events", raced.events, rows.events);
    field("arrival", raced.arrival == rows.arrival, true);
    field("counters.events", counters.events, rowCounters.events);
    field("counters.bucketsDrained", counters.bucketsDrained,
          rowCounters.bucketsDrained);
    field("counters.scratchHighWater", counters.scratchHighWater,
          rowCounters.scratchHighWater);
    field("counters.lanesOccupied", counters.lanesOccupied,
          rowCounters.lanesOccupied);
    field("counters.cancels", counters.cancels, rowCounters.cancels);
    field("counters.horizonAborts", counters.horizonAborts,
          rowCounters.horizonAborts);
    return 0;
}

int
graphRaceInput(const uint8_t *data, size_t size)
{
    const bio::Alphabet &dna = bio::Alphabet::dna();
    ByteReader in(data, size);

    // The graph: segments ranked in a shuffled order, links forward in
    // rank alone, so it is acyclic and its ids need not be topological.
    auto graph = std::make_shared<pangraph::VariationGraph>(dna);
    const size_t segments = 1 + in.byte() % 12;
    std::vector<pangraph::SegmentId> rank(segments);
    for (size_t s = 0; s < segments; ++s) {
        std::string label(1 + in.byte() % 6, 'A');
        for (char &c : label)
            c = "ACGT"[in.byte() % 4];
        graph->addSegment("s" + std::to_string(s),
                          bio::Sequence(dna, label));
        rank[s] = static_cast<pangraph::SegmentId>(s);
    }
    for (size_t s = segments; s > 1; --s)
        std::swap(rank[s - 1], rank[in.byte() % s]);
    for (size_t i = 0; i < segments; ++i)
        for (size_t j = i + 1; j < segments; ++j)
            if (in.byte() % 3 == 0)
                graph->addLink(rank[i], rank[j]);

    bio::ScoreMatrix costs(dna, bio::ScoreKind::Cost);
    for (bio::Symbol x = 0; x < 4; ++x) {
        costs.setGap(x, 1 + in.byte() % 16);
        for (bio::Symbol y = 0; y < 4; ++y) {
            const uint8_t b = in.byte();
            costs.setPair(x, y,
                          b >= 240 && x != y ? bio::kScoreInfinity
                                             : 1 + b % 16);
        }
    }
    Expected<pangraph::GraphAligner> made =
        pangraph::GraphAligner::tryMake(graph, costs);
    if (!made.ok())
        return 0;
    const pangraph::GraphAligner &aligner = made.value();
    const pangraph::CompiledGraph &compiled = aligner.compiled();

    std::string letters(in.byte() % 49, 'A');
    for (char &c : letters)
        c = "ACGT"[in.byte() % 4];
    const bio::Sequence read(dna, letters);
    const size_t m = read.size();
    const size_t positions = compiled.positionCount();

    // H: the read's bound, its distance, one either side, or past them.
    pangraph::GraphAlignScratch scratch;
    const auto opt = static_cast<sim::Tick>(
        pangraph::raceAlignmentGrid(compiled, read, costs, sim::kTickInfinity,
                                    scratch, nullptr, nullptr, false)
            .racedCost);
    const auto minWeight = static_cast<sim::Tick>(costs.minFinite());
    const sim::Tick least =
        std::max<sim::Tick>(m, compiled.toTerminal[0]) * minWeight;
    const uint8_t pick = in.byte();
    const sim::Tick near = in.byte();
    const sim::Tick horizon = pick % 6 == 0   ? least + near
                              : pick % 6 == 1 ? (opt > near ? opt - near : 0)
                              : pick % 6 == 2 ? opt + near % 4
                              : pick % 6 == 3 ? sim::kTickInfinity
                              : pick % 6 == 4 ? in.u16()
                                              : opt + near * 64;
    const bool arrivals = (pick & 8) != 0;

    core::KernelCounters counters, rowCounters;
    const pangraph::GraphRaceResult raced = pangraph::raceAlignmentGrid(
        compiled, read, costs, horizon, scratch, nullptr, &counters, arrivals,
        true);
    pangraph::GraphAlignScratch rowScratch;
    const pangraph::GraphRaceResult rows =
        pangraph::detail::raceAlignmentGridRows(
            compiled, read, costs, horizon, rowScratch, nullptr, &rowCounters,
            true, true);

    // The reference: G by relaxation over the successors, then raceDag.
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
    const pangraph::AlignmentGraph product =
        pangraph::buildAlignmentGraph(compiled, read, costs);
    std::vector<sim::Tick> inhibit(product.dag.nodeCount(), horizon);
    for (size_t i = 0; i <= m; ++i)
        for (size_t p = 0; p < positions; ++p) {
            const sim::Tick lb = std::max<sim::Tick>(m - i, g[p]) * minWeight;
            inhibit[i * positions + p] = horizon > lb ? horizon - lb : 0;
        }
    const core::RaceOutcome dag = core::raceDag(
        product.dag, {product.source}, core::RaceType::Or, horizon, inhibit);
    const core::TemporalValue sink = dag.at(product.sink);
    size_t fired = 0;
    for (const core::TemporalValue &v : dag.firing)
        fired += v.fired();

    const auto field = [](const char *what, const char *name, uint64_t got,
                          uint64_t want) {
        if (got != want)
            violated(what, std::string(name) + " " + std::to_string(got) +
                               " != " + std::to_string(want));
    };
    const char *kRows = "inhibited raceAlignmentGrid == its row sweep";
    const char *kDag = "inhibited graph race == raceDag with inhibit times";
    field(kDag, "completed", rows.completed, sink.fired());
    field(kDag, "racedCost", uint64_t(rows.racedCost),
          sink.fired() ? sink.time() : uint64_t(bio::kScoreInfinity));
    field(kDag, "latencyCycles", rows.latencyCycles,
          sink.fired() ? sink.time() : horizon);
    field(kDag, "events", rows.events, dag.events);
    field(kDag, "cellsFired", rows.cellsFired, fired);
    field(kDag, "arrival", rows.arrival == dag.firing, true);
    if (horizon >= opt)
        field(kDag, "racedCost at H >= opt", uint64_t(rows.racedCost), opt);
    field(kRows, "score", uint64_t(raced.score), uint64_t(rows.score));
    field(kRows, "completed", raced.completed, rows.completed);
    field(kRows, "latencyCycles", raced.latencyCycles, rows.latencyCycles);
    field(kRows, "events", raced.events, rows.events);
    field(kRows, "cellsFired", raced.cellsFired, rows.cellsFired);
    if (arrivals)
        field(kRows, "arrival", raced.arrival == rows.arrival, true);
    field(kRows, "counters.events", counters.events, rowCounters.events);
    field(kRows, "counters.bucketsDrained", counters.bucketsDrained,
          rowCounters.bucketsDrained);
    field(kRows, "counters.scratchHighWater", counters.scratchHighWater,
          rowCounters.scratchHighWater);
    field(kRows, "counters.lanesOccupied", counters.lanesOccupied,
          rowCounters.lanesOccupied);
    field(kRows, "counters.cancels", counters.cancels, rowCounters.cancels);
    field(kRows, "counters.horizonAborts", counters.horizonAborts,
          rowCounters.horizonAborts);
    return 0;
}

int
gfaInput(const uint8_t *data, size_t size)
{
    std::istringstream in(
        std::string(reinterpret_cast<const char *>(data), size));
    auto graph = pangraph::tryReadGfa(in, bio::Alphabet::dna());
    if (!graph.ok())
        return 0;
    // Parser promise: an accepted graph is valid (non-empty, acyclic,
    // sourced and sinked) ...
    if (racelogic::Status valid = graph.value().checkValid();
        !valid.ok())
        violated("tryReadGfa acceptance", valid.message());
    // ... and compiles against a race-ready matrix of its alphabet
    // without tripping any plan-time fatal.
    auto compiled = pangraph::tryCompileGraph(
        graph.value(), bio::ScoreMatrix::dnaShortestPath());
    if (!compiled.ok())
        violated("tryCompileGraph on an accepted GFA",
                 compiled.status().message());
    return 0;
}

int
fastaInput(const uint8_t *data, size_t size)
{
    bio::FastaLimits limits;
    limits.maxSequenceLength = serve::kMaxWireSequence;
    auto records = bio::tryReadFasta(
        std::string(reinterpret_cast<const char *>(data), size),
        bio::Alphabet::dna(), limits);
    if (!records.ok())
        return 0;
    // Parser promise: no accepted record is empty (the reader calls
    // such files corrupted, so it must never hand one back).
    for (const bio::FastaRecord &record : records.value())
        if (record.sequence.empty())
            violated("tryReadFasta acceptance",
                     "empty record '" + record.description + "'");
    return 0;
}

int
wireInput(const uint8_t *data, size_t size)
{
    const GraphContext &ctx = graphContext();
    std::vector<uint8_t> payload(data, data + size);

    serve::Request request;
    const serve::WireError error =
        serve::decodeRequest(payload, ctx.graph->alphabet(), request);

    // A connection's matrix slot changes neither verdict nor request:
    // decode through one primed by a fixed valid Pairwise frame, then
    // through the same slot, primed by the input itself.
    static const std::vector<uint8_t> primer = serve::encodePairwise(
        1, bio::ScoreMatrix::dnaShortestPath(), "ACGT", "AGGT");
    serve::MatrixSlot slot;
    serve::Request primed;
    (void)serve::decodeRequest(primer, ctx.graph->alphabet(), primed, &slot);
    for (const char *primedBy : {"a Pairwise frame", "the input"}) {
        serve::Request slotted;
        if (serve::decodeRequest(payload, ctx.graph->alphabet(), slotted,
                                 &slot) != error ||
            !sameRequest(slotted, request))
            violated("a slot decodes as a fresh decode",
                     std::string("primed by ") + primedBy);
    }

    // Response decode must be total for any bytes too; a daemon's
    // reply stream is attacker-observable, a client's parser of it
    // must not be attacker-crashable.  A reply it accepts re-encodes
    // to bytes that decode and re-encode to themselves (the first
    // re-encoding may differ: any nonzero flag byte decodes as true).
    serve::Response response;
    if (serve::decodeResponse(payload, response) == serve::WireError::None) {
        const std::vector<uint8_t> once = serve::encodeResponse(response);
        serve::Response again;
        if (serve::decodeResponse(once, again) != serve::WireError::None)
            violated("decoded reply re-encodes decodably",
                     serve::requestTagName(response.tag));
        if (serve::encodeResponse(again) != once)
            violated("reply re-encoding is a fixed point",
                     serve::requestTagName(response.tag));
    }

    if (error != serve::WireError::None)
        return 0;

    // Mirror AlignServer::handleRequest's problem construction, then
    // hold decode to its promise: everything it accepts passes the
    // library's own full validation (no fatal is reachable past this
    // point on the serving path).
    std::vector<api::RaceProblem> problems;
    switch (request.tag) {
    case serve::RequestTag::Pairwise:
        problems.push_back(api::RaceProblem::pairwiseAlignment(
            *request.matrix, *request.a, *request.b));
        break;
    case serve::RequestTag::Affine:
        problems.push_back(api::RaceProblem::affineAlignment(
            *request.matrix,
            bio::AffineGapCosts{request.open, request.extend},
            *request.a, *request.b));
        break;
    case serve::RequestTag::Screen:
        problems.push_back(api::RaceProblem::thresholdScreen(
            *request.matrix, request.threshold, *request.a,
            *request.b));
        break;
    case serve::RequestTag::Dtw:
        problems.push_back(api::RaceProblem::dtw(
            std::move(request.x), std::move(request.y)));
        break;
    case serve::RequestTag::GraphAlign:
        problems.push_back(api::RaceProblem::graphAlign(
            ctx.matrix, *request.read, ctx.graph, request.threshold));
        break;
    case serve::RequestTag::MapReads:
        for (bio::Sequence &read : request.reads)
            problems.push_back(api::RaceProblem::graphAlign(
                ctx.matrix, std::move(read), ctx.graph,
                request.threshold));
        break;
    case serve::RequestTag::Stats:
    case serve::RequestTag::Ping:
    case serve::RequestTag::Metrics:
    case serve::RequestTag::Health:
        return 0;
    }

    // Small grids also race, as the daemon would, on one engine that
    // outlives the input: plans cached by earlier inputs meet later
    // ones, and every solve must agree with the DP oracle.
    static api::RaceEngine engine;
    const bool raced = request.tag == serve::RequestTag::Pairwise ||
                       request.tag == serve::RequestTag::Screen;
    for (const api::RaceProblem &problem : problems) {
        if (racelogic::Status deep = api::validateProblem(problem);
            !deep.ok())
            violated("decode-accepted => validateProblem Ok",
                     deep.message());
        // The budget path must stay a typed verdict, never an abort,
        // whatever the sizes involved.
        api::ProblemLimits limits;
        limits.maxGridCells = 1u << 16;
        limits.maxProductStates = 1u << 16;
        (void)api::checkBudgets(problem, limits);

        if (!raced || api::gridCells(problem) > 4096)
            continue;
        const Expected<api::RaceResult> solved = engine.trySolve(problem);
        if (!solved.ok())
            violated("decode-accepted => trySolve Ok",
                     solved.status().message());
        const bio::Score oracle =
            bio::globalScore(*problem.a, *problem.b, *problem.matrix);
        if (request.tag == serve::RequestTag::Pairwise
                ? solved->score != oracle
                : solved->accepted != (oracle <= problem.threshold))
            violated("trySolve agrees with bio::globalScore",
                     std::string(serve::requestTagName(request.tag)) +
                         " oracle " + std::to_string(oracle) +
                         ", raced " + std::to_string(solved->score) +
                         (solved->accepted ? " accepted" : " rejected"));
    }
    return 0;
}

} // namespace racelogic::fuzz
