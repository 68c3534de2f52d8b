#include "rl/pangraph/alignment_graph.h"

#include <algorithm>
#include <atomic>

#include "rl/core/wavefront.h"
#include "rl/pangraph/graph_align_band.h"
#include "rl/util/logging.h"

namespace racelogic::pangraph {

namespace {

/** Products materialized so far (test instrumentation, relaxed). */
std::atomic<uint64_t> materializedProducts{0};

} // namespace

uint64_t
alignmentGraphBuildCount()
{
    return materializedProducts.load(std::memory_order_relaxed);
}

Status
checkCompilable(const VariationGraph &graph, const bio::ScoreMatrix &race)
{
    if (Status valid = graph.checkValid(); !valid.ok())
        return valid;
    if (!(graph.alphabet() == race.alphabet()))
        return Status::error(ErrorCode::InvalidArgument,
                             "graph uses alphabet ",
                             graph.alphabet().letters(),
                             ", race matrix uses ",
                             race.alphabet().letters());
    // Plan-time weight validation the fused kernel relies on (its
    // per-read check is the cheap fingerprint equality): the race
    // needs every finite weight >= 1, gap weights must be finite
    // (every character insertable or no walk connects the corners),
    // and no weight may exceed the race's delay cap.
    return race.validateRaceReady(core::kMaxWavefrontWeight,
                                  /*allowForbiddenPairs=*/true);
}

namespace {

CompiledGraph
compileValidated(const VariationGraph &graph, const bio::ScoreMatrix &race)
{
    CompiledGraph out;
    const size_t segs = graph.segmentCount();
    out.charCount = graph.totalLabelLength();
    const size_t positions = out.positionCount();

    out.symbol.assign(positions, 0);
    out.segmentOf.assign(positions, kNoSegment);
    out.terminal.assign(positions, 0);
    out.firstChar.resize(segs);
    out.lastChar.resize(segs);

    // Characters numbered consecutively by segment id, then offset.
    CharPos next = 1;
    for (SegmentId id = 0; id < segs; ++id) {
        const bio::Sequence &label = graph.segment(id).label;
        out.firstChar[id] = next;
        for (size_t k = 0; k < label.size(); ++k, ++next) {
            out.symbol[next] = label[k];
            out.segmentOf[next] = id;
        }
        out.lastChar[id] = next - 1;
        if (graph.outLinks(id).empty())
            out.terminal[out.lastChar[id]] = 1;
    }
    rl_assert(next == positions, "character numbering drifted");

    // Per-position gap weights, hoisted so the deletion-edge family
    // of both product builders reads a flat array; the fingerprint
    // pins the matrix they came from.
    out.gapWeight.assign(positions, 0);
    for (size_t p = 1; p < positions; ++p)
        out.gapWeight[p] = race.gap(out.symbol[p]);
    out.matrixFingerprint = race.fingerprint();

    // Successor counts, then a prefix-sum fill (CSR construction).
    std::vector<uint32_t> degree(positions, 0);
    auto eachSuccessor = [&](auto &&emit) {
        for (SegmentId id : graph.sources())
            emit(CharPos(0), out.firstChar[id]);
        for (SegmentId id = 0; id < segs; ++id) {
            for (CharPos c = out.firstChar[id]; c < out.lastChar[id];
                 ++c)
                emit(c, c + 1);
            for (SegmentId to : graph.outLinks(id))
                emit(out.lastChar[id], out.firstChar[to]);
        }
    };
    eachSuccessor([&](CharPos from, CharPos) { ++degree[from]; });
    out.succOffsets.assign(positions + 1, 0);
    for (size_t p = 0; p < positions; ++p)
        out.succOffsets[p + 1] = out.succOffsets[p] + degree[p];
    out.succ.resize(out.succOffsets.back());
    std::vector<uint32_t> cursor(out.succOffsets.begin(),
                                 out.succOffsets.end() - 1);
    eachSuccessor([&](CharPos from, CharPos to) {
        out.succ[cursor[from]++] = to;
    });

    // Predecessor CSR, mirrored from the successor list.
    std::vector<uint32_t> inDegree(positions, 0);
    for (CharPos to : out.succ)
        ++inDegree[to];
    out.predOffsets.assign(positions + 1, 0);
    for (size_t p = 0; p < positions; ++p)
        out.predOffsets[p + 1] = out.predOffsets[p] + inDegree[p];
    out.pred.resize(out.predOffsets.back());
    cursor.assign(out.predOffsets.begin(), out.predOffsets.end() - 1);
    for (size_t p = 0; p < positions; ++p)
        for (uint32_t e = out.succOffsets[p]; e < out.succOffsets[p + 1];
             ++e)
            out.pred[cursor[out.succ[e]]++] =
                static_cast<CharPos>(p);

    out.segmentOrder = graph.topologicalOrder();

    // G, in reverse topological order: a terminal position ends a sink
    // segment, so it has no successor.
    out.toTerminal.assign(positions, 0);
    auto settle = [&](CharPos p) {
        uint32_t fewest = UINT32_MAX;
        for (uint32_t e = out.succOffsets[p]; e < out.succOffsets[p + 1]; ++e)
            fewest = std::min(fewest, out.toTerminal[out.succ[e]] + 1);
        out.toTerminal[p] = out.terminal[p] ? 0 : fewest;
    };
    for (auto s = out.segmentOrder.rbegin(); s != out.segmentOrder.rend();
         ++s)
        for (CharPos c = out.lastChar[*s] + 1; c-- > out.firstChar[*s];)
            settle(c);
    settle(0);

    // The out-edge profile of every (next read symbol, position).
    const size_t alpha = race.alphabet().size();
    out.outEdges.assign((alpha + 1) * positions, core::SweepOutEdges());
    for (size_t s = 0; s <= alpha; ++s) {
        const auto sym = static_cast<bio::Symbol>(s);
        core::SweepOutEdges *row = out.outEdges.data() + s * positions;
        for (size_t p = 0; p < positions; ++p) {
            if (s < alpha)
                row[p].add(core::sweepWeight(race.gap(sym)));
            for (uint32_t e = out.succOffsets[p];
                 e < out.succOffsets[p + 1]; ++e) {
                const CharPos q = out.succ[e];
                row[p].add(core::sweepWeight(out.gapWeight[q]));
                if (s < alpha)
                    row[p].add(
                        core::sweepWeight(race.pair(sym, out.symbol[q])));
            }
        }
    }

    // The graph band's tables, where raceAlignmentGrid will take it.
    if (core::detail::hostRunsBand())
        out.band = detail::compileBandTables(out, race);

    return out;
}

} // namespace

CompiledGraph
compileGraph(const VariationGraph &graph, const bio::ScoreMatrix &race)
{
    checkCompilable(graph, race).orFatal();
    return compileValidated(graph, race);
}

Expected<CompiledGraph>
tryCompileGraph(const VariationGraph &graph, const bio::ScoreMatrix &race)
{
    if (Status s = checkCompilable(graph, race); !s.ok())
        return s;
    return compileValidated(graph, race);
}

AlignmentGraph
buildAlignmentGraph(const CompiledGraph &compiled,
                    const bio::Sequence &read,
                    const bio::ScoreMatrix &costs)
{
    rl_assert(costs.isCost(), "graph alignment races a Cost-kind matrix");
    rl_assert(read.alphabet() == costs.alphabet(),
              "read and matrix use different alphabets");
    rl_assert(costs.fingerprint() == compiled.matrixFingerprint,
              "matrix does not match the one the graph was compiled "
              "with; the hoisted gap weights would mix tables");
    materializedProducts.fetch_add(1, std::memory_order_relaxed);

    const size_t m = read.size();
    const size_t positions = compiled.positionCount();

    // The same fail-at-plan-time courtesy GraphAligner extends to
    // weights: reject products that overflow the 32-bit node-id
    // space instead of silently wrapping ids deep in the kernel.
    const size_t states = (m + 1) * positions + 1;
    if (states >= static_cast<size_t>(graph::kNoNode))
        rl_fatal("product DAG of a ", m, " bp read x ", positions,
                 " graph positions has ", states,
                 " states, exceeding the 32-bit node-id space; split "
                 "the pangenome or map shorter reads");

    AlignmentGraph out;
    out.readLength = m;
    out.positionCount = positions;
    out.dag.addNodes(states);
    out.source = out.node(0, 0);
    out.sink = static_cast<graph::NodeId>((m + 1) * positions);

    // Per-read-symbol gap weights, hoisted out of the product sweep.
    std::vector<bio::Score> gapRead(m);
    for (size_t j = 0; j < m; ++j)
        gapRead[j] = costs.gap(read[j]);

    for (size_t j = 0; j <= m; ++j) {
        for (CharPos p = 0; p < positions; ++p) {
            const graph::NodeId here = out.node(j, p);
            if (j < m) // consume read[j] against a gap (insertion)
                out.dag.addEdge(here, out.node(j + 1, p), gapRead[j]);
            for (uint32_t e = compiled.succOffsets[p];
                 e < compiled.succOffsets[p + 1]; ++e) {
                const CharPos q = compiled.succ[e];
                const bio::Symbol sym = compiled.symbol[q];
                // Consume graph char q against a gap (deletion);
                // weight hoisted into the compiled view.
                out.dag.addEdge(here, out.node(j, q),
                                compiled.gapWeight[q]);
                if (j < m) {
                    bio::Score w = costs.pair(read[j], sym);
                    if (w != bio::kScoreInfinity)
                        out.dag.addEdge(here, out.node(j + 1, q), w);
                }
            }
            // A terminal character with the read fully consumed ends
            // the alignment: a zero-weight wire into the sink OR gate.
            if (j == m && p > 0 && compiled.terminal[p])
                out.dag.addEdge(here, out.sink, 0);
        }
    }
    return out;
}

} // namespace racelogic::pangraph
