/**
 * @file
 * The (read x graph) product edit DAG.
 *
 * Sequence-to-graph alignment is the paper's recurrence with one
 * axis generalized: instead of the j-th character of a second string,
 * a DP state consumes the next character along *some walk* of the
 * variation graph.  Expanding every segment label into its character
 * positions yields a character-level DAG; the product of (read
 * prefix 0..m) x (character positions) is an edit DAG whose
 * shortest source-to-sink path is exactly the graph alignment
 * distance -- so it races on the same OR-gate/delay-chain fabric as
 * the pairwise edit graph (Section 3), and core::raceDag
 * (rl/core/race_network.h) races it.
 *
 * Two layers are split deliberately:
 *
 *  - CompiledGraph is the read-independent half: character symbols,
 *    the successor/predecessor CSR over positions, the segments'
 *    topological order, terminal flags, the per-position gap weights
 *    of the race-ready cost matrix and, where the fused kernel races
 *    in bands, the band's tables, all as flat arrays.  One compile
 *    serves every read, which is what the api plan cache stores per
 *    pangenome.
 *  - buildAlignmentGraph() stamps a read onto the compiled graph,
 *    producing the product graph::Dag plus its node layout.  The
 *    fused kernel (rl/pangraph/graph_align_kernel.h) races the same
 *    product straight from the compiled arrays instead.
 */

#ifndef RACELOGIC_PANGRAPH_ALIGNMENT_GRAPH_H
#define RACELOGIC_PANGRAPH_ALIGNMENT_GRAPH_H

#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/core/band_lanes.h"
#include "rl/core/wavefront.h"
#include "rl/graph/dag.h"
#include "rl/pangraph/variation_graph.h"

namespace racelogic::pangraph {

/**
 * The graph band's read-independent tables (layout in
 * rl/core/band_lanes.h): the sweep order, and the weights and far
 * predecessors of every sweep index.
 */
struct GraphBandTables {
    /** Sweep index k -> position: position 0, then each segment's
     *  label in CompiledGraph::segmentOrder. */
    std::vector<CharPos> order;

    /** Position -> sweep index (the inverse of order). */
    std::vector<uint32_t> rank;

    /** Steps of history the band keeps: a power of two above the
     *  longest far-predecessor distance in sweep order. */
    size_t window = 0;

    /** The longest predecessor distance in sweep order, at least 1:
     *  how far back a step reads (Band::reach). */
    size_t reach = 0;

    /** Band steps that cannot wrap a lane's 16-bit tallies, at three
     *  arrivals a step and two per far group of the step with the
     *  most: the band folds them into the race's after each run. */
    size_t foldSteps = 0;

    /**
     * The band's weight rows: the substitution rows (the column codes
     * up to 7 letters; from 8, a weight row per read symbol and the
     * all-unfired row), the deletion row, the chain deletion row (the
     * deletion weight where k - 1 precedes k) and the chain gate (0
     * there); both chain rows are unfired where k - 1 does not precede
     * k.  Position 0 has no deletion or substitution in-edge: unfired
     * in every row, code |alphabet| in the codes.  Last, the bound row
     * of an inhibited race: G x minFinite() (CompiledGraph::
     * toTerminal), clamped to UINT16_MAX.
     */
    std::vector<uint16_t> weights;

    /**
     * The far predecessors -- every predecessor of k but k - 1 -- by
     * band step, one group per sweep distance: step t races groups
     * farBegin[t] .. farBegin[t+1] of `far`.  A lane is in as many of
     * its step's groups as its position has far predecessors.
     */
    std::vector<uint32_t> farBegin;
    std::vector<core::detail::BandFarGroup> far;

    /** True iff the band's tables were not built. */
    bool empty() const { return weights.empty(); }

    /** Heap bytes held by the tables. */
    size_t
    residentBytes() const
    {
        return order.capacity() * sizeof(CharPos) +
               rank.capacity() * sizeof(uint32_t) +
               weights.capacity() * sizeof(uint16_t) +
               farBegin.capacity() * sizeof(uint32_t) +
               far.capacity() * sizeof(core::detail::BandFarGroup);
    }
};

/** The read-independent character-level view of a variation graph. */
struct CompiledGraph {
    /** Symbol at each character position (index 0 unused). */
    std::vector<bio::Symbol> symbol;

    /** Owning segment of each character position (index 0 unused). */
    std::vector<SegmentId> segmentOf;

    /** First character position of each segment. */
    std::vector<CharPos> firstChar;

    /** Last character position of each segment. */
    std::vector<CharPos> lastChar;

    /**
     * Successor CSR over positions 0..K: succ(0) is the first
     * character of every source segment; succ(c) is the next
     * character in the same segment, or the first character of every
     * successor segment when c ends its label.
     */
    std::vector<uint32_t> succOffsets;
    std::vector<CharPos> succ;

    /** Predecessor CSR over positions 0..K (traceback walks this). */
    std::vector<uint32_t> predOffsets;
    std::vector<CharPos> pred;

    /**
     * Segments in topological order.  Spelling their labels in turn
     * visits positions 1..K in a topological order of the successor
     * CSR (position 0 precedes them all), the order the fused kernel
     * sweeps each read row in.  Position numbers follow segment ids,
     * which need not be topological: a bubble segment appended after
     * the backbone links back to lower positions.
     */
    std::vector<SegmentId> segmentOrder;

    /**
     * 1 iff the position ends a sink segment (alignment may end).
     * Deliberately uint8_t, not vector<bool>: the fused kernel reads
     * this flag per fired (m, p) state, and a packed bit-walk in that
     * loop costs more than the byte it saves.
     */
    std::vector<uint8_t> terminal;

    /**
     * G(p): the fewest graph characters a walk consumes from position
     * p to a terminal position (0 at a terminal).  An inhibited race
     * (raceAlignmentGrid()) bounds the cost still to come from state
     * (i, p) below by LB(i, p) = max(m - i, G(p)) x minFinite(), m the
     * read length: each read character and each graph character
     * still to consume costs at least the matrix's smallest weight.
     */
    std::vector<uint32_t> toTerminal;

    /**
     * Gap (indel) weight of each position's symbol under the race
     * cost matrix the graph was compiled with (index 0 unused).
     * Hoisted here so the deletion-edge family reads one flat array
     * instead of re-deriving symbol -> matrix lookups per edge.
     */
    std::vector<bio::Score> gapWeight;

    /**
     * Out-edges of product state (j, p), for the fused kernel's event
     * count: outEdges[s * positionCount() + p] when read row j + 1
     * consumes symbol s -- the insertion, and a deletion and a
     * substitution per successor -- and, for s = |alphabet|, the
     * deletions alone (the read's last row, or a row whose successor
     * a cancel left unswept).  Read-independent, so built once per
     * compile.
     */
    std::vector<core::SweepOutEdges> outEdges;

    /**
     * The graph band's tables, built only where raceAlignmentGrid
     * takes the band (core::sweepLanes() > 1), and empty elsewhere and
     * where one band step would race more far groups than its 16-bit
     * tallies hold (detail::compileBandTables()).
     */
    GraphBandTables band;

    /**
     * bio::ScoreMatrix::fingerprint() of the matrix the hoisted
     * weights were bound to.  Both product builders assert the
     * matrix they are handed matches: mixing a compiled view with a
     * different matrix would blend weight tables.
     */
    uint64_t matrixFingerprint = 0;

    /** Character count K (positions are 0..K). */
    size_t charCount = 0;

    size_t positionCount() const { return charCount + 1; }
};

/**
 * Compilability verdict for a (graph, race matrix) pair: the graph
 * must be raceable (VariationGraph::checkValid), the alphabets must
 * match, and the matrix must be race-ready under the wavefront
 * kernels' weight cap (Cost kind, finite weights in [1, cap], finite
 * gaps).  The single rule book shared by compileGraph(),
 * GraphAligner construction, and api::RaceEngine plan validation.
 */
Status checkCompilable(const VariationGraph &graph,
                       const bio::ScoreMatrix &race);

/**
 * Expand a validated variation graph into its character-level view
 * under `race`, the race-ready cost matrix the products will be
 * swept with (it supplies the hoisted per-position gap weights, so a
 * compiled view is bound to one matrix exactly as the api plan is).
 * fatal() wrapper over tryCompileGraph() for direct callers.
 */
CompiledGraph compileGraph(const VariationGraph &graph,
                           const bio::ScoreMatrix &race);

/** Fallible compile: checkCompilable(), then the expansion. */
Expected<CompiledGraph> tryCompileGraph(const VariationGraph &graph,
                                        const bio::ScoreMatrix &race);

/**
 * The product edit DAG of one read against a compiled graph, ready
 * to race.
 *
 * Node layout (the traceback in rl/pangraph/mapping.h relies on it):
 * state (j, p) -- j read characters consumed, graph character p the
 * last consumed (p = 0: none yet) -- is node j * positionCount + p;
 * one extra super-sink node follows, fed by zero-weight edges from
 * every terminal state (m, p), so the race's sink arrival is the
 * minimum over all walk endings exactly as an OR gate would take it.
 */
struct AlignmentGraph {
    graph::Dag dag;
    graph::NodeId source = 0;
    graph::NodeId sink = 0;
    size_t readLength = 0;
    size_t positionCount = 0;

    graph::NodeId
    node(size_t j, CharPos p) const
    {
        return static_cast<graph::NodeId>(j * positionCount + p);
    }
};

/**
 * Stamp `read` onto the compiled graph under a race-ready cost
 * matrix (Cost kind, all finite weights >= 1; forbidden pairs become
 * missing substitution edges).
 *
 * Edges of state (j, p), for each graph successor q of p:
 *  - consume graph char q against a gap:   (j, p) -> (j, q),   gap(q)
 *  - substitute/match read[j] with q:      (j, p) -> (j+1, q), pair
 *  - consume read[j] against a gap:        (j, p) -> (j+1, p), gap
 */
AlignmentGraph buildAlignmentGraph(const CompiledGraph &compiled,
                                   const bio::Sequence &read,
                                   const bio::ScoreMatrix &costs);

/**
 * Product DAGs materialized since process start (monotone, relaxed).
 * Test instrumentation: the Behavioral read-mapping path races fused
 * and must not build one per read; the equivalence suites assert the
 * counter stays flat across batches.
 */
uint64_t alignmentGraphBuildCount();

} // namespace racelogic::pangraph

#endif // RACELOGIC_PANGRAPH_ALIGNMENT_GRAPH_H
