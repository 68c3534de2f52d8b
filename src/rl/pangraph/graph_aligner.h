/**
 * @file
 * GraphAligner: one loaded pangenome, many raced reads.
 *
 * The aligner is the planned-fabric object for the GraphAlign
 * workload: construction validates the graph, converts a similarity
 * matrix to race-ready costs (Section 5) when needed, and compiles
 * the character-level view once.  align() then races the read
 * against the compiled CSRs on the fused wavefront kernel
 * (rl/pangraph/graph_align_kernel.h) -- no product DAG is ever
 * materialized on this path -- const and allocation-local, so one
 * aligner serves many reads concurrently (the api engine races read
 * batches on its thread pool against a single cached aligner, one
 * scratch per thread).  The align(AlignmentGraph) overload races a
 * materialized product on core::raceDag instead; it is the
 * bit-identical reference and the gate-level synthesis input.
 *
 * Section 5 caveat: the similarity-to-cost conversion is affine in
 * the *walk length*, so it preserves the optimum across walks only
 * when every source-to-sink walk spells the same number of
 * characters (a rank-balanced graph, e.g. SNP-only bubbles).
 * Construction enforces that; graphs with indel branches must race a
 * Cost-kind matrix directly (see docs/pangraph.md).
 */

#ifndef RACELOGIC_PANGRAPH_GRAPH_ALIGNER_H
#define RACELOGIC_PANGRAPH_GRAPH_ALIGNER_H

#include <memory>
#include <optional>
#include <vector>

#include "rl/bio/score_convert.h"
#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/core/temporal.h"
#include "rl/pangraph/alignment_graph.h"
#include "rl/pangraph/graph_align_kernel.h"
#include "rl/pangraph/mapping.h"
#include "rl/pangraph/variation_graph.h"
#include "rl/sim/tick.h"

namespace racelogic::pangraph {

class GraphAligner
{
  public:
    /**
     * Plan a pangenome for racing.
     *
     * @param graph   Validated on entry; held by shared_ptr so one
     *                loaded graph serves many aligners and problems.
     * @param matrix  Cost matrices race directly; Similarity
     *                matrices are converted (fatal if the graph is
     *                not rank-balanced).
     * @param lambda  Section 5 scale for similarity conversion.
     */
    GraphAligner(std::shared_ptr<const VariationGraph> graph,
                 bio::ScoreMatrix matrix, bio::Score lambda = 1);

    /**
     * Fallible planning for untrusted (graph, matrix, lambda)
     * combinations: every precondition the fatal constructor
     * enforces, returned as a typed Status instead -- InvalidArgument
     * on a missing graph, alphabet mismatch, or misused lambda;
     * Unsupported on a non-rank-balanced graph under a similarity
     * matrix; plus everything checkCompilable() rejects.  The fatal
     * constructor is a valueOrFatal() wrapper over this.
     */
    static Expected<GraphAligner>
    tryMake(std::shared_ptr<const VariationGraph> graph,
            bio::ScoreMatrix matrix, bio::Score lambda = 1);

    /**
     * Race `read` against the graph on the fused kernel (no product
     * DAG); const and thread-safe.
     *
     * @param horizon  Section 6 early termination in race cycles:
     *                 if the sink has not fired by `horizon`, the
     *                 result comes back completed = false with score
     *                 kScoreInfinity.
     */
    GraphRaceResult align(const bio::Sequence &read,
                          sim::Tick horizon = sim::kTickInfinity,
                          const core::CancelToken *cancel = nullptr,
                          core::KernelCounters *counters = nullptr,
                          bool arrivals = true) const;

    /**
     * Scratch-reuse overload for tight read-mapping loops: the fused
     * kernel's working rows and hoisted weight rows live in the
     * caller's scratch (one per thread), so repeated aligns stop
     * allocating kernel storage.  `cancel` (nullptr = never) aborts
     * the sweep cooperatively, polled once per read row (see
     * raceAlignmentGrid).  `counters` (nullptr = off) accumulates the
     * kernel's profiling counts without changing the raced result.
     * `arrivals = false` leaves the arrival vector empty (a
     * score-only race).
     */
    GraphRaceResult align(const bio::Sequence &read, sim::Tick horizon,
                          GraphAlignScratch &scratch,
                          const core::CancelToken *cancel = nullptr,
                          core::KernelCounters *counters = nullptr,
                          bool arrivals = true) const;

    /**
     * The slack of an unbounded race's first inhibited attempt
     * (alignUnbounded()): its horizon is LB(source) + kInhibitSlack.
     */
    static constexpr sim::Tick kInhibitSlack = 32;

    /**
     * Race `read` unbounded under race logic's INHIBIT: the one policy
     * for an unbounded race.  Each attempt races the inhibit at a
     * horizon H (raceAlignmentGrid()), starting at LB(source) +
     * kInhibitSlack, LB(source) = max(|read|, G(0)) x minFinite() the
     * least any alignment can cost.  An attempt whose sink did not
     * fire by H missed: the slack doubles, and once it exceeds
     * LB(source) the read races plainly.  The score, racedCost,
     * latencyCycles and completed are the plain race's; events,
     * cellsFired and the arrivals (inhibited states never fire)
     * describe the attempt that answered, `counters` takes that
     * attempt's alone, and inhibitMisses counts the attempts before
     * it.  A cancelled attempt answers.  The overload without a
     * scratch races on align()'s per-thread one.
     */
    GraphRaceResult alignUnbounded(const bio::Sequence &read,
                                   GraphAlignScratch &scratch,
                                   const core::CancelToken *cancel = nullptr,
                                   core::KernelCounters *counters = nullptr,
                                   bool arrivals = true) const;

    GraphRaceResult alignUnbounded(const bio::Sequence &read,
                                   const core::CancelToken *cancel = nullptr,
                                   core::KernelCounters *counters = nullptr,
                                   bool arrivals = true) const;

    /**
     * Race an already-built product DAG (from buildAlignmentGraph
     * over this aligner's compiled graph and costs) on
     * core::raceDag.  This is the fused kernel's bit-identical
     * reference, and the GateLevel engine path builds the product
     * once and shares it between this race and fabric synthesis.
     */
    GraphRaceResult align(const AlignmentGraph &product,
                          sim::Tick horizon = sim::kTickInfinity) const;

    /**
     * Race and trace back: the optimal (walk, CIGAR) mapping
     * recovered from the arrival times (rl/pangraph/mapping.h).
     */
    GraphMapping map(const bio::Sequence &read) const;

    const VariationGraph &graph() const { return *source; }
    std::shared_ptr<const VariationGraph> graphPtr() const
    {
        return source;
    }

    /** The race-ready cost matrix (converted when input was
     *  similarity). */
    const bio::ScoreMatrix &costs() const;

    /** The matrix the caller supplied. */
    const bio::ScoreMatrix &inputMatrix() const { return input; }

    /** Section 5 conversion metadata (similarity inputs only). */
    const std::optional<bio::ShortestPathForm> &conversion() const
    {
        return converted;
    }

    const CompiledGraph &compiled() const { return compiledGraph; }

    /** Map a raced cost back to the caller's units. */
    bio::Score recoverScore(bio::Score racedCost, size_t readLength) const;

  private:
    /** All-fields constructor used by tryMake() after validation. */
    GraphAligner(std::shared_ptr<const VariationGraph> graph,
                 bio::ScoreMatrix matrix,
                 std::optional<bio::ShortestPathForm> conversion,
                 CompiledGraph compiled, size_t spelled)
        : source(std::move(graph)), input(std::move(matrix)),
          converted(std::move(conversion)),
          compiledGraph(std::move(compiled)), spelledLength(spelled)
    {}

    std::shared_ptr<const VariationGraph> source;
    bio::ScoreMatrix input;
    std::optional<bio::ShortestPathForm> converted;
    CompiledGraph compiledGraph;
    size_t spelledLength = 0; ///< walk length (rank-balanced plans)
};

} // namespace racelogic::pangraph

#endif // RACELOGIC_PANGRAPH_GRAPH_ALIGNER_H
