/**
 * @file
 * Node-labeled variation graphs: the pangenome substrate.
 *
 * A variation graph is a directed graph whose nodes (segments) carry
 * sequence labels; every source-to-sink walk spells one haplotype.
 * Aligning a read against the graph generalizes the paper's edit-graph
 * recurrence -- the DP is still a shortest-path query on a DAG, so it
 * races on exactly the same OR/delay substrate (rl/pangraph/
 * alignment_graph.h builds that product DAG; rl/pangraph/
 * graph_aligner.h races it).
 *
 * The race realization admits only acyclic graphs (a cycle would race
 * forever), so this module enforces the DAG restriction: isAcyclic()
 * / validate() reject cyclic inputs and topologicalOrder() drives
 * every downstream sweep.  Cyclic pangenomes must be DAG-ified
 * upstream (the standard "unrolled" form).
 */

#ifndef RACELOGIC_PANGRAPH_VARIATION_GRAPH_H
#define RACELOGIC_PANGRAPH_VARIATION_GRAPH_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rl/bio/sequence.h"
#include "rl/util/memo.h"
#include "rl/util/status.h"

namespace racelogic::pangraph {

/** Dense segment identifier (index into the graph's arrays). */
using SegmentId = uint32_t;

/** Sentinel for "no segment". */
constexpr SegmentId kNoSegment = ~SegmentId(0);

/**
 * Character position in the expanded (character-level) graph: 0 is
 * the virtual start before any base; characters are numbered 1..K
 * consecutively by segment id, then offset within the label.  Both
 * the product-DAG compiler (rl/pangraph/alignment_graph.h) and the
 * DP oracle (rl/pangraph/graph_align_dp.h) use this numbering, so
 * their per-state tables are directly comparable.
 */
using CharPos = uint32_t;

/** One labeled node of the variation graph. */
struct Segment {
    std::string name;   ///< GFA segment name (unique, non-empty)
    bio::Sequence label; ///< spelled bases (non-empty)
};

/**
 * A directed, node-labeled sequence graph intended to be acyclic.
 *
 * Segments are created densely; links may be added in any order and
 * exact duplicates are ignored (GFA files commonly repeat them).
 * Acyclicity is validated on demand -- validate() before racing.
 */
class VariationGraph
{
  public:
    explicit VariationGraph(bio::Alphabet alphabet);

    /**
     * Add a segment; returns its id.  fatal() on an empty name, a
     * duplicate name, an empty label, or a label over a different
     * alphabet.
     */
    SegmentId addSegment(std::string name, bio::Sequence label);

    /**
     * Fallible twin of addSegment() for untrusted (GFA) input; the
     * fatal variant is a valueOrFatal() wrapper over this one.
     */
    Expected<SegmentId> tryAddSegment(std::string name,
                                      bio::Sequence label);

    /** Add a directed link; duplicate links are ignored. */
    void addLink(SegmentId from, SegmentId to);

    size_t segmentCount() const { return segments_.size(); }
    size_t linkCount() const { return links_; }

    const Segment &segment(SegmentId id) const;

    /** Segment id for a name, or kNoSegment if absent. */
    SegmentId findSegment(const std::string &name) const;

    /** Successor segment ids of `id`, in insertion order. */
    const std::vector<SegmentId> &outLinks(SegmentId id) const;

    /** Predecessor segment ids of `id`, in insertion order. */
    const std::vector<SegmentId> &inLinks(SegmentId id) const;

    /** Segments with no incoming links, in id order. */
    std::vector<SegmentId> sources() const;

    /** Segments with no outgoing links, in id order. */
    std::vector<SegmentId> sinks() const;

    const bio::Alphabet &alphabet() const { return alphabet_; }

    /** Total label length over all segments (the char count K). */
    size_t totalLabelLength() const;

    /** True iff the graph currently contains no directed cycle. */
    bool isAcyclic() const;

    /**
     * fatal() unless the graph is raceable: at least one segment,
     * acyclic (the DAG-only restriction), with at least one source
     * and one sink.  orFatal() over checkValid().
     */
    void validate() const;

    /**
     * Typed raceability verdict: InvalidArgument on an empty graph or
     * one with no source/sink, Unsupported on a cycle (the DAG-only
     * restriction of the race substrate).
     */
    Status checkValid() const;

    /**
     * Deterministic topological order of the segments (Kahn's
     * algorithm, smallest id first among ready segments).  fatal() on
     * a cycle.
     */
    std::vector<SegmentId> topologicalOrder() const;

    /**
     * {shortest, longest} spelled length over all source-to-sink
     * walks.  Equal min and max means the graph is *rank-balanced*:
     * every walk spells the same number of characters, which is the
     * condition under which the Section 5 similarity conversion stays
     * score-preserving across walks (see docs/pangraph.md).
     */
    std::pair<size_t, size_t> spelledLengthRange() const;

    /**
     * Content hash of the fabric identity: alphabet, labels, and
     * links (segment names are display metadata and excluded).  Used
     * by the api plan cache to key GraphAlign plans by topology.
     * Memoized -- plan-cache keys are built per solve, and rehashing
     * a large pangenome each time would sit on the serial
     * plan-acquisition path of parallel read batches.
     */
    uint64_t fingerprint() const;

  private:
    void checkSegment(SegmentId id) const;

    bio::Alphabet alphabet_;
    std::vector<Segment> segments_;
    std::vector<std::vector<SegmentId>> outAdjacency;
    std::vector<std::vector<SegmentId>> inAdjacency;
    std::unordered_map<std::string, SegmentId> byName;
    size_t links_ = 0;

    /** Memoized fingerprint (mutations reset it): const graphs are
     *  shared across engine threads via shared_ptr. */
    util::Memo<uint64_t> fingerprint_;
};

/**
 * True iff the two graphs are interchangeable as race fabrics: same
 * alphabet, same labels in the same order, same links.  Segment names
 * are ignored (they never reach the hardware).
 */
bool sameTopology(const VariationGraph &lhs, const VariationGraph &rhs);

} // namespace racelogic::pangraph

#endif // RACELOGIC_PANGRAPH_VARIATION_GRAPH_H
