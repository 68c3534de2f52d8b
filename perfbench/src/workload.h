/**
 * @file
 * The benchmark's three workloads, generated from a seed.
 *
 * Each workload is a pool of requests with the oracle's answer for
 * every one of them; the load phase cycles through the pool, so every
 * reply the daemon sends can be checked.  The daemon only ever sees
 * the generated inputs: request strings on the wire, and for
 * graph-map the pangenome as a GFA file written here.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rl/bio/score_matrix.h"
#include "rl/pangraph/variation_graph.h"

namespace perfbench {

namespace rl = racelogic;

enum class Kind { PairwiseFull, ScreenShort, GraphMap };

/** The workload named on the command line, if it is one of ours. */
std::optional<Kind> parseKind(const std::string &name);

/** One request of the pool. */
struct Item {
    /** Pairwise: first string.  Screen: the query.  Graph: the read. */
    std::string a;

    /**
     * Pairwise: second string.  Screen: the candidate.  Graph: the
     * graph's reference walk, which only the traced run uses (to time
     * the pairwise kernel on reads of this length).
     */
    std::string b;

    /** Oracle score: bio::globalScore, or graphAlignDp for graph-map. */
    rl::bio::Score expected = 0;
};

struct Workload {
    Kind kind = Kind::PairwiseFull;
    std::string name;

    /** Fig. 2b costs: match 1, mismatch 2, indel 1. */
    rl::bio::ScoreMatrix costs = rl::bio::ScoreMatrix::dnaShortestPath();

    /** Screen threshold; kScoreInfinity for the other workloads. */
    rl::bio::Score threshold = rl::bio::kScoreInfinity;

    /** graph-map: the pangenome as parsed back from the GFA file. */
    std::shared_ptr<const rl::pangraph::VariationGraph> graph;

    /** Request i of the stream sends items[i % items.size()]. */
    std::vector<Item> items;

    /** The oracle's screen verdict for one item (true off screens). */
    bool
    passes(const Item &item) const
    {
        return item.expected <= threshold;
    }

    /** Arguments that start raceserved on this workload's inputs. */
    std::vector<std::string> daemonArgs(const std::string &socket) const;
};

/**
 * Generate `kind` from `seed`, write its inputs into `dir`
 * (requests.tsv, plus graph.gfa for graph-map) and compute every
 * item's oracle answer.
 */
Workload makeWorkload(Kind kind, uint64_t seed, const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
