#include "rl/api/problem.h"

#include "rl/util/logging.h"

namespace racelogic::api {

const char *
problemKindName(ProblemKind kind)
{
    switch (kind) {
    case ProblemKind::PairwiseAlignment: return "pairwise-alignment";
    case ProblemKind::AffineAlignment: return "affine-alignment";
    case ProblemKind::Dtw: return "dtw";
    case ProblemKind::DagPath: return "dag-path";
    case ProblemKind::GeneralizedAlignment: return "generalized-alignment";
    case ProblemKind::ThresholdScreen: return "threshold-screen";
    case ProblemKind::GraphAlign: return "graph-align";
    }
    return "unknown";
}

bool
gridFamilyKind(ProblemKind kind)
{
    return kind == ProblemKind::PairwiseAlignment ||
           kind == ProblemKind::GeneralizedAlignment ||
           kind == ProblemKind::ThresholdScreen;
}

RaceProblem
RaceProblem::pairwiseAlignment(bio::ScoreMatrix matrix, bio::Sequence a,
                               bio::Sequence b)
{
    RaceProblem p;
    p.kind = ProblemKind::PairwiseAlignment;
    p.matrix = std::move(matrix);
    p.a = std::move(a);
    p.b = std::move(b);
    return p;
}

RaceProblem
RaceProblem::affineAlignment(bio::ScoreMatrix costs,
                             bio::AffineGapCosts gaps, bio::Sequence a,
                             bio::Sequence b)
{
    rl_assert(costs.isCost(),
              "affine alignment needs a Cost-kind substitution matrix");
    RaceProblem p;
    p.kind = ProblemKind::AffineAlignment;
    p.matrix = std::move(costs);
    p.gaps = gaps;
    p.a = std::move(a);
    p.b = std::move(b);
    return p;
}

RaceProblem
RaceProblem::dtw(std::vector<apps::Sample> x, std::vector<apps::Sample> y)
{
    rl_assert(!x.empty() && !y.empty(), "DTW of an empty signal");
    RaceProblem p;
    p.kind = ProblemKind::Dtw;
    p.x = std::move(x);
    p.y = std::move(y);
    return p;
}

RaceProblem
RaceProblem::dagPath(graph::Dag dag, std::vector<graph::NodeId> sources,
                     graph::NodeId sink, graph::Objective objective)
{
    rl_assert(!sources.empty(), "DAG path needs at least one source");
    rl_assert(sink < dag.nodeCount(), "DAG path sink out of range");
    RaceProblem p;
    p.kind = ProblemKind::DagPath;
    p.dag = std::move(dag);
    p.sources = std::move(sources);
    p.sink = sink;
    p.objective = objective;
    return p;
}

RaceProblem
RaceProblem::generalizedAlignment(bio::ScoreMatrix similarity,
                                  bio::Sequence a, bio::Sequence b,
                                  bio::Score lambda)
{
    rl_assert(!similarity.isCost(),
              "generalized alignment converts a Similarity matrix; "
              "race a Cost matrix with pairwiseAlignment()");
    rl_assert(lambda >= 1, "lambda must be a positive integer scale");
    RaceProblem p;
    p.kind = ProblemKind::GeneralizedAlignment;
    p.matrix = std::move(similarity);
    p.lambda = lambda;
    p.a = std::move(a);
    p.b = std::move(b);
    return p;
}

RaceProblem
RaceProblem::thresholdScreen(bio::ScoreMatrix costs, bio::Score threshold,
                             bio::Sequence query, bio::Sequence candidate)
{
    rl_assert(costs.isCost(),
              "threshold screening races a Cost-kind matrix");
    rl_assert(threshold >= 0 && threshold < bio::kScoreInfinity,
              "screening needs a finite, non-negative threshold");
    RaceProblem p;
    p.kind = ProblemKind::ThresholdScreen;
    p.matrix = std::move(costs);
    p.threshold = threshold;
    p.a = std::move(query);
    p.b = std::move(candidate);
    return p;
}

RaceProblem
RaceProblem::graphAlign(bio::ScoreMatrix matrix, bio::Sequence read,
                        std::shared_ptr<const pangraph::VariationGraph> graph,
                        bio::Score threshold, bio::Score lambda)
{
    rl_assert(graph != nullptr, "graph alignment needs a graph");
    rl_assert(threshold == bio::kScoreInfinity ||
                  (threshold >= 0 && matrix.isCost()),
              "graph-align thresholds are race-cycle budgets over "
              "Cost-kind matrices");
    rl_assert(lambda >= 1, "lambda must be a positive integer scale");
    RaceProblem p;
    p.kind = ProblemKind::GraphAlign;
    p.matrix = std::move(matrix);
    p.a = std::move(read);
    p.vgraph = std::move(graph);
    p.threshold = threshold;
    p.lambda = lambda;
    return p;
}

} // namespace racelogic::api
