#include "rl/api/validate.h"

#include <algorithm>
#include <limits>

#include "rl/bio/score_convert.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/alignment_graph.h"

namespace racelogic::api {

namespace {

/** a * b, saturating at UINT64_MAX (budget comparisons only). */
uint64_t
satMul(uint64_t a, uint64_t b)
{
    if (a != 0 && b > std::numeric_limits<uint64_t>::max() / a)
        return std::numeric_limits<uint64_t>::max();
    return a * b;
}

/** a + b, saturating at UINT64_MAX. */
uint64_t
satAdd(uint64_t a, uint64_t b)
{
    if (b > std::numeric_limits<uint64_t>::max() - a)
        return std::numeric_limits<uint64_t>::max();
    return a + b;
}

Status
checkSequenceAlphabet(const bio::Sequence &sequence,
                      const bio::ScoreMatrix &matrix, const char *which)
{
    if (!(sequence.alphabet() == matrix.alphabet()))
        return Status::error(ErrorCode::InvalidArgument, "sequence ",
                             which, " uses alphabet '",
                             sequence.alphabet().letters(),
                             "', the matrix uses '",
                             matrix.alphabet().letters(), "'");
    return Status();
}

/** Race-readiness of the matrix actually raced (converted when the
 *  input is a similarity matrix), under the kMaxWavefrontWeight cap. */
Status
checkRaceMatrix(const bio::ScoreMatrix &matrix, bio::Score lambda)
{
    if (matrix.isCost())
        return matrix.validateRaceReady(core::kMaxWavefrontWeight,
                                        /*allowForbiddenPairs=*/true);
    // Section 5 conversion is total for any similarity matrix with
    // lambda >= 1 (the bias lifts every weight to >= 1); only the
    // delay cap of the *converted* costs can still fail.
    bio::ShortestPathForm converted =
        bio::toShortestPathForm(matrix, lambda);
    return converted.costs.validateRaceReady(
        core::kMaxWavefrontWeight, /*allowForbiddenPairs=*/true);
}

/**
 * The typed error for a delay outside [low, kMaxWavefrontWeight],
 * worded like an over-cap matrix weight's: `what` names the delay.
 */
template <typename... What>
Status
delayOutOfRange(int64_t w, int64_t low, const What &...what)
{
    return Status::error(ErrorCode::InvalidArgument, what..., " weight ",
                         w, " outside the race-ready range [", low, ", ",
                         core::kMaxWavefrontWeight, "]");
}

/** |a - b| exactly, for any two samples (no signed overflow). */
uint64_t
sampleDistance(apps::Sample a, apps::Sample b)
{
    return a > b ? static_cast<uint64_t>(a) - static_cast<uint64_t>(b)
                 : static_cast<uint64_t>(b) - static_cast<uint64_t>(a);
}

/**
 * The largest DTW lattice weight |x_i - y_j|: the wider of the two
 * cross spreads, each an exact unsigned distance.
 */
uint64_t
dtwSpread(const std::vector<apps::Sample> &x,
          const std::vector<apps::Sample> &y)
{
    const auto [xLow, xHigh] = std::minmax_element(x.begin(), x.end());
    const auto [yLow, yHigh] = std::minmax_element(y.begin(), y.end());
    return std::max(sampleDistance(*xHigh, *yLow),
                    sampleDistance(*yHigh, *xLow));
}

} // namespace

uint64_t
gridCells(const RaceProblem &problem)
{
    switch (problem.kind) {
    case ProblemKind::PairwiseAlignment:
    case ProblemKind::GeneralizedAlignment:
    case ProblemKind::ThresholdScreen:
    case ProblemKind::AffineAlignment:
        return satMul(problem.a->size() + 1, problem.b->size() + 1);
    case ProblemKind::Dtw:
        return satMul(problem.x.size() + 1, problem.y.size() + 1);
    case ProblemKind::DagPath:
        return problem.dag->nodeCount();
    case ProblemKind::GraphAlign:
        return 0;
    }
    return 0;
}

uint64_t
productStates(const RaceProblem &problem)
{
    if (problem.kind != ProblemKind::GraphAlign)
        return 0;
    const uint64_t positions = problem.vgraph->totalLabelLength() + 1;
    return satAdd(satMul(problem.a->size() + 1, positions), 1);
}

Status
checkShape(const RaceProblem &problem)
{
    switch (problem.kind) {
    case ProblemKind::PairwiseAlignment:
    case ProblemKind::GeneralizedAlignment:
    case ProblemKind::ThresholdScreen:
    case ProblemKind::AffineAlignment:
        if (!problem.matrix)
            return Status::error(ErrorCode::InvalidArgument,
                                 problemKindName(problem.kind),
                                 " problem has no matrix");
        if (!problem.a || !problem.b)
            return Status::error(ErrorCode::InvalidArgument,
                                 problemKindName(problem.kind),
                                 " problem needs both sequences");
        return Status();
    case ProblemKind::Dtw:
        return Status();
    case ProblemKind::DagPath:
        if (!problem.dag)
            return Status::error(ErrorCode::InvalidArgument,
                                 "dag-path problem has no DAG");
        return Status();
    case ProblemKind::GraphAlign:
        if (!problem.matrix)
            return Status::error(ErrorCode::InvalidArgument,
                                 "graph-align problem has no matrix");
        if (!problem.a)
            return Status::error(ErrorCode::InvalidArgument,
                                 "graph-align problem has no read");
        if (!problem.vgraph)
            return Status::error(ErrorCode::InvalidArgument,
                                 "graph-align problem has no graph");
        return Status();
    }
    return Status::error(ErrorCode::InvalidArgument,
                         "unknown problem kind");
}

Status
checkBudgets(const RaceProblem &problem, const ProblemLimits &limits)
{
    if (Status shape = checkShape(problem); !shape.ok())
        return shape;
    return detail::checkBudgetsShaped(problem, limits);
}

Status
checkRuntimeInputs(const RaceProblem &problem)
{
    if (Status shape = checkShape(problem); !shape.ok())
        return shape;
    return detail::checkRuntimeInputsShaped(problem);
}

namespace detail {

Status
checkBudgetsShaped(const RaceProblem &problem, const ProblemLimits &limits)
{
    if (problem.kind == ProblemKind::GraphAlign) {
        const uint64_t states = productStates(problem);
        // Hard kernel bound, enforced even when the caller set no
        // budget: product node ids are 32-bit in both the fused kernel
        // and the materialized product DAG.
        const uint64_t m = problem.a->size();
        const uint64_t positions =
            problem.vgraph->totalLabelLength() + 1;
        if (states >= static_cast<uint64_t>(graph::kNoNode))
            return Status::error(
                ErrorCode::ResourceExhausted, "product of a ", m,
                " bp read x ", positions, " graph positions has ",
                states, " states, exceeding the kernel's 32-bit id "
                "space; split the pangenome or map shorter reads");
        if (limits.maxProductStates != 0 &&
            states > limits.maxProductStates)
            return Status::error(
                ErrorCode::ResourceExhausted, "product of a ", m,
                " bp read x ", positions, " graph positions has ",
                states, " states, over the ", limits.maxProductStates,
                "-state budget");
        return Status();
    }

    if (limits.maxGridCells != 0) {
        const uint64_t cells = gridCells(problem);
        if (cells > limits.maxGridCells)
            return Status::error(ErrorCode::Oversized, "a ",
                                 problemKindName(problem.kind),
                                 " lattice of ", cells,
                                 " cells is over the ",
                                 limits.maxGridCells, "-cell budget");
    }
    return Status();
}

Status
checkRuntimeInputsShaped(const RaceProblem &problem)
{
    if (gridFamilyKind(problem.kind) ||
        problem.kind == ProblemKind::AffineAlignment) {
        if (Status s = checkSequenceAlphabet(*problem.a, *problem.matrix,
                                             "a");
            !s.ok())
            return s;
        if (Status s = checkSequenceAlphabet(*problem.b, *problem.matrix,
                                             "b");
            !s.ok())
            return s;
    }

    switch (problem.kind) {
    case ProblemKind::PairwiseAlignment:
        if (!problem.matrix->isCost() && problem.lambda < 1)
            return Status::error(ErrorCode::InvalidArgument,
                                 "lambda must be a positive integer "
                                 "scale (got ", problem.lambda, ")");
        return Status();
    case ProblemKind::GeneralizedAlignment:
        if (problem.matrix->isCost())
            return Status::error(ErrorCode::InvalidArgument,
                                 "generalized alignment converts a "
                                 "Similarity matrix; race a Cost "
                                 "matrix as a pairwise alignment");
        if (problem.lambda < 1)
            return Status::error(ErrorCode::InvalidArgument,
                                 "lambda must be a positive integer "
                                 "scale (got ", problem.lambda, ")");
        return Status();
    case ProblemKind::ThresholdScreen:
        if (!problem.matrix->isCost())
            return Status::error(ErrorCode::InvalidArgument,
                                 "threshold screening races a "
                                 "Cost-kind matrix");
        if (problem.threshold < 0 ||
            problem.threshold >= bio::kScoreInfinity)
            return Status::error(ErrorCode::InvalidArgument,
                                 "screening needs a finite, "
                                 "non-negative threshold (got ",
                                 problem.threshold, ")");
        return Status();
    case ProblemKind::AffineAlignment:
        if (!problem.matrix->isCost())
            return Status::error(ErrorCode::InvalidArgument,
                                 "affine alignment needs a Cost-kind "
                                 "substitution matrix");
        if (problem.gaps.extend < 1 ||
            problem.gaps.open < problem.gaps.extend)
            return Status::error(ErrorCode::InvalidArgument,
                                 "affine gaps need open >= extend >= 1 "
                                 "(got open ", problem.gaps.open,
                                 ", extend ", problem.gaps.extend, ")");
        return Status();
    case ProblemKind::Dtw:
        if (problem.x.empty() || problem.y.empty())
            return Status::error(ErrorCode::InvalidArgument,
                                 "DTW of an empty signal");
        return Status();
    case ProblemKind::DagPath: {
        const size_t n = problem.dag->nodeCount();
        if (problem.sources.empty())
            return Status::error(ErrorCode::InvalidArgument,
                                 "DAG path needs at least one source");
        for (graph::NodeId s : problem.sources)
            if (s >= n)
                return Status::error(ErrorCode::InvalidArgument,
                                     "DAG path source ", s,
                                     " out of range (", n, " nodes)");
        if (problem.sink >= n)
            return Status::error(ErrorCode::InvalidArgument,
                                 "DAG path sink ", problem.sink,
                                 " out of range (", n, " nodes)");
        return Status();
    }
    case ProblemKind::GraphAlign:
        if (Status s = checkSequenceAlphabet(*problem.a, *problem.matrix,
                                             "read");
            !s.ok())
            return s;
        if (problem.matrix->isCost()) {
            if (problem.lambda != 1)
                return Status::error(ErrorCode::InvalidArgument,
                                     "lambda scales similarity "
                                     "conversion only");
        } else if (problem.lambda < 1) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "lambda must be a positive integer "
                                 "scale (got ", problem.lambda, ")");
        }
        if (problem.threshold != bio::kScoreInfinity &&
            (problem.threshold < 0 || !problem.matrix->isCost()))
            return Status::error(ErrorCode::InvalidArgument,
                                 "graph-align thresholds are "
                                 "race-cycle budgets over Cost-kind "
                                 "matrices");
        return Status();
    }
    return Status::error(ErrorCode::InvalidArgument,
                         "unknown problem kind");
}

} // namespace detail

Status
validateProblem(const RaceProblem &problem, const ProblemLimits &limits)
{
    if (Status s = checkShape(problem); !s.ok())
        return s;
    if (Status s = detail::checkBudgetsShaped(problem, limits); !s.ok())
        return s;
    if (Status s = detail::checkRuntimeInputsShaped(problem); !s.ok())
        return s;
    return checkDeep(problem);
}

Status
checkDeep(const RaceProblem &problem)
{
    switch (problem.kind) {
    case ProblemKind::PairwiseAlignment:
    case ProblemKind::GeneralizedAlignment:
    case ProblemKind::ThresholdScreen:
        // The plan's RaceGridAligner races the (possibly converted)
        // matrix on the dense sweep, and a GateLevel plan synthesizes
        // it; enforce their weight discipline here instead of
        // asserting inside.
        return checkRaceMatrix(*problem.matrix, problem.lambda);
    case ProblemKind::AffineAlignment: {
        // The 3-layer lattice feeds raceDag(): every delay must sit in
        // the race-ready range.  Pair weights are costs -- finite
        // entries >= 1, kScoreInfinity meaning "no edge" -- and the
        // gap weights are open >= extend >= 1 (checked above).
        const bio::ScoreMatrix &costs = *problem.matrix;
        const bio::Alphabet &alphabet = costs.alphabet();
        for (bio::Symbol i = 0; i < alphabet.size(); ++i)
            for (bio::Symbol j = 0; j < alphabet.size(); ++j) {
                const bio::Score w = costs.pair(i, j);
                if (w != bio::kScoreInfinity &&
                    (w < 1 || w > core::kMaxWavefrontWeight))
                    return delayOutOfRange(w, 1, "affine pair '",
                                           alphabet.letter(i), "' x '",
                                           alphabet.letter(j), "'");
            }
        if (problem.gaps.open > core::kMaxWavefrontWeight)
            return delayOutOfRange(problem.gaps.open, 1,
                                   "affine gap open");
        return Status();
    }
    case ProblemKind::Dtw: {
        // Each lattice edge weighs a sample distance |x_i - y_j|.
        const uint64_t spread = dtwSpread(problem.x, problem.y);
        if (spread > static_cast<uint64_t>(core::kMaxWavefrontWeight))
            return Status::error(
                ErrorCode::InvalidArgument, "DTW samples differ by up "
                "to ", spread, ", a lattice weight outside the "
                "race-ready range [0, ", core::kMaxWavefrontWeight,
                "]");
        return Status();
    }
    case ProblemKind::DagPath: {
        for (const graph::Edge &e : problem.dag->edges())
            if (e.weight < 0 || e.weight > core::kMaxWavefrontWeight)
                return delayOutOfRange(e.weight, 0, "DAG edge ", e.from,
                                       "->", e.to);
        if (!problem.dag->isAcyclic())
            return Status::error(ErrorCode::Unsupported,
                                 "DAG path graph contains a cycle; "
                                 "the race substrate is acyclic");
        return Status();
    }
    case ProblemKind::GraphAlign: {
        // Mirror pangraph::GraphAligner::tryMake() without compiling:
        // graph validity, rank balance under similarity, and
        // race-readiness of the matrix actually raced.
        if (Status s = problem.vgraph->checkValid(); !s.ok())
            return s;
        if (!(problem.vgraph->alphabet() ==
              problem.matrix->alphabet()))
            return Status::error(ErrorCode::InvalidArgument,
                                 "graph uses alphabet '",
                                 problem.vgraph->alphabet().letters(),
                                 "', matrix uses '",
                                 problem.matrix->alphabet().letters(),
                                 "'");
        if (!problem.matrix->isCost()) {
            auto range = problem.vgraph->spelledLengthRange();
            if (range.first != range.second)
                return Status::error(
                    ErrorCode::Unsupported,
                    "similarity matrices need a rank-balanced graph "
                    "(every source-to-sink walk the same length; "
                    "got ", range.first, "..", range.second,
                    "); race a Cost-kind matrix instead");
        }
        return checkRaceMatrix(*problem.matrix, problem.lambda);
    }
    }
    return Status::error(ErrorCode::InvalidArgument,
                         "unknown problem kind");
}

} // namespace racelogic::api
