#include "rl/api/engine.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "rl/api/validate.h"
#include "rl/bio/score_convert.h"
#include "rl/circuit/compiled_sim.h"
#include "rl/core/grid_fabric.h"
#include "rl/core/race_grid.h"
#include "rl/core/race_network.h"
#include "rl/core/scratch_registry.h"
#include "rl/core/wavefront.h"
#include "rl/pangraph/alignment_graph.h"
#include "rl/pangraph/graph_aligner.h"
#include "rl/systolic/lipton_lopresti.h"
#include "rl/tech/area_model.h"
#include "rl/tech/energy_model.h"
#include "rl/util/fnv.h"
#include "rl/util/logging.h"

namespace racelogic::api {

/**
 * A planned fabric for one matrix: the converted matrix, the
 * behavioral racer, and (backend-dependent) the synthesized gate-level
 * fabric or systolic array.  Strings are runtime inputs, so one plan
 * serves every query over the matrix (of one grid size, on the sized
 * GateLevel fabric).  Immutable once built and shared by every
 * calling thread: the members are pointers-to-const, so racing on a
 * plan's state cannot compile.
 */
struct RaceEngine::Plan {
    /** The matrix the problem supplied (cache-hit exact check). */
    std::optional<bio::ScoreMatrix> input;

    /** Section 5 conversion metadata (similarity inputs only). */
    std::optional<bio::ShortestPathForm> conversion;

    /** Behavioral OR-type racer over the race-ready costs. */
    std::optional<core::RaceGridAligner> behavioral;

    /** Synthesized fabric (GateLevel backend); races run through the
     *  const alignLanes() on a private simulator. */
    std::optional<core::GridFabric> fabric;

    /** Lipton-Lopresti array (Systolic backend). */
    std::unique_ptr<const systolic::LiptonLoprestiArray> array;

    /**
     * Planned pangenome (GraphAlign only): the compiled
     * character-level graph plus the converted matrix.  Reads are
     * runtime inputs, so one aligner serves every read -- and its
     * align() is const, so concurrent solves share it safely.
     */
    std::shared_ptr<const pangraph::GraphAligner> graphAligner;

    /** Per-cell gate inventory (estimates; measured once per plan). */
    std::array<size_t, circuit::kGateTypeCount> cellInventory{};
    bool hasInventory = false;

    const bio::ScoreMatrix &
    costs() const
    {
        return behavioral->matrix();
    }

    /**
     * Approximate resident heap bytes -- the memory budget's
     * currency.  Counts the dominant allocations (netlist gates,
     * compiled-graph CSRs, score tables); the budget needs honest
     * bookkeeping that tracks reality, not byte-exact totals.
     */
    size_t residentBytes() const;
};

namespace {

/** Approximate heap bytes of one score matrix's tables. */
size_t
scoreMatrixBytes(const bio::ScoreMatrix &matrix)
{
    const size_t n = matrix.alphabet().size();
    return (n * n + n) * sizeof(bio::Score) + sizeof(bio::ScoreMatrix);
}

/**
 * Kinds with a reusable cached plan.  Dtw, DagPath and affine
 * lattices bake their instance into the raced graph, so they build
 * it per solve and never touch the cache.
 */
bool
planFamilyKind(ProblemKind kind)
{
    return gridFamilyKind(kind) || kind == ProblemKind::GraphAlign;
}

} // namespace

size_t
RaceEngine::Plan::residentBytes() const
{
    size_t bytes = sizeof(Plan);
    if (input)
        bytes += scoreMatrixBytes(*input);
    if (conversion)
        bytes += scoreMatrixBytes(conversion->costs);
    if (behavioral)
        bytes += scoreMatrixBytes(behavioral->matrix());
    if (fabric) {
        // Gate storage dominates a synthesized fabric; ~64 bytes per
        // gate covers the Gate record plus its input vector.
        bytes += fabric->netlist().gateCount() * 64;
    }
    if (array)
        bytes += sizeof(systolic::LiptonLoprestiArray) +
                 scoreMatrixBytes(array->matrix());
    if (graphAligner) {
        const pangraph::CompiledGraph &cg = graphAligner->compiled();
        bytes += cg.symbol.capacity() * sizeof(bio::Symbol) +
                 cg.segmentOf.capacity() * sizeof(pangraph::SegmentId) +
                 (cg.firstChar.capacity() + cg.lastChar.capacity() +
                  cg.succ.capacity() + cg.pred.capacity()) *
                     sizeof(pangraph::CharPos) +
                 cg.segmentOrder.capacity() * sizeof(pangraph::SegmentId) +
                 (cg.succOffsets.capacity() + cg.predOffsets.capacity()) *
                     sizeof(uint32_t) +
                 cg.terminal.capacity() +
                 cg.gapWeight.capacity() * sizeof(bio::Score) +
                 cg.outEdges.capacity() * sizeof(core::SweepOutEdges) +
                 cg.band.residentBytes() +
                 scoreMatrixBytes(graphAligner->costs());
    }
    return bytes;
}

namespace {

/** Wall time of `cycles` race clocks under `lib` (ns). */
double
raceWallNs(const tech::CellLibrary &lib, sim::Tick cycles)
{
    return static_cast<double>(cycles) * lib.racePeriodNs;
}

/** Apply the threshold verdict to a completed-or-not OR-race result. */
void
applyThresholdVerdict(bio::Score threshold, RaceResult &result)
{
    if (!result.completed) {
        result.accepted = false;
        result.cyclesUsed = result.latencyCycles;
        return;
    }
    const bool over = result.racedCost > threshold;
    result.accepted = !over;
    result.cyclesUsed = over ? static_cast<sim::Tick>(threshold)
                             : result.latencyCycles;
}

/** The threshold a grid-family problem's verdict is judged against. */
bio::Score
gridThreshold(const RaceProblem &problem, const EngineConfig &cfg)
{
    return problem.kind == ProblemKind::ThresholdScreen ? problem.threshold
                                                        : cfg.threshold;
}

/**
 * The GateLevel cross-check: a replayed sink against the behavioral
 * race of the same problem.  `threshold` is the bound the replay's
 * budget came from (kScoreInfinity when the replay ran past the
 * behavioral arrival).
 */
void
checkGateSink(const RaceResult &behavioral, bool gateFired,
              bio::Score gateScore, bio::Score threshold)
{
    if (gateFired && behavioral.completed) {
        rl_assert(gateScore == behavioral.racedCost,
                  "gate-level race disagrees with the behavioral model "
                  "at the sink: ",
                  gateScore, " vs ", behavioral.racedCost);
    } else if (gateFired) {
        // The behavioral race aborted at its horizon, but the replay
        // budget may run longer -- its floor of 1 at threshold 0, or
        // a lane chunk's shared budget -- so the sink may fire, but
        // only past the threshold.
        rl_assert(gateScore > threshold,
                  "gate-level race completed under a threshold the "
                  "behavioral model aborted at");
    } else {
        rl_assert(threshold != bio::kScoreInfinity && !behavioral.accepted,
                  "gate-level race did not complete within budget");
    }
}

/**
 * Price a GateLevel race from its synthesized netlist's gate counts
 * and its simulated switching energy (the ModelSim -> PrimeTime
 * stand-in).
 */
void
priceGates(const tech::CellLibrary &lib,
           const std::array<size_t, circuit::kGateTypeCount> &counts,
           double energyJ, HardwareEstimate &estimate)
{
    estimate.areaUm2 = lib.areaOfInventory(counts);
    estimate.energyJ = energyJ;
    estimate.gateCount =
        std::accumulate(counts.begin(), counts.end(), size_t(0));
    estimate.dffCount = counts[static_cast<size_t>(circuit::GateType::Dff)];
}

/** One already-raced grid-family problem in a GateLevel replay. */
struct GridLane {
    const RaceProblem *problem;
    RaceResult *result;
};

/**
 * Replay up to 64 already-raced grid-family problems on their plan's
 * fabric, one bit-parallel lane each, then cross-check and price every
 * lane.  The serial GateLevel solve is a chunk of one.
 *
 * The lanes share one lock-step budget: the largest lane threshold
 * (floored at 1, since the fabric treats budget 0 as "unlimited" and
 * threshold 0 must still reject after one cycle), or the fabric's
 * full-race default if any lane is unbounded.  Each lane's own Section
 * 6 verdict is then checked against its own threshold.  Energy is the
 * measured word's Eq. 3 energy averaged per lane, and profiling
 * counters describe the one sweep the lanes share, like the activity.
 */
void
replayGridLanes(const core::GridFabric &fabric,
                std::span<const GridLane> lanes, const EngineConfig &cfg)
{
    std::vector<core::LanePair> pairs;
    pairs.reserve(lanes.size());
    uint64_t budget = 0;
    bool unbounded = false;
    bool wantCounters = false;
    for (const GridLane &lane : lanes) {
        const RaceProblem &p = *lane.problem;
        pairs.push_back({&*p.a, &*p.b});
        const bio::Score threshold = gridThreshold(p, cfg);
        if (threshold == bio::kScoreInfinity)
            unbounded = true;
        else
            budget = std::max<uint64_t>(
                budget, std::max<uint64_t>(
                            static_cast<uint64_t>(threshold), 1));
        wantCounters = wantCounters || p.counters != nullptr;
    }
    core::KernelCounters counters;
    const core::LaneBatchResult raced = fabric.alignLanes(
        pairs, unbounded ? 0 : budget, wantCounters ? &counters : nullptr);

    std::array<size_t, circuit::kGateTypeCount> gateCounts{};
    double laneEnergyJ = 0.0;
    if (cfg.withEstimates) {
        gateCounts = fabric.netlist().typeCounts();
        laneEnergyJ =
            tech::energyFromActivityJ(*cfg.library, raced.activity) /
            static_cast<double>(lanes.size());
    }
    for (size_t k = 0; k < lanes.size(); ++k) {
        const RaceProblem &p = *lanes[k].problem;
        RaceResult &result = *lanes[k].result;
        if (p.counters)
            p.counters->merge(counters);
        const core::CircuitRunResult &run = raced.lanes[k];
        checkGateSink(result, run.completed, run.score,
                      gridThreshold(p, cfg));
        if (result.estimate)
            priceGates(*cfg.library, gateCounts, laneEnergyJ,
                       *result.estimate);
    }
}

/**
 * Replay a materialized race DAG (Dtw, DagPath, Affine, the GraphAlign
 * product) on gates: compile it to a netlist, race it on the compiled
 * levelized simulator, cross-check the sink and price.  The budget is
 * the behavioral arrival plus margin, or -- for a behavioral race that
 * aborted at its horizon -- `threshold`, floored at 1.
 */
void
replayDagOnGates(const graph::Dag &dag,
                 const std::vector<graph::NodeId> &sources,
                 graph::NodeId sink, core::RaceType type,
                 bio::Score threshold, const EngineConfig &cfg,
                 RaceResult &result)
{
    core::RaceCircuit compiled = core::compileRaceCircuit(dag, sources, type);
    circuit::CompiledSim sim(compiled.netlist);
    for (circuit::NetId input : compiled.sourceInputs)
        sim.setInput(input, true);
    const uint64_t budget =
        result.completed
            ? static_cast<uint64_t>(result.racedCost) + 4
            : std::max<uint64_t>(static_cast<uint64_t>(threshold), 1);
    auto gateArrival =
        sim.runUntil(compiled.nodeNets[sink], true, budget);
    checkGateSink(result, gateArrival.has_value(),
                  gateArrival ? static_cast<bio::Score>(*gateArrival)
                              : bio::kScoreInfinity,
                  threshold);
    if (cfg.withEstimates && result.estimate)
        priceGates(*cfg.library, compiled.netlist.typeCounts(),
                   tech::energyFromActivityJ(*cfg.library, sim.activity()),
                   *result.estimate);
}

} // namespace

size_t
BatchOutcome::acceptedCount() const
{
    return static_cast<size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const RaceResult &r) { return r.accepted; }));
}

uint64_t
BatchOutcome::busyCycles() const
{
    uint64_t total = 0;
    for (const RaceResult &r : results)
        total += r.cyclesUsed;
    return total;
}

uint64_t
BatchOutcome::fullRaceCycles() const
{
    uint64_t total = 0;
    for (const RaceResult &r : results)
        total += r.latencyCycles;
    return total;
}

double
BatchOutcome::speedup() const
{
    uint64_t busy = busyCycles();
    return busy == 0 ? 1.0
                     : static_cast<double>(fullRaceCycles()) /
                           static_cast<double>(busy);
}

RaceEngine::RaceEngine(EngineConfig config) : cfg(config)
{
    rl_assert(cfg.library != nullptr,
              "EngineConfig.library must point at a CellLibrary");
}

RaceEngine::~RaceEngine() = default;

void
RaceEngine::clearPlanCache()
{
    std::lock_guard<std::mutex> lock(mutex);
    lru.clear();
    index.clear();
    cacheBytes = 0;
}

size_t
RaceEngine::planCacheSize() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return lru.size();
}

size_t
RaceEngine::planCacheBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return cacheBytes;
}

size_t
RaceEngine::evictLruLocked()
{
    if (lru.empty())
        return 0;
    const size_t freed = lru.back().second->residentBytes();
    index.erase(lru.back().first);
    lru.pop_back();
    cacheBytes -= std::min(cacheBytes, freed);
    return freed;
}

size_t
RaceEngine::evictLruPlan()
{
    std::lock_guard<std::mutex> lock(mutex);
    return evictLruLocked();
}

size_t
RaceEngine::evictGraphPlans()
{
    std::lock_guard<std::mutex> lock(mutex);
    size_t freed = 0;
    for (auto it = lru.begin(); it != lru.end();) {
        if (it->second->graphAligner == nullptr) {
            ++it;
            continue;
        }
        freed += it->second->residentBytes();
        index.erase(it->first);
        it = lru.erase(it);
    }
    cacheBytes -= std::min(cacheBytes, freed);
    return freed;
}

RaceEngine::PlanPtr
RaceEngine::buildPlan(const RaceProblem &problem) const
{
    auto plan = std::make_shared<Plan>();
    plan->input = *problem.matrix;
    if (problem.kind == ProblemKind::GraphAlign) {
        plan->graphAligner = std::make_shared<const pangraph::GraphAligner>(
            problem.vgraph, *problem.matrix, problem.lambda);
        return plan;
    }

    const bio::ScoreMatrix &input = *plan->input;
    if (input.isCost()) {
        plan->behavioral.emplace(input);
    } else {
        plan->conversion =
            bio::toShortestPathForm(input, problem.lambda);
        plan->behavioral.emplace(plan->conversion->costs);
    }

    if (cfg.backend == BackendKind::GateLevel)
        plan->fabric = core::GridFabric::generalized(
            plan->costs(), problem.a->size(), problem.b->size());
    if (cfg.backend == BackendKind::Systolic)
        plan->array = std::make_unique<const systolic::LiptonLoprestiArray>(
            plan->costs());
    if (cfg.withEstimates && cfg.backend != BackendKind::Systolic) {
        plan->cellInventory =
            core::generalizedCellInventory(plan->costs(),
                                           core::DelayEncoding::Binary);
        plan->hasInventory = true;
    }
    return plan;
}

size_t
RaceEngine::PlanKeyHash::operator()(const PlanKey &key) const
{
    util::Fnv f;
    f.mix(static_cast<uint64_t>(key.kind));
    f.mix(key.matrix);
    f.mix(static_cast<uint64_t>(key.lambda));
    f.mix(key.rows);
    f.mix(key.cols);
    f.mix(key.graph);
    return static_cast<size_t>(f.h);
}

std::optional<RaceEngine::PlanKey>
RaceEngine::planKey(const RaceProblem &problem) const
{
    if (cfg.planCacheCapacity == 0 || !planFamilyKind(problem.kind))
        return std::nullopt;
    PlanKey key;
    key.kind = problem.kind;
    key.matrix = problem.matrix->fingerprint();
    key.lambda = problem.lambda;
    if (problem.kind == ProblemKind::GraphAlign) {
        // The read is a runtime input and the threshold a cycle
        // budget: one loaded graph serves every read.
        key.graph = problem.vgraph->fingerprint();
    } else if (cfg.backend == BackendKind::GateLevel) {
        // Only the synthesized fabric is sized; the behavioral racer
        // and the systolic array take strings of any length.
        key.rows = problem.a->size();
        key.cols = problem.b->size();
    }
    return key;
}

RaceEngine::PlanPtr
RaceEngine::lookup(const RaceProblem &problem, bool solving) const
{
    const std::optional<PlanKey> key = planKey(problem);
    if (!key)
        return nullptr;
    std::lock_guard<std::mutex> lock(mutex);
    const auto found = index.find(*key);
    if (found == index.end())
        return nullptr;
    // The key carries 64-bit fingerprints, which may collide: confirm
    // the plan exactly, so a collision never hands back the wrong
    // fabric.  A collision is a miss, and its fresh plan stays
    // uncached.  A graph object other than the plan's is walked here,
    // under the lock, which is rare: a graph reload evicts the old
    // graph's plans, so later solves meet their own graph object.
    const PlanPtr &plan = found->second->second;
    if (*problem.matrix != *plan->input ||
        (problem.kind == ProblemKind::GraphAlign &&
         problem.vgraph != plan->graphAligner->graphPtr() &&
         !pangraph::sameTopology(*problem.vgraph,
                                 plan->graphAligner->graph())))
        return nullptr;
    if (solving) {
        lru.splice(lru.begin(), lru, found->second);
        ++statistics.solves;
        ++statistics.planCacheHits;
    }
    return plan;
}

RaceEngine::PlanPtr
RaceEngine::build(const RaceProblem &problem, bool solving)
{
    // Build outside the lock: synthesis can take milliseconds, and no
    // other solve should wait for it.  Threads that miss on one key
    // at once each build; the first insert wins and the rest race on
    // their own copy once.
    PlanPtr plan = planFamilyKind(problem.kind) ? buildPlan(problem)
                                                : nullptr;
    const std::optional<PlanKey> key = planKey(problem);
    const size_t bytes = plan ? plan->residentBytes() : 0;
    std::lock_guard<std::mutex> lock(mutex);
    statistics.solves += solving;
    if (!plan)
        return plan;
    ++statistics.plansBuilt;
    if (key && index.find(*key) == index.end()) {
        lru.emplace_front(*key, plan);
        index.emplace(*key, lru.begin());
        cacheBytes += bytes;
        while (lru.size() > cfg.planCacheCapacity)
            evictLruLocked();
    }
    return plan;
}

RaceEngine::PlanPtr
RaceEngine::acquire(const RaceProblem &problem, bool solving)
{
    if (PlanPtr plan = lookup(problem, solving))
        return plan;
    return build(problem, solving);
}

Expected<RaceEngine::PlanPtr>
RaceEngine::check(const RaceProblem &problem, bool solving) const
{
    // checkShape() must pass before anything else: the later checks
    // and the plan key dereference the kind's optionals.
    if (Status s = checkShape(problem); !s.ok())
        return s;
    // Backend compatibility is this engine's concern, not the
    // problem's: the Lipton-Lopresti array races Fig. 2b pairwise
    // grids only (solve() asserts the same invariant).
    if (cfg.backend == BackendKind::Systolic &&
        problem.kind != ProblemKind::PairwiseAlignment &&
        problem.kind != ProblemKind::ThresholdScreen)
        return Status::error(ErrorCode::Unsupported,
                             "the systolic baseline races pairwise "
                             "grids and threshold screens only");
    // Both hardware backends realize a grid of at least one cell; only
    // the behavioral race has an answer for an empty string.
    if (cfg.backend != BackendKind::Behavioral &&
        gridFamilyKind(problem.kind) &&
        (problem.a->empty() || problem.b->empty()))
        return Status::error(ErrorCode::Unsupported, "the ",
                             backendKindName(cfg.backend),
                             " backend races grids of at least one "
                             "cell; race an empty string on the "
                             "behavioral backend");
    ProblemLimits limits;
    limits.maxProductStates = cfg.maxProductStates;
    if (Status s = detail::checkBudgetsShaped(problem, limits); !s.ok())
        return s;
    if (Status s = detail::checkRuntimeInputsShaped(problem); !s.ok())
        return s;
    // An exact hit's build already passed the rest.
    if (PlanPtr hit = lookup(problem, solving))
        return hit;
    if (Status s = checkDeep(problem); !s.ok())
        return s;
    // The systolic plan build asserts the one cost family the array
    // encodes; check the matrix it would race.
    if (cfg.backend == BackendKind::Systolic) {
        Status family = systolic::LiptonLoprestiArray::checkMatrix(
            problem.matrix->isCost()
                ? *problem.matrix
                : bio::toShortestPathForm(*problem.matrix, problem.lambda)
                      .costs);
        if (!family.ok())
            return family;
    }
    return PlanPtr();
}

Status
RaceEngine::validate(const RaceProblem &problem) const
{
    return check(problem, /*solving=*/false).status();
}

Expected<RaceResult>
RaceEngine::trySolve(const RaceProblem &problem)
{
    Expected<PlanPtr> checked = check(problem, /*solving=*/true);
    if (!checked.ok())
        return checked.status();
    PlanPtr plan = std::move(*checked);
    if (!plan)
        plan = build(problem, /*solving=*/true);
    return race(problem, plan.get());
}

EngineStats
RaceEngine::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    EngineStats snapshot = statistics;
    snapshot.inhibitMisses = inhibitMisses.load(std::memory_order_relaxed);
    return snapshot;
}

RaceResult
RaceEngine::solve(const RaceProblem &problem)
{
    return race(problem, acquire(problem, /*solving=*/true).get());
}

RaceResult
RaceEngine::race(const RaceProblem &problem, const Plan *plan,
                 bool replayGrid) const
{
    switch (problem.kind) {
    case ProblemKind::PairwiseAlignment:
    case ProblemKind::GeneralizedAlignment:
    case ProblemKind::ThresholdScreen:
        return solveGridFamily(problem, *plan, replayGrid);
    case ProblemKind::Dtw:
        return solveDtw(problem);
    case ProblemKind::DagPath:
        return solveDagPath(problem);
    case ProblemKind::AffineAlignment:
        return solveAffine(problem);
    case ProblemKind::GraphAlign:
        return solveGraphAlign(problem, *plan);
    }
    rl_assert(false, "unknown problem kind");
    return RaceResult{};
}

RaceResult
RaceEngine::raceGridBehavioral(const RaceProblem &problem,
                               const Plan &plan) const
{
    const bio::Sequence &a = *problem.a;
    const bio::Sequence &b = *problem.b;
    const bool screening = problem.kind == ProblemKind::ThresholdScreen;
    const bio::Score threshold = gridThreshold(problem, cfg);
    const tech::CellLibrary &lib = *cfg.library;

    RaceResult result;
    result.kind = problem.kind;
    result.backend = cfg.backend;
    result.nodes = (a.size() + 1) * (b.size() + 1);

    // Screens race with the threshold as the kernel horizon (the
    // Section 6 abort counter) unless the config asks for full-race
    // measurement.  Engine-wide thresholds on non-screen kinds keep
    // racing to completion: their contract reports the exact score
    // even when rejected.
    const bool bounded = screening && cfg.earlyTerminate &&
                         threshold != bio::kScoreInfinity;
    // One kernel scratch per thread: the batch screening loop (and
    // every serial solve) reuses the sweep's working row instead of
    // allocating it per comparison.  The registry entry publishes the
    // scratch's resident bytes so the serving layer's memory budget can
    // see -- and, via shrinkIdle(), reclaim -- capacity pinned inside
    // worker threads; the lease keeps shrinkers off a live solve.
    static thread_local core::RaceGridScratch scratch;
    static thread_local core::ScratchRegistration scratchReg(
        [s = &scratch](bool shrink) {
            if (shrink)
                s->shrinkToFit();
            return s->residentBytes();
        });
    core::ScratchLease lease(scratchReg.entry());
    core::RaceGridResult raced = plan.behavioral->align(
        a, b,
        bounded ? static_cast<sim::Tick>(threshold)
                : sim::kTickInfinity,
        scratch, problem.cancel, problem.counters, problem.arrivals);
    rl_assert(bounded || raced.cancelled || raced.completed,
              "sink never fired; gap weights should guarantee a path");
    result.completed = raced.completed;
    result.cancelled = raced.cancelled;
    result.racedCost = raced.score;
    result.latencyCycles = raced.latencyCycles;
    result.events = raced.events;
    result.cellsFired = raced.cellsFired;
    result.arrival = std::move(raced.arrival);

    applyThresholdVerdict(threshold, result);
    if (result.cancelled) {
        // A cancelled race reveals nothing about the score at all.
        result.accepted = false;
        result.score = bio::kScoreInfinity;
    } else if (screening && !result.accepted) {
        // Match the Section 6 screening contract: an aborted race
        // reveals only that the score exceeds the threshold.
        result.completed = false;
        result.score = bio::kScoreInfinity;
    } else {
        result.score = plan.conversion
                           ? plan.conversion->recoverScore(
                                 result.racedCost, a.size(), b.size())
                           : result.racedCost;
    }

    if (cfg.withEstimates) {
        HardwareEstimate est;
        est.wallTimeNs = raceWallNs(lib, result.cyclesUsed);
        // On GateLevel the caller overwrites area/energy with figures
        // from the synthesized netlist; skip the analytic model then,
        // and for an empty string, whose grid has no cells to price.
        if (plan.hasInventory &&
            cfg.backend != BackendKind::GateLevel && !a.empty() &&
            !b.empty()) {
            // Eq. 3 with the actual race duration: clock-pin charging
            // of every fabric DFF per cycle, plus the per-comparison
            // data term.
            const double cells =
                static_cast<double>(a.size() * b.size());
            const double dffPerCell = static_cast<double>(
                plan.cellInventory[static_cast<size_t>(
                    circuit::GateType::Dff)]);
            est.areaUm2 =
                tech::generalizedGridArea(lib, plan.costs(), a.size(),
                                          b.size(), plan.cellInventory)
                    .totalUm2;
            est.energyJ =
                lib.switchEnergyJ(lib.dffClockCapF) * cells * dffPerCell *
                    static_cast<double>(result.cyclesUsed) +
                cells * lib.raceCellTogglesPerComparison *
                    lib.switchEnergyJ(lib.netCapF);
        }
        result.estimate = est;
    }
    return result;
}

RaceResult
RaceEngine::solveGridFamily(const RaceProblem &problem, const Plan &plan,
                            bool replayGrid) const
{
    const bio::Sequence &a = *problem.a;
    const bio::Sequence &b = *problem.b;
    const bio::Score threshold = gridThreshold(problem, cfg);

    rl_assert(cfg.backend != BackendKind::Systolic ||
                  problem.kind != ProblemKind::GeneralizedAlignment,
              "the systolic baseline cannot run generalized matrices "
              "(mod-4 score encoding needs the Fig. 2b cost family)");

    const tech::CellLibrary &lib = *cfg.library;

    if (cfg.backend == BackendKind::Systolic) {
        RaceResult result;
        result.kind = problem.kind;
        result.backend = cfg.backend;
        systolic::SystolicResult raced = plan.array->align(a, b);
        result.racedCost = raced.score;
        result.latencyCycles = raced.cycles;
        result.nodes = raced.peCount;
        // The array cannot abort: it is busy for the full run even
        // when the verdict is negative (the Section 6 contrast).
        result.cyclesUsed = raced.cycles;
        result.accepted = raced.score <= threshold;
        result.score = plan.conversion
                           ? plan.conversion->recoverScore(
                                 result.racedCost, a.size(), b.size())
                           : result.racedCost;
        if (cfg.withEstimates) {
            HardwareEstimate est;
            est.wallTimeNs = static_cast<double>(raced.cycles) *
                             lib.systolicPeriodNs;
            est.areaUm2 = tech::systolicArea(lib, a.alphabet(), a.size(),
                                             b.size())
                              .totalUm2;
            est.energyJ =
                tech::systolicEnergyFromResult(lib, raced, a.alphabet())
                    .totalJ();
            result.estimate = est;
        }
        return result;
    }

    // Behavioral race (also the reference the gate level is checked
    // against).  A cancelled race has no result to cross-check, so
    // the fabric is not raced either.
    RaceResult result = raceGridBehavioral(problem, plan);

    if (cfg.backend == BackendKind::GateLevel && replayGrid &&
        !result.cancelled) {
        // Run the same race on the synthesized fabric: a lane chunk of
        // one, on a private simulator over the plan's shared compile,
        // so concurrent solves never share simulation state.  A finite
        // threshold becomes the cycle budget -- the hardware
        // realization of Section 6's abort -- so the priced switching
        // activity covers exactly the cycles the fabric is busy.
        const GridLane lane{&problem, &result};
        replayGridLanes(*plan.fabric, {&lane, 1}, cfg);
    }
    return result;
}

namespace {

/**
 * Race a DAG problem behaviorally and, on the gate-level backend,
 * replay a sink that fired on real gates.  Shared by Dtw / DagPath /
 * Affine; a score-only solve (`arrivals` false) returns no
 * nodeArrival.
 */
void
raceDagProblem(const graph::Dag &dag,
               const std::vector<graph::NodeId> &sources,
               graph::NodeId sink, core::RaceType type, bool arrivals,
               const EngineConfig &cfg, RaceResult &result)
{
    core::RaceOutcome outcome = core::raceDag(dag, sources, type);
    core::TemporalValue arrival = outcome.at(sink);
    result.events = outcome.events;
    result.nodes = dag.nodeCount();
    result.completed = arrival.fired();
    if (arrival.fired()) {
        result.racedCost = static_cast<bio::Score>(arrival.time());
        result.latencyCycles = arrival.time();
    } else {
        result.racedCost = bio::kScoreInfinity;
        result.latencyCycles = outcome.horizon;
    }
    result.cellsFired = static_cast<size_t>(std::count_if(
        outcome.firing.begin(), outcome.firing.end(),
        [](const core::TemporalValue &v) { return v.fired(); }));
    if (arrivals)
        result.nodeArrival = std::move(outcome.firing);

    const tech::CellLibrary &lib = *cfg.library;
    if (cfg.withEstimates) {
        HardwareEstimate est;
        est.wallTimeNs = raceWallNs(lib, result.latencyCycles);
        result.estimate = est;
    }

    if (cfg.backend == BackendKind::GateLevel && arrival.fired())
        replayDagOnGates(dag, sources, sink, type, bio::kScoreInfinity, cfg,
                         result);
}

} // namespace

RaceResult
RaceEngine::solveDtw(const RaceProblem &problem) const
{
    rl_assert(cfg.backend != BackendKind::Systolic,
              "the systolic baseline only aligns strings; race DTW on "
              "the behavioral or gate-level backend");

    apps::DtwGraph lattice = apps::makeDtwGraph(problem.x, problem.y);

    RaceResult result;
    result.kind = ProblemKind::Dtw;
    result.backend = cfg.backend;
    raceDagProblem(lattice.dag, {lattice.source}, lattice.sink,
                   core::RaceType::Or, problem.arrivals, cfg, result);
    rl_assert(result.completed, "DTW race never finished");
    result.score = result.racedCost;
    applyThresholdVerdict(cfg.threshold, result);
    return result;
}

RaceResult
RaceEngine::solveDagPath(const RaceProblem &problem) const
{
    rl_assert(cfg.backend != BackendKind::Systolic,
              "the systolic baseline only aligns strings; race DAG "
              "paths on the behavioral or gate-level backend");

    const bool shortest =
        problem.objective == graph::Objective::Shortest;

    RaceResult result;
    result.kind = ProblemKind::DagPath;
    result.backend = cfg.backend;
    raceDagProblem(*problem.dag, problem.sources, problem.sink,
                   shortest ? core::RaceType::Or : core::RaceType::And,
                   problem.arrivals, cfg, result);
    result.score = result.completed ? result.racedCost
                                    : bio::kScoreInfinity;
    if (shortest) {
        // Early termination is an OR-race property only: a MAX race's
        // answer is not known until the end.
        applyThresholdVerdict(cfg.threshold, result);
    } else {
        result.cyclesUsed = result.latencyCycles;
    }
    return result;
}

RaceResult
RaceEngine::solveAffine(const RaceProblem &problem) const
{
    rl_assert(cfg.backend != BackendKind::Systolic,
              "the systolic baseline has no affine-gap mode; race "
              "affine alignments on the behavioral or gate-level "
              "backend");

    bio::AffineEditGraph lattice = bio::makeAffineEditGraph(
        *problem.a, *problem.b, *problem.matrix, problem.gaps);

    RaceResult result;
    result.kind = ProblemKind::AffineAlignment;
    result.backend = cfg.backend;
    raceDagProblem(lattice.dag, {lattice.source}, lattice.sink,
                   core::RaceType::Or, problem.arrivals, cfg, result);
    rl_assert(result.completed,
              "affine race never finished; finite gaps should always "
              "connect the corners");
    result.score = result.racedCost;
    applyThresholdVerdict(cfg.threshold, result);
    return result;
}

RaceResult
RaceEngine::solveGraphAlign(const RaceProblem &problem,
                            const Plan &plan) const
{
    rl_assert(cfg.backend != BackendKind::Systolic,
              "the systolic baseline only aligns linear strings; race "
              "graph alignments on the behavioral or gate-level "
              "backend");
    const pangraph::GraphAligner &aligner = *plan.graphAligner;
    // A problem-level threshold marks a read-mapping screen; the
    // engine-wide threshold only gates acceptance after a full race.
    const bool screening = problem.threshold != bio::kScoreInfinity;
    const bio::Score threshold =
        screening ? problem.threshold : cfg.threshold;
    const bool bounded = screening && cfg.earlyTerminate;
    const sim::Tick horizon = bounded
                                  ? static_cast<sim::Tick>(threshold)
                                  : sim::kTickInfinity;

    // The fused kernel -- align(read) keeps one scratch per thread,
    // so the read-mapping batch loop (and every serial solve)
    // allocates no kernel storage per read and never materializes a
    // product DAG.  A read with no problem threshold races the
    // inhibit policy, score-only or not, so both report one race.
    pangraph::GraphRaceResult raced =
        screening ? aligner.align(*problem.a, horizon, problem.cancel,
                                  problem.counters, problem.arrivals)
                  : aligner.alignUnbounded(*problem.a, problem.cancel,
                                           problem.counters,
                                           problem.arrivals);
    if (raced.inhibitMisses != 0)
        inhibitMisses.fetch_add(raced.inhibitMisses,
                                std::memory_order_relaxed);

    RaceResult result;
    result.kind = ProblemKind::GraphAlign;
    result.backend = cfg.backend;
    result.nodes = raced.nodes;
    result.completed = raced.completed;
    result.cancelled = raced.cancelled;
    result.racedCost = raced.racedCost;
    result.latencyCycles = raced.latencyCycles;
    result.events = raced.events;
    result.cellsFired = raced.cellsFired;
    result.nodeArrival = std::move(raced.arrival);

    applyThresholdVerdict(threshold, result);
    bool keepDetail = problem.arrivals;
    if (result.cancelled) {
        // A cancelled race reveals nothing -- not even the screening
        // verdict -- and carries no mapping detail.
        result.accepted = false;
        result.score = bio::kScoreInfinity;
        keepDetail = false;
    } else if (screening && !result.accepted) {
        // The Section 6 screening contract: an aborted race reveals
        // only that the distance exceeds the threshold.  Rejected
        // reads also carry no mapping detail -- graphMapping() needs
        // a completed race, and retaining the product arrival vector
        // would make screening batches scale as reads x product
        // size.
        result.completed = false;
        result.score = bio::kScoreInfinity;
        keepDetail = false;
    } else {
        result.score = raced.score;
    }
    if (!keepDetail) {
        result.nodeArrival.clear();
        result.nodeArrival.shrink_to_fit();
    }

    if (cfg.withEstimates) {
        HardwareEstimate est;
        est.wallTimeNs = raceWallNs(*cfg.library, result.cyclesUsed);
        result.estimate = est;
    }

    // GateLevel then builds the product DAG as the synthesis input
    // (Fig. 3b, one OR gate per state, DFF chains per edit weight),
    // replays it on the compiled levelized simulator and cross-checks
    // the sink.  A cancelled race has no result to cross-check, so the
    // fabric is not raced either.
    if (cfg.backend == BackendKind::GateLevel && !result.cancelled) {
        const pangraph::AlignmentGraph product = pangraph::buildAlignmentGraph(
            aligner.compiled(), *problem.a, aligner.costs());
        replayDagOnGates(product.dag, {product.source}, product.sink,
                         core::RaceType::Or, problem.threshold, cfg, result);
    }
    return result;
}

namespace {

/**
 * A batch is "screening-shaped" when every problem races one shared
 * fabric against varying runtime inputs: one cost matrix and query
 * over a candidate database, or one pangenome plan over a read set.
 * Exactly the workloads the core::batch fabric pool schedules.
 */
bool
screeningShaped(const std::vector<RaceProblem> &problems)
{
    if (problems.empty())
        return false;
    const RaceProblem &first = problems.front();
    if (first.kind == ProblemKind::GraphAlign) {
        for (const RaceProblem &p : problems) {
            if (p.kind != ProblemKind::GraphAlign)
                return false;
            if (p.vgraph != first.vgraph || *p.matrix != *first.matrix)
                return false;
        }
        return true;
    }
    if (!first.matrix || !first.matrix->isCost() || !first.a)
        return false;
    for (const RaceProblem &p : problems) {
        if (p.kind != ProblemKind::PairwiseAlignment &&
            p.kind != ProblemKind::ThresholdScreen)
            return false;
        if (!(*p.a == *first.a) || *p.matrix != *first.matrix)
            return false;
    }
    return true;
}

} // namespace

void
RaceEngine::raceBatchGateLevel(
    const std::vector<RaceProblem> &problems,
    const std::vector<PlanPtr> &plans,
    std::vector<RaceResult> &results)
{
    // Group problems by plan (one synthesized fabric per grid shape)
    // and fill each fabric's 64 bit-parallel lanes.  Cancelled races
    // have nothing to replay.
    struct Chunk {
        const core::GridFabric *fabric;
        std::vector<GridLane> lanes;
    };
    std::vector<Chunk> chunks;
    std::unordered_map<const core::GridFabric *, size_t> open;
    for (size_t i = 0; i < problems.size(); ++i) {
        if (results[i].cancelled)
            continue;
        const core::GridFabric *fabric = &*plans[i]->fabric;
        auto found = open.find(fabric);
        if (found != open.end() &&
            chunks[found->second].lanes.size() < 64) {
            chunks[found->second].lanes.push_back(
                {&problems[i], &results[i]});
        } else {
            open[fabric] = chunks.size();
            chunks.push_back({fabric, {{&problems[i], &results[i]}}});
        }
    }

    // Each chunk simulates on a private CompiledSim over its plan's
    // shared compile and writes only its own results, so chunks race
    // on the pool.
    auto raceChunk = [&](size_t c) {
        replayGridLanes(*chunks[c].fabric, chunks[c].lanes, cfg);
    };
    if (batchWorkerCount() > 1 && chunks.size() > 1)
        threadPool().parallelFor(chunks.size(), raceChunk);
    else
        for (size_t c = 0; c < chunks.size(); ++c)
            raceChunk(c);
}

size_t
RaceEngine::batchWorkerCount() const
{
    return cfg.workerThreads == 0 ? util::ThreadPool::defaultThreadCount()
                                  : cfg.workerThreads;
}

util::ThreadPool &
RaceEngine::threadPool()
{
    std::call_once(poolOnce, [this] {
        pool = std::make_unique<util::ThreadPool>(batchWorkerCount());
    });
    return *pool;
}

BatchOutcome
RaceEngine::solveBatch(const std::vector<RaceProblem> &problems)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++statistics.batches;
    }
    const auto every = [&](bool (*kindOk)(ProblemKind)) {
        return std::all_of(problems.begin(), problems.end(),
                           [&](const RaceProblem &p) {
                               return kindOk(p.kind);
                           });
    };
    const bool several = problems.size() > 1;
    // GateLevel grid batches are replayed on the fabric in 64-wide
    // bit-parallel chunks -- worthwhile even on one thread.  (Graph
    // product fabrics are per-read, so they replay one read at a
    // time.)
    const bool lanePacked = several &&
                            cfg.backend == BackendKind::GateLevel &&
                            every(gridFamilyKind);
    const bool parallel =
        several && batchWorkerCount() > 1 && every(planFamilyKind) &&
        (cfg.backend == BackendKind::Behavioral || lanePacked);

    // Acquire every plan first, each counted as a solve, then race
    // every problem through solve()'s body.  The body is const and
    // each race writes only its own result, so the results are
    // bit-identical to a serial run regardless of the thread schedule.
    std::vector<PlanPtr> plans;
    plans.reserve(problems.size());
    for (const RaceProblem &problem : problems)
        plans.push_back(acquire(problem, /*solving=*/true));
    BatchOutcome outcome;
    outcome.results.resize(problems.size());
    auto raceOne = [&](size_t i) {
        outcome.results[i] =
            race(problems[i], plans[i].get(), /*replayGrid=*/!lanePacked);
    };
    if (parallel) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            ++statistics.parallelBatches;
        }
        threadPool().parallelFor(problems.size(), raceOne);
    } else {
        for (size_t i = 0; i < problems.size(); ++i)
            raceOne(i);
    }
    if (lanePacked)
        raceBatchGateLevel(problems, plans, outcome.results);

    if (screeningShaped(problems)) {
        // Model the deployment: dispatch the already-raced workload
        // onto the core::batch pool scheduler.  Feeding the
        // per-result busy cycles (each clamped by its own threshold)
        // avoids racing everything a second time and keeps the
        // schedule verdicts identical to the results by construction.
        core::BatchConfig pool;
        pool.fabricCount = cfg.fabricCount;
        std::vector<core::ScreenedComparison> runs;
        runs.reserve(outcome.results.size());
        for (const RaceResult &r : outcome.results)
            runs.push_back({r.accepted,
                            static_cast<uint64_t>(r.cyclesUsed)});
        outcome.schedule = core::scheduleBatch(pool, runs);
    }
    return outcome;
}

BatchOutcome
RaceEngine::screen(const bio::ScoreMatrix &costs, bio::Score threshold,
                   const bio::Sequence &query,
                   const std::vector<bio::Sequence> &database)
{
    std::vector<RaceProblem> problems;
    problems.reserve(database.size());
    for (const bio::Sequence &candidate : database)
        problems.push_back(RaceProblem::thresholdScreen(
            costs, threshold, query, candidate));
    return solveBatch(problems);
}

pangraph::GraphMapping
RaceEngine::graphMapping(const RaceProblem &problem,
                         const RaceResult &result)
{
    rl_assert(problem.kind == ProblemKind::GraphAlign,
              "graphMapping() reconstructs GraphAlign solves only");
    rl_assert(result.completed && !result.nodeArrival.empty(),
              "graphMapping() needs a completed race with arrival "
              "detail (accepted reads only)");
    // An auxiliary lookup, not a solve: a hit is neither counted nor
    // moved up the LRU, and if the plan was evicted (or caching is
    // off) it is rebuilt transparently -- plansBuilt then reports
    // that honestly.
    const PlanPtr plan = acquire(problem, /*solving=*/false);
    const pangraph::GraphAligner &aligner = *plan->graphAligner;
    return pangraph::mappingFromArrival(aligner.compiled(), *problem.a,
                                        aligner.costs(),
                                        result.nodeArrival);
}

BatchOutcome
RaceEngine::mapReads(std::shared_ptr<const pangraph::VariationGraph> graph,
                     const bio::ScoreMatrix &costs, bio::Score threshold,
                     const std::vector<bio::Sequence> &reads)
{
    std::vector<RaceProblem> problems;
    problems.reserve(reads.size());
    for (const bio::Sequence &read : reads)
        problems.push_back(
            RaceProblem::graphAlign(costs, read, graph, threshold));
    return solveBatch(problems);
}

} // namespace racelogic::api
