/**
 * @file
 * RaceEngine: the library's one front door.
 *
 *   Problem -> Plan -> Engine -> Result
 *
 * Describe any supported dynamic program as a RaceProblem, pick a
 * backend and technology in EngineConfig, and solve():
 *
 *   api::RaceEngine engine;
 *   auto result = engine.solve(api::RaceProblem::pairwiseAlignment(
 *       bio::ScoreMatrix::dnaShortestPathInfMismatch(), q, p));
 *   // result.score, result.latencyCycles, result.arrivalTable(), ...
 *
 * Planning is the expensive part of a race -- converting a similarity
 * matrix (Section 5) and, on the gate-level backend, synthesizing a
 * fabric netlist for the problem's grid size.  The engine keeps one
 * LRU cache of immutable plans shared by every calling thread:
 * repeated queries over one matrix (the database-screening workload
 * of Section 6) skip synthesis entirely, exactly as deployed hardware
 * would reuse its fabric with new strings on the primary inputs.
 *
 * solveBatch() additionally dispatches screening-shaped batches onto
 * the core::batch fabric pool, reporting makespan and utilization of
 * a multi-fabric deployment.
 */

#ifndef RACELOGIC_API_ENGINE_H
#define RACELOGIC_API_ENGINE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rl/api/config.h"
#include "rl/api/problem.h"
#include "rl/api/result.h"
#include "rl/core/batch.h"
#include "rl/pangraph/mapping.h"
#include "rl/util/status.h"
#include "rl/util/thread_pool.h"

namespace racelogic::pangraph {
class GraphAligner;
} // namespace racelogic::pangraph

namespace racelogic::api {

/**
 * Counters exposed for tests, benches, and capacity planning.
 *
 * RaceEngine::stats() returns a copy taken under the engine mutex,
 * which every count below but inhibitMisses is made under, so a
 * metrics reader on another thread (the serve daemon's Stats endpoint)
 * always sees a coherent snapshot.  A solve is counted where its plan is found: a
 * hit with its solve under the plan lookup's lock, a build with its
 * solve under the insert's.  Every plan-family solve (grid family,
 * GraphAlign) counts exactly one of plansBuilt or planCacheHits; a
 * plan graphMapping() rebuilds counts in plansBuilt alone.
 */
struct EngineStats {
    uint64_t solves = 0;        ///< problems solved
    uint64_t plansBuilt = 0;    ///< plans synthesized (cache misses)
    uint64_t planCacheHits = 0; ///< solves that reused a cached plan
    uint64_t batches = 0;       ///< solveBatch calls
    uint64_t parallelBatches = 0; ///< batches raced on the thread pool

    /** Inhibited GraphAlign attempts that missed (their horizon was
     *  below the read's distance) and were raced again
     *  (pangraph::GraphAligner::alignUnbounded()).  Counted after the
     *  race, outside the engine mutex; a solve still counts once. */
    uint64_t inhibitMisses = 0;
};

/** Outcome of one solveBatch call. */
struct BatchOutcome {
    /** Per-problem results, in input order. */
    std::vector<RaceResult> results;

    /**
     * Fabric-pool schedule (makespan, utilization, wall time) from
     * the core::batch dispatcher, fed with the per-result busy
     * cycles.  Present when the batch was screening-shaped: every
     * problem a pairwise alignment or threshold screen over one
     * shared cost matrix and query.
     */
    std::optional<core::BatchReport> schedule;

    /** Problems whose result passed the threshold (or all, if none). */
    size_t acceptedCount() const;

    /** Total fabric-busy cycles (threshold-clamped, Section 6). */
    uint64_t busyCycles() const;

    /**
     * Total cycles had every race run to completion.  Requires
     * EngineConfig::earlyTerminate = false (measurement mode): with
     * early termination on, an aborted race stops at its threshold
     * cycle and the remainder of its full-race latency is unknown --
     * which is the whole point of Section 6 -- so this degenerates to
     * busyCycles().
     */
    uint64_t fullRaceCycles() const;

    /** Early-termination gain: fullRaceCycles / busyCycles. */
    double speedup() const;
};

/**
 * The unified engine over every race-logic workload.
 *
 * Thread-safe: any number of threads may call any member at once.
 * One mutex guards the plan cache and the statistics, and it is never
 * held across a plan build or a race.  Plans are immutable once built
 * (shared_ptr<const Plan>), so a hit is a lookup plus a refcount bump
 * and every race runs on caller-local state: a GateLevel solve
 * simulates on a private CompiledSim over the plan's shared compile.
 * A miss builds outside the lock and inserts if the key is still
 * absent, so threads racing on one cold key build it at most once
 * each.
 */
class RaceEngine
{
  public:
    explicit RaceEngine(EngineConfig config = EngineConfig{});
    ~RaceEngine();

    RaceEngine(const RaceEngine &) = delete;
    RaceEngine &operator=(const RaceEngine &) = delete;

    /** Solve one problem on the configured backend. */
    RaceResult solve(const RaceProblem &problem);

    /**
     * Would solve(problem) succeed?  The check pass (api/validate.h),
     * each check once: shape, backend compatibility, resource budgets
     * (EngineConfig::maxProductStates plus the kernels' hard id-space
     * bounds), runtime inputs, then -- unless a cached plan exactly
     * matches the problem, whose build vetted it -- checkDeep() and,
     * on Systolic, the array's matrix family.  Read-only: the cache,
     * its LRU order and the statistics are left as they were.
     */
    Status validate(const RaceProblem &problem) const;

    /**
     * Fallible solve for untrusted problems: validate()'s check pass,
     * whose plan lookup also counts and supplies a hit, then a build
     * on a miss and the race.  A problem this rejects would have
     * tripped an input-facing rl_fatal/rl_assert inside solve(); the
     * serve layer's one entry point.
     */
    Expected<RaceResult> trySolve(const RaceProblem &problem);

    /**
     * Solve a batch of problems, reusing cached plans across them:
     * each problem's plan comes from solve()'s lookup and its race
     * from solve()'s per-problem body.
     *
     * On the Behavioral backend, grid-family batches (pairwise /
     * generalized alignment, threshold screens) and graph-align
     * batches (reads against cached pangenome plans) are raced in
     * parallel on the engine's util::ThreadPool
     * (EngineConfig::workerThreads); results come back in input
     * order, bit-identical to a serial run, and concurrent batches on
     * one engine take turns on the pool.  Screening-shaped
     * batches are additionally dispatched onto the core::batch
     * fabric pool (fabricCount from the config; each
     * comparison busy for its threshold-clamped cyclesUsed) to model
     * a multi-fabric deployment.
     *
     * On the GateLevel backend, grid-family batches are raced
     * behaviorally the same way and then replayed on the synthesized
     * fabric in 64-wide bit-parallel chunks: each cached fabric's
     * compiled netlist hosts up to 64 comparisons per simulation
     * word (lanes grouped per shape, chunks spread across the thread
     * pool), every lane cross-checked against its behavioral result.
     * Estimates on this path price the measured chunk activity:
     * energyJ is the lock-step word's Eq. 3 energy averaged per lane
     * (see docs/api.md).
     */
    BatchOutcome solveBatch(const std::vector<RaceProblem> &problems);

    /**
     * Convenience: screen `database` against `query` over race-ready
     * `costs` with the Section 6 early-termination `threshold`.
     */
    BatchOutcome screen(const bio::ScoreMatrix &costs,
                        bio::Score threshold, const bio::Sequence &query,
                        const std::vector<bio::Sequence> &database);

    /**
     * Convenience: map `reads` against one pangenome over race-ready
     * `costs`.  A finite `threshold` aborts each race at that cycle
     * (Section 6 read-mapping screen); all reads share one cached
     * graph plan and, on the Behavioral backend, race in parallel on
     * the thread pool with results bit-identical to a serial run.
     */
    BatchOutcome mapReads(
        std::shared_ptr<const pangraph::VariationGraph> graph,
        const bio::ScoreMatrix &costs, bio::Score threshold,
        const std::vector<bio::Sequence> &reads);

    /**
     * Reconstruct the (walk, CIGAR) mapping of a completed
     * GraphAlign solve from the arrival times already raced -- no
     * re-race; the traceback walks the cached plan's compiled view
     * (rebuilt transparently if the plan was evicted or caching is
     * disabled, and then counted in plansBuilt).  A hit is neither
     * counted nor moved up the LRU.
     * `problem` must be the GraphAlign problem that produced
     * `result` (accepted, so its sink fired).
     */
    pangraph::GraphMapping graphMapping(const RaceProblem &problem,
                                        const RaceResult &result);

    const EngineConfig &config() const { return cfg; }

    /** Coherent snapshot of the counters (see EngineStats). */
    EngineStats stats() const;

    /** Plans currently held in the cache. */
    size_t planCacheSize() const;

    /**
     * Approximate resident heap bytes of the cached plans, maintained
     * on every insert and evict -- the serve layer's memory budget
     * reads it.
     */
    size_t planCacheBytes() const;

    /**
     * Evict the least-recently-used plan; returns approximate bytes
     * freed (0 when the cache is empty).  The serve layer's brownout
     * reclaim calls this until back under its low watermark.  A
     * solve already racing on the evicted plan keeps it alive.
     */
    size_t evictLruPlan();

    /**
     * Evict every graph-keyed (GraphAlign) plan; returns approximate
     * bytes freed.  A hot graph reload makes the old graph's plans
     * permanently unreachable (the new fingerprint never matches
     * their keys), so the reload path drops them eagerly instead of
     * waiting for LRU churn -- grid-family plans are untouched.
     */
    size_t evictGraphPlans();

    /** Drop every cached plan (statistics are preserved). */
    void clearPlanCache();

  private:
    struct Plan;
    using PlanPtr = std::shared_ptr<const Plan>;

    /**
     * A plan's cache identity.  Strings, reads and thresholds are
     * runtime inputs, so the key holds only what the planned hardware
     * bakes in: the kind, the matrix (letters and weights) and lambda,
     * the grid size of a GateLevel fabric (the only sized plan), and
     * the pangenome of a GraphAlign plan.  Fingerprints may collide;
     * lookup() confirms every hit exactly against the cached plan.
     */
    struct PlanKey {
        ProblemKind kind = ProblemKind::PairwiseAlignment;
        uint64_t matrix = 0; ///< bio::ScoreMatrix::fingerprint()
        bio::Score lambda = 1;
        size_t rows = 0; ///< GateLevel grids only
        size_t cols = 0; ///< GateLevel grids only
        uint64_t graph = 0; ///< GraphAlign: VariationGraph::fingerprint()

        bool operator==(const PlanKey &) const = default;
    };

    struct PlanKeyHash {
        size_t operator()(const PlanKey &key) const;
    };

    /** The key of a grid-family or GraphAlign problem; empty for
     *  other kinds and when caching is disabled. */
    std::optional<PlanKey> planKey(const RaceProblem &problem) const;

    /**
     * The one plan lookup.  Under the one lock it takes, it finds
     * `problem`'s key and confirms the cached plan is exactly the
     * problem's: an equal matrix, and the same graph object or one of
     * the same topology.  For a solve (`solving`) it then moves the
     * plan to the LRU front and counts the solve and the hit; for
     * validate() and graphMapping() it only reads.  Null on a miss,
     * which it does not count.  Precondition: checkShape().
     */
    PlanPtr lookup(const RaceProblem &problem, bool solving) const;

    /**
     * A miss: build `problem`'s plan outside the lock, then, under
     * it, cache the plan if its key is still absent and count it in
     * plansBuilt (and the solve, when `solving`).  A kind without a
     * plan gets null, and only its solve is counted.
     */
    PlanPtr build(const RaceProblem &problem, bool solving);

    /** lookup(), else build(). */
    PlanPtr acquire(const RaceProblem &problem, bool solving);

    /**
     * The check pass of validate() and trySolve() (see validate()):
     * the hit the lookup found, null on a miss that passed the deep
     * checks.
     */
    Expected<PlanPtr> check(const RaceProblem &problem,
                            bool solving) const;

    /**
     * The one per-problem body, behind solve(), trySolve() and
     * solveBatch(): race `problem` on `plan` (null for kinds without
     * one).  const and allocation-local, so the batch thread pool runs
     * it concurrently.  `replayGrid` false leaves a GateLevel grid
     * race's fabric replay to solveBatch()'s 64-lane chunks.
     */
    RaceResult race(const RaceProblem &problem, const Plan *plan,
                    bool replayGrid = true) const;

    PlanPtr buildPlan(const RaceProblem &problem) const;

    /** Drop the least-recently-used plan; `mutex` must be held. */
    size_t evictLruLocked();

    RaceResult solveGridFamily(const RaceProblem &problem, const Plan &plan,
                               bool replayGrid) const;
    RaceResult solveDtw(const RaceProblem &problem) const;
    RaceResult solveDagPath(const RaceProblem &problem) const;
    RaceResult solveAffine(const RaceProblem &problem) const;
    RaceResult solveGraphAlign(const RaceProblem &problem,
                               const Plan &plan) const;

    /** The Behavioral race of one grid-family problem on its plan: the
     *  reference the GateLevel replay is checked against. */
    RaceResult raceGridBehavioral(const RaceProblem &problem,
                                  const Plan &plan) const;

    /**
     * Replay an already-raced grid-family batch on the synthesized
     * fabrics, 64 lanes per chunk, cross-checking and (optionally)
     * pricing each result from the measured chunk activity.
     */
    void raceBatchGateLevel(
        const std::vector<RaceProblem> &problems,
        const std::vector<PlanPtr> &plans,
        std::vector<RaceResult> &results);

    /** Worker threads solveBatch may use (resolves the 0 default). */
    size_t batchWorkerCount() const;

    /** The lazily created batch pool (never on the serial path). */
    util::ThreadPool &threadPool();

    const EngineConfig cfg;

    std::once_flag poolOnce;
    std::unique_ptr<util::ThreadPool> pool;

    /**
     * The one engine mutex: guards the statistics, the cache's byte
     * count, and the LRU.  Held only for bookkeeping -- never across
     * a plan build or a race -- so no lock-order cycle can form.
     */
    mutable std::mutex mutex;

    /** mutable, like the LRU: lookup() is const (validate() reads
     *  through it) and counts a solve's hit where it finds it. */
    mutable EngineStats statistics;

    /** EngineStats::inhibitMisses, added by the const solve path after
     *  its race, without the mutex; stats() reads it. */
    mutable std::atomic<uint64_t> inhibitMisses{0};
    size_t cacheBytes = 0;

    /** LRU plan cache: most recently used at the front. */
    using LruEntry = std::pair<PlanKey, PlanPtr>;
    mutable std::list<LruEntry> lru;
    std::unordered_map<PlanKey, std::list<LruEntry>::iterator, PlanKeyHash>
        index;
};

} // namespace racelogic::api

#endif // RACELOGIC_API_ENGINE_H
