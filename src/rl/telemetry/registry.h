/**
 * @file
 * telemetry::Registry -- named counters, gauges, and log2 latency
 * histograms for the serving stack.
 *
 * Design constraints, in order:
 *
 *  1. The hot path is wait-free: recording is one relaxed
 *     fetch_add on an atomic cell, no locks, no allocation.  The
 *     registry mutex is taken only to *register* a metric (startup)
 *     and to *snapshot* (scrape time).
 *  2. Writers never contend: counters and histograms are sharded
 *     into cache-line-padded lanes; each serving thread records into
 *     its own lane and the lanes are summed at snapshot time.
 *  3. Handles are stable: metrics live in deques owned by the
 *     registry, so a `Counter *` captured at startup stays valid for
 *     the registry's lifetime and can be used lock-free forever.
 *
 * Histograms use fixed log2 boundaries: bucket 0 holds the value 0,
 * bucket i (i >= 1) holds values in [2^(i-1), 2^i), and the last
 * bucket is open-ended.  Exact-power-of-two boundaries make the
 * bucket index one `bit_width` instruction and give every percentile
 * estimate a guaranteed error bound: the true value lies inside the
 * reported bucket, so the estimate is off by at most 2x.  Units are
 * whatever the caller records -- the serve daemon records
 * microseconds.
 *
 * Name collisions are rejected with a typed rl::Status
 * (InvalidArgument), never a fatal: registration is driven by
 * configuration-adjacent code and must not crash a daemon.
 */

#ifndef RACELOGIC_TELEMETRY_REGISTRY_H
#define RACELOGIC_TELEMETRY_REGISTRY_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rl/util/status.h"

namespace racelogic::telemetry {

/** Log2 histogram resolution: bucket 39 is open-ended (>= 2^38). */
inline constexpr size_t kHistogramBuckets = 40;

/** Writer lanes per metric (power of two; lane index is masked). */
inline constexpr size_t kMetricLanes = 8;

/** The log2 bucket holding `value`: 0 -> 0, else bit_width clamped. */
inline size_t
histogramBucket(uint64_t value)
{
    if (value == 0)
        return 0;
    const size_t width = static_cast<size_t>(std::bit_width(value));
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

/** Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...). */
inline uint64_t
histogramBucketLower(size_t i)
{
    return i == 0 ? 0 : uint64_t(1) << (i - 1);
}

/**
 * Inclusive upper bound of bucket `i`; the last bucket reports
 * 2 * lower so percentile interpolation stays finite.
 */
inline uint64_t
histogramBucketUpper(size_t i)
{
    if (i == 0)
        return 0;
    if (i >= kHistogramBuckets - 1)
        return uint64_t(1) << i; // open-ended: pretend one more octave
    return (uint64_t(1) << i) - 1;
}

/**
 * A monotonically increasing counter, sharded into padded lanes so
 * concurrent writers (connection threads vs. pool workers) never
 * share a cache line.  add() is wait-free; total() is a scrape-time
 * sum.
 */
class Counter
{
  public:
    void
    add(uint64_t n = 1, size_t lane = 0)
    {
        cells[lane & (kMetricLanes - 1)].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    uint64_t
    total() const
    {
        uint64_t sum = 0;
        for (const Cell &cell : cells)
            sum += cell.v.load(std::memory_order_relaxed);
        return sum;
    }

  private:
    struct alignas(64) Cell {
        std::atomic<uint64_t> v{0};
    };
    std::array<Cell, kMetricLanes> cells;
};

/**
 * A point-in-time signed value.  set()/add()/max() are wait-free
 * (max() is a relaxed CAS loop -- lock-free, and contention-free in
 * practice because high-water marks rarely move).
 */
class Gauge
{
  public:
    void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

    void
    add(int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Raise the gauge to `v` if it is below (a high-water mark). */
    void
    max(int64_t v)
    {
        int64_t seen = value_.load(std::memory_order_relaxed);
        while (seen < v && !value_.compare_exchange_weak(
                               seen, v, std::memory_order_relaxed))
            ;
    }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> value_{0};
};

/**
 * Fixed-boundary log2 histogram, lane-sharded like Counter: each
 * writer lane owns a full bucket array plus a sum cell, so record()
 * is two relaxed fetch_adds on lines no other lane touches.
 */
class Histogram
{
  public:
    void
    record(uint64_t value, size_t lane = 0)
    {
        Lane &l = lanes[lane & (kMetricLanes - 1)];
        l.buckets[histogramBucket(value)].fetch_add(
            1, std::memory_order_relaxed);
        l.sum.fetch_add(value, std::memory_order_relaxed);
    }

    /** Total recordings across all lanes (scrape-time sum). */
    uint64_t count() const;

    /** Sum of recorded values across all lanes. */
    uint64_t sum() const;

  private:
    friend class Registry;
    friend struct HistogramSnapshot;

    struct alignas(64) Lane {
        std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
        std::atomic<uint64_t> sum{0};
    };
    std::array<Lane, kMetricLanes> lanes;
};

/** One counter (or gauge rendered as a value) in a snapshot. */
struct CounterSnapshot {
    std::string name;
    uint64_t value = 0;
};

struct GaugeSnapshot {
    std::string name;
    int64_t value = 0;
};

/** One histogram in a snapshot: per-bucket counts plus aggregates. */
struct HistogramSnapshot {
    std::string name;
    std::vector<uint64_t> buckets; ///< kHistogramBuckets long (local);
                                   ///< wire decode may carry fewer
    uint64_t count = 0;            ///< sum of buckets
    uint64_t sum = 0;              ///< sum of recorded values

    /**
     * Estimated value at percentile `p` in (0, 100], by linear
     * interpolation inside the bucket containing the target rank.
     * The true value lies within that bucket, so the estimate is off
     * by at most the bucket width (a factor of 2).  0 when empty.
     */
    double percentile(double p) const;
};

/**
 * A coherent point-in-time view of every registered metric, taken
 * under the registry mutex.  Counters are monotone, so two
 * snapshots bracket the truth; histogram `count` always equals the
 * bucket sum because both are derived from the same lane reads.
 */
struct Snapshot {
    std::vector<CounterSnapshot> counters;
    std::vector<GaugeSnapshot> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** Find by name; nullptr when absent. */
    const CounterSnapshot *counter(std::string_view name) const;
    const GaugeSnapshot *gauge(std::string_view name) const;
    const HistogramSnapshot *histogram(std::string_view name) const;

    /**
     * Prometheus-text-style exposition: `# TYPE` comments, counter
     * and gauge sample lines, histograms as cumulative
     * `_bucket{le="..."}` series plus `_sum` / `_count`.
     */
    std::string renderPrometheus() const;
};

/**
 * The metric registry: owns every metric, hands out stable handles.
 *
 * Registration (addCounter / addGauge / addHistogram) takes the
 * mutex and rejects duplicate or malformed names with a typed
 * rl::Status; recording through the returned handles never takes it.
 * snapshot() takes the mutex once, reads every lane, and returns a
 * self-contained value.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Expected<Counter *> addCounter(std::string name);
    Expected<Gauge *> addGauge(std::string name);
    Expected<Histogram *> addHistogram(std::string name);

    /** Metrics registered so far (all three kinds). */
    size_t size() const;

    Snapshot snapshot() const;

  private:
    /** nullptr-message Ok, or why `name` cannot be registered. */
    Status checkName(const std::string &name) const;

    mutable std::mutex mutex;
    std::deque<std::pair<std::string, Counter>> counters;
    std::deque<std::pair<std::string, Gauge>> gauges;
    std::deque<std::pair<std::string, Histogram>> histograms;
};

} // namespace racelogic::telemetry

#endif // RACELOGIC_TELEMETRY_REGISTRY_H
