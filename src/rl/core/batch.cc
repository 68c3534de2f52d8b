#include "rl/core/batch.h"

#include <algorithm>
#include <queue>

#include "rl/util/logging.h"

namespace racelogic::core {

BatchReport
scheduleBatch(const BatchConfig &config,
              const std::vector<ScreenedComparison> &runs)
{
    rl_assert(config.fabricCount >= 1, "pool needs at least one fabric");

    BatchReport report;
    report.comparisons = runs.size();
    report.accepted.reserve(runs.size());

    // Greedy list scheduling: each comparison goes to the fabric
    // that frees up first (min-heap of fabric-free times).
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<>>
        free_at;
    for (size_t f = 0; f < config.fabricCount; ++f)
        free_at.push(0);

    for (const ScreenedComparison &run : runs) {
        report.accepted.push_back(run.accepted);
        report.acceptedCount += run.accepted;

        uint64_t cycles = run.cyclesUsed + config.resetCycles;
        report.busyCycles += cycles;

        uint64_t start = free_at.top();
        free_at.pop();
        uint64_t done = start + cycles;
        free_at.push(done);
        report.makespanCycles = std::max(report.makespanCycles, done);
    }

    // Drain: the makespan is the largest completion time (already
    // tracked); utilization relates busy time to pool-time.
    if (report.makespanCycles > 0)
        report.utilization =
            static_cast<double>(report.busyCycles) /
            (static_cast<double>(config.fabricCount) *
             static_cast<double>(report.makespanCycles));
    return report;
}

} // namespace racelogic::core
