/**
 * @file
 * The closed-loop load phase: one connection keeps a fixed number of
 * requests outstanding, and every reply is checked against the oracle.
 */

#ifndef PERFBENCH_LOAD_H
#define PERFBENCH_LOAD_H

#include <cstdint>
#include <vector>

#include "daemon.h"
#include "rl/serve/client.h"
#include "workload.h"

namespace perfbench {

/** Requests kept outstanding on the one connection. */
constexpr size_t kWindow = 8;

/** Where the next request of the stream starts. */
struct Stream {
    uint64_t position = 0; ///< request i sends items[i % size]
    uint32_t nextId = 1;   ///< wire request id
};

struct LoadOutcome {
    uint64_t sent = 0;
    uint64_t ok = 0;         ///< Ok replies that matched the oracle
    uint64_t failed = 0;     ///< typed rejections, timeouts, disconnects
    uint64_t mismatches = 0; ///< Ok replies that disagreed with the oracle
    std::vector<double> latencyUs; ///< submit to reply, every reply
    double elapsedSec = 0.0;       ///< first submit to last reply

    /** Whole one-second windows of the timed part (the drain excluded). */
    std::vector<double> windowOkPerSec;
    std::vector<double> windowCpuUsPerOk; ///< daemon CPU; with a daemon
};

/** Submit stream request `position` under wire id `id`. */
bool submitItem(rl::serve::ServeClient &client, const Workload &w,
                uint64_t position, uint32_t id);

/** True iff an Ok reply agrees with the oracle for `item`. */
bool replyMatches(const Workload &w, const Item &item,
                  const rl::serve::Response &reply);

/**
 * Run a closed loop of `window` outstanding requests until `seconds`
 * pass or `maxRequests` have been sent, then wait for every reply.
 * With `daemon`, each one-second window also records the daemon's CPU
 * time per Ok reply.
 */
LoadOutcome runClosedLoop(rl::serve::ServeClient &client, const Workload &w,
                          Stream &stream, size_t window, double seconds,
                          uint64_t maxRequests,
                          const Daemon *daemon = nullptr);

} // namespace perfbench

#endif // PERFBENCH_LOAD_H
