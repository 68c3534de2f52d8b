#include "load.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

/** A reply slower than this is counted as a timeout. */
constexpr int64_t kReplyTimeoutMs = 30000;

} // namespace

bool
submitItem(rl::serve::ServeClient &client, const Workload &w,
           uint64_t position, uint32_t id)
{
    const Item &item = w.items[position % w.items.size()];
    switch (w.kind) {
    case Kind::PairwiseFull:
        return client.submitPairwise(id, w.costs, item.a, item.b);
    case Kind::ScreenShort:
        return client.submitScreen(id, w.costs, w.threshold, item.a, item.b);
    case Kind::GraphMap:
        return client.submitGraphAlign(id, item.a, rl::bio::kScoreInfinity);
    }
    return false;
}

bool
replyMatches(const Workload &w, const Item &item,
             const rl::serve::Response &reply)
{
    if (!reply.solve)
        return false;
    const rl::serve::SolveReply &s = *reply.solve;
    if (s.accepted != w.passes(item))
        return false;
    // A screen that aborted at its horizon has no score to compare.
    return !s.accepted || (s.completed && s.score == item.expected);
}

LoadOutcome
runClosedLoop(rl::serve::ServeClient &client, const Workload &w,
              Stream &stream, size_t window, double seconds,
              uint64_t maxRequests, const Daemon *daemon)
{
    struct Pending {
        uint64_t position;
        Clock::time_point submitted;
    };
    std::unordered_map<uint32_t, Pending> pending;
    LoadOutcome out;
    const Clock::time_point begin = Clock::now();
    const auto stopAt =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    Clock::time_point lastReply = begin;

    // Window boundaries: the first reply at or after each whole second
    // of the timed part closes a window.
    Clock::time_point markAt = begin;
    uint64_t markOk = 0;
    double markCpu = daemon ? daemon->cpuSeconds() : 0.0;
    size_t windows = 0;
    auto nextMark = [&]() {
        return begin + std::chrono::seconds(windows + 1);
    };

    for (;;) {
        while (pending.size() < window && out.sent < maxRequests &&
               Clock::now() < stopAt) {
            const uint32_t id = stream.nextId++;
            const Clock::time_point now = Clock::now();
            if (!submitItem(client, w, stream.position, id)) {
                std::fprintf(stderr, "perfbench: send failed\n");
                out.failed += pending.size() + 1;
                ++out.sent;
                return out;
            }
            pending.emplace(id, Pending{stream.position++, now});
            ++out.sent;
        }
        if (pending.empty())
            break;

        rl::serve::Response reply;
        const rl::serve::IoStatus got = client.receive(
            reply, rl::serve::deadlineAfterMs(kReplyTimeoutMs));
        if (got != rl::serve::IoStatus::Ok) {
            std::fprintf(stderr, "perfbench: daemon %s with %zu pending\n",
                         got == rl::serve::IoStatus::Timeout
                             ? "timed out"
                             : "disconnected",
                         pending.size());
            out.failed += pending.size();
            break;
        }
        lastReply = Clock::now();
        auto it = pending.find(reply.id);
        if (it == pending.end()) {
            std::fprintf(stderr, "perfbench: unsolicited reply id %u\n",
                         reply.id);
            ++out.mismatches;
            continue;
        }
        out.latencyUs.push_back(
            std::chrono::duration<double, std::micro>(lastReply -
                                                      it->second.submitted)
                .count());
        const Item &item = w.items[it->second.position % w.items.size()];
        pending.erase(it);
        if (reply.status != rl::serve::Status::Ok) {
            ++out.failed;
        } else if (!replyMatches(w, item, reply)) {
            std::fprintf(stderr,
                         "perfbench: oracle mismatch on id %u: daemon "
                         "score %lld accepted %d, oracle %lld\n",
                         reply.id,
                         static_cast<long long>(
                             reply.solve ? reply.solve->score : -1),
                         reply.solve ? int(reply.solve->accepted) : -1,
                         static_cast<long long>(item.expected));
            ++out.mismatches;
        } else {
            ++out.ok;
        }
        if (lastReply >= nextMark() && nextMark() <= stopAt) {
            const double cpu = daemon ? daemon->cpuSeconds() : 0.0;
            const double sec =
                std::chrono::duration<double>(lastReply - markAt).count();
            const double ok = static_cast<double>(out.ok - markOk);
            out.windowOkPerSec.push_back(ok / sec);
            if (daemon && ok > 0)
                out.windowCpuUsPerOk.push_back((cpu - markCpu) * 1e6 / ok);
            markAt = lastReply;
            markOk = out.ok;
            markCpu = cpu;
            ++windows;
        }
    }
    out.elapsedSec = std::chrono::duration<double>(lastReply - begin).count();
    return out;
}

} // namespace perfbench
