#include "rl/serve/fault.h"

#include <chrono>
#include <thread>

#include <sys/socket.h>

namespace racelogic::serve {

namespace {

std::atomic<FaultInjector *> globalInjector{nullptr};

} // namespace

FaultInjector::FaultInjector(const FaultConfig &config)
    : cfg(config), rng(config.seed)
{
}

FaultInjector::FdState &
FaultInjector::touch(int fd)
{
    auto [it, fresh] = perFd.try_emplace(fd);
    if (fresh && cfg.dropProbability > 0.0) {
        std::bernoulli_distribution doomed(cfg.dropProbability);
        if (doomed(rng)) {
            std::uniform_int_distribution<uint64_t> offset(
                cfg.dropMinBytes, cfg.dropMaxBytes);
            it->second.dropAt = offset(rng);
        }
    }
    return it->second;
}

FaultAction
FaultInjector::beforeIo(int fd, size_t want, bool isWrite)
{
    uint32_t delayMicros = 0;
    FaultAction action;
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++(isWrite ? counters.sends : counters.recvs);
        FdState &state = touch(fd);

        if (state.bytes >= state.dropAt) {
            if (!state.severed) {
                state.severed = true;
                ++counters.drops;
                ::shutdown(fd, SHUT_RDWR);
            }
            action.dropped = true;
            return action;
        }

        if (cfg.delayProbability > 0.0 && cfg.delayMaxMicros > 0) {
            std::bernoulli_distribution hit(cfg.delayProbability);
            if (hit(rng)) {
                std::uniform_int_distribution<uint32_t> dist(
                    1, cfg.delayMaxMicros);
                delayMicros = dist(rng);
                ++counters.delays;
            }
        }

        if (cfg.shortIoProbability > 0.0 && want > 1) {
            std::bernoulli_distribution hit(cfg.shortIoProbability);
            if (hit(rng)) {
                std::uniform_int_distribution<size_t> dist(1, 8);
                action.chunkCap = dist(rng);
                ++counters.shortIos;
            }
        }

        // Never let a single transfer overshoot the drop offset: the
        // severing must land at the drawn byte, not somewhere past it.
        if (state.dropAt != UINT64_MAX) {
            const uint64_t left = state.dropAt - state.bytes;
            if (action.chunkCap == 0 || action.chunkCap > left)
                action.chunkCap = static_cast<size_t>(
                    left < want ? left : static_cast<uint64_t>(want));
            if (action.chunkCap == 0) // dropAt == bytes handled above
                action.chunkCap = 1;
        }
    }
    if (delayMicros > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(delayMicros));
    return action;
}

void
FaultInjector::afterIo(int fd, size_t transferred)
{
    std::lock_guard<std::mutex> lock(mutex);
    touch(fd).bytes += transferred;
}

void
FaultInjector::beforePoll()
{
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.polls;
}

void
FaultInjector::forgetFd(int fd)
{
    std::lock_guard<std::mutex> lock(mutex);
    perFd.erase(fd);
}

FaultInjector::Stats
FaultInjector::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

void
FaultInjector::install(FaultInjector *injector) noexcept
{
    globalInjector.store(injector, std::memory_order_release);
}

FaultInjector *
FaultInjector::installed() noexcept
{
    return globalInjector.load(std::memory_order_relaxed);
}

} // namespace racelogic::serve
