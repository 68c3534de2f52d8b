/**
 * @file
 * Deterministic fault injection for the serve socket layer.
 *
 * A FaultInjector, once installed, sits underneath the socket helpers
 * in rl/serve/socket.h: every recv/send of readExact, writeAll and
 * RecvBuffer consults it
 * and may be capped to a short transfer, delayed, or severed outright
 * (the fd is shutdown() at a per-connection byte offset drawn from
 * the injector's seeded generator).  All randomness comes from one
 * mt19937_64 seeded by FaultConfig::seed, so a chaos schedule replays
 * bit-identically: same seed, same faults.
 *
 * The injector also counts every recv, send and poll the helpers
 * make, so a test can pin a syscall budget with a schedule whose
 * probabilities are all zero.
 *
 * The injector is for tests and tools ONLY.  Production servers never
 * install one; when none is installed the socket helpers pay a single
 * relaxed atomic load per syscall.  Install/uninstall must not race
 * in-flight I/O -- install before spinning up traffic, uninstall
 * after joining it.
 */

#ifndef RACELOGIC_SERVE_FAULT_H
#define RACELOGIC_SERVE_FAULT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <random>
#include <unordered_map>

namespace racelogic::serve {

/** Knobs for one deterministic fault schedule. */
struct FaultConfig {
    /** Seeds every draw the injector makes. */
    uint64_t seed = 1;

    /**
     * Probability that one syscall is capped to a 1..8 byte transfer
     * (exercises the reassembly loops in readExact/writeAll).
     */
    double shortIoProbability = 0.0;

    /** Probability that one syscall is preceded by an injected delay. */
    double delayProbability = 0.0;

    /** Upper bound on the injected delay (microseconds). */
    uint32_t delayMaxMicros = 0;

    /**
     * Probability, drawn once per fd at first touch, that the
     * connection is severed (shutdown(SHUT_RDWR)) once its cumulative
     * byte count reaches an offset drawn from
     * [dropMinBytes, dropMaxBytes].
     */
    double dropProbability = 0.0;
    uint64_t dropMinBytes = 0;
    uint64_t dropMaxBytes = 4096;
};

/** What the socket helper must do for the syscall it is about to make. */
struct FaultAction {
    /** Cap the transfer to this many bytes (0 = no cap). */
    size_t chunkCap = 0;

    /**
     * The fd is severed: the socket helpers return
     * IoStatus::Disconnected without the syscall, so a reader stops at
     * the drawn byte even where shutdown() leaves queued bytes
     * readable (Unix sockets).
     */
    bool dropped = false;
};

class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Consulted by the socket helpers before each recv/send of up to
     * `want` bytes on `fd`.  May sleep (injected delay) and may sever
     * the fd.  Thread-safe.
     */
    FaultAction beforeIo(int fd, size_t want, bool isWrite);

    /** Byte accounting after a successful transfer. */
    void afterIo(int fd, size_t transferred);

    /** Counted by the socket helpers before each poll() they make. */
    void beforePoll();

    /**
     * Drop per-fd state when a descriptor is closed, so a recycled fd
     * number starts a fresh byte count (ScopedFd calls this).
     */
    void forgetFd(int fd);

    /** Injection counters, for asserting a schedule actually bit,
     *  and the syscalls the socket helpers made while installed. */
    struct Stats {
        uint64_t shortIos = 0;
        uint64_t delays = 0;
        uint64_t drops = 0;
        uint64_t recvs = 0; ///< recv() calls (beforeIo, reads)
        uint64_t sends = 0; ///< send() calls (beforeIo, writes)
        uint64_t polls = 0; ///< poll() calls (beforePoll)
    };
    Stats stats() const;

    /**
     * Install (or, with nullptr, uninstall) the process-global
     * injector the socket helpers consult.  The caller keeps the
     * injector alive until after uninstalling it and joining all
     * threads doing I/O.
     */
    static void install(FaultInjector *injector) noexcept;

    /** The currently installed injector (nullptr when inert). */
    static FaultInjector *installed() noexcept;

  private:
    struct FdState {
        uint64_t bytes = 0;
        uint64_t dropAt = UINT64_MAX; ///< UINT64_MAX: never sever
        bool severed = false;
    };

    FdState &touch(int fd);

    mutable std::mutex mutex;
    FaultConfig cfg;
    std::mt19937_64 rng;
    std::unordered_map<int, FdState> perFd;
    Stats counters;
};

} // namespace racelogic::serve

#endif // RACELOGIC_SERVE_FAULT_H
