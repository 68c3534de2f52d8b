/**
 * @file
 * Thin POSIX socket helpers for the serve daemon and its clients.
 *
 * Everything here is deliberately boring: RAII fd ownership, listen/
 * connect over Unix-domain or TCP-loopback sockets, and exact-length
 * read/write loops that retry EINTR and report peer disconnects as a
 * clean false instead of a signal or an exception.  The wire protocol
 * (rl/serve/wire.h) sits entirely above this layer.
 *
 * Every transfer loop calls recv()/send() first and poll()s only when
 * the socket answers EAGAIN, so bytes that are already there cost one
 * syscall.  Each loop can carry an absolute deadline (IoDeadline): a
 * peer that stops sending or stops reading turns into a typed
 * IoStatus::Timeout instead of a thread pinned in recv()/send()
 * forever.  The deadline bounds waiting only -- bytes already
 * buffered still move after it has passed.  kNoDeadline recovers the
 * old blocking behaviour.  The loops also consult the process-global
 * serve::FaultInjector (rl/serve/fault.h) when one is installed --
 * tests and tools only; an uninstalled injector costs one relaxed
 * atomic load per syscall.
 */

#ifndef RACELOGIC_SERVE_SOCKET_H
#define RACELOGIC_SERVE_SOCKET_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace racelogic::serve {

/** Owns one file descriptor; closes it on destruction. */
class ScopedFd
{
  public:
    ScopedFd() = default;
    explicit ScopedFd(int fd) : fd_(fd) {}
    ~ScopedFd() { reset(); }

    ScopedFd(ScopedFd &&other) noexcept : fd_(other.release()) {}
    ScopedFd &
    operator=(ScopedFd &&other) noexcept
    {
        if (this != &other)
            reset(other.release());
        return *this;
    }

    ScopedFd(const ScopedFd &) = delete;
    ScopedFd &operator=(const ScopedFd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Give up ownership without closing. */
    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    /** Close the current fd (if any) and adopt a new one. */
    void reset(int fd = -1);

  private:
    int fd_ = -1;
};

/** @name Deadlines
 * I/O deadlines are absolute steady-clock instants, so one deadline
 * naturally spans a multi-syscall loop (and a multi-frame exchange)
 * without re-arming per call.
 * @{ */
using IoClock = std::chrono::steady_clock;
using IoDeadline = IoClock::time_point;

/** "Wait forever": the old blocking behaviour. */
inline constexpr IoDeadline kNoDeadline = IoDeadline::max();

/**
 * The instant `timeoutMs` milliseconds from now; negative means
 * kNoDeadline.
 */
IoDeadline deadlineAfterMs(int64_t timeoutMs);
/** @} */

/** Outcome of one exact-length transfer. */
enum class IoStatus : uint8_t {
    Ok,           ///< all n bytes moved
    Eof,          ///< orderly peer close mid-transfer (reads only)
    Timeout,      ///< the deadline expired first
    Error,        ///< hard socket error (ECONNRESET, EPIPE, ...)
    Disconnected, ///< an installed FaultInjector severed this fd
};

/** Human-readable IoStatus name ("ok", "eof", ...). */
const char *ioStatusName(IoStatus status);

/**
 * Bind + listen on a Unix-domain socket at `path`, unlinking any
 * stale socket file first.  Returns an invalid fd on failure (errno
 * preserved for the caller's error report).
 */
ScopedFd listenUnix(const std::string &path);

/**
 * Bind + listen on loopback TCP.  `port` 0 asks the kernel for an
 * ephemeral port; `boundPort` reports the actual port either way.
 */
ScopedFd listenTcp(uint16_t port, uint16_t &boundPort);

/**
 * Connect to a Unix-domain socket; invalid fd on failure.  The
 * connect itself is bounded by `timeoutMs` (negative: wait forever)
 * via a non-blocking connect + poll, so a dead or unresponsive
 * address fails with ETIMEDOUT instead of blocking the caller
 * indefinitely.  The returned fd is left non-blocking -- the
 * transfer loops below handle that transparently.
 */
ScopedFd connectUnix(const std::string &path, int64_t timeoutMs = -1);

/**
 * Connect to loopback TCP; same deadline semantics as connectUnix.
 * The socket has TCP_NODELAY set: a small frame written right after
 * another must not wait in Nagle's buffer for the peer's delayed ACK.
 */
ScopedFd connectTcp(uint16_t port, int64_t timeoutMs = -1);

/**
 * Accept one connection on `listenFd`; invalid fd on failure (errno
 * preserved).  A TCP connection gets TCP_NODELAY, as connectTcp's
 * side does, so batched replies leave at once.
 */
ScopedFd acceptConnection(int listenFd);

/** Put `fd` in non-blocking mode; false on fcntl failure. */
bool setNonBlocking(int fd);

/**
 * Read exactly `n` bytes, retrying EINTR and short reads.  Each pass
 * calls recv() first and poll()s only on EAGAIN, so `deadline` bounds
 * waiting for bytes, not reading bytes already buffered.  Works on
 * blocking and non-blocking fds alike.  A timeout may leave a partial
 * frame consumed -- the connection's framing is gone; callers must
 * close, not retry.
 */
IoStatus readExact(int fd, void *buffer, size_t n, IoDeadline deadline);

/**
 * Write all `n` bytes, retrying EINTR and short writes.  Each pass
 * calls send() first and poll()s only on EAGAIN (a full send buffer),
 * so `deadline` bounds waiting for room, not writing into room that
 * is already there.  SIGPIPE is suppressed (MSG_NOSIGNAL) so a
 * vanished peer is a status return, not a process-killing signal.  A
 * timeout may leave a partial frame sent; callers must close.
 */
IoStatus writeAll(int fd, const void *buffer, size_t n,
                  IoDeadline deadline);

/**
 * Read exactly `n` bytes with no deadline.  Returns false on EOF or
 * error -- for a framed protocol both simply mean "this conversation
 * is over".
 */
bool readExact(int fd, void *buffer, size_t n);

/** Write all `n` bytes with no deadline; false on error. */
bool writeAll(int fd, const void *buffer, size_t n);

/**
 * One connection's read side: a reused buffer that each recv() fills
 * with as much as the peer has already sent, so a pipelined window of
 * frames costs one recv() per batch instead of two per frame.  The
 * buffer starts at one page and grows only to the largest span a
 * caller asks to hold at once (for the daemon: its largest frame),
 * plus a page.
 */
class RecvBuffer
{
  public:
    explicit RecvBuffer(int fd);

    /**
     * Hold at least `n` unconsumed bytes, receiving more as needed
     * with readExact()'s contract: recv() first, poll() only on
     * EAGAIN, `deadline` bounds waiting only, same statuses, same
     * fault hooks.  Bytes received before a Timeout stay held.  A
     * later fill() may move the held bytes, so pointers from data()
     * last until the next fill().
     */
    IoStatus fill(size_t n, IoDeadline deadline);

    /** The unconsumed bytes (size() of them). */
    const uint8_t *data() const { return bytes.data() + begin; }
    size_t size() const { return end - begin; }

    /** Drop the first `n` unconsumed bytes (n <= size()). */
    void consume(size_t n);

  private:
    int fd;
    std::vector<uint8_t> bytes;
    size_t begin = 0;
    size_t end = 0;
};

} // namespace racelogic::serve

#endif // RACELOGIC_SERVE_SOCKET_H
