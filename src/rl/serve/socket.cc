#include "rl/serve/socket.h"

#include <cerrno>
#include <climits>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "rl/serve/fault.h"

namespace racelogic::serve {

void
ScopedFd::reset(int fd)
{
    if (fd_ >= 0) {
        // A recycled fd number must not inherit the old connection's
        // injected-fault byte count.
        if (FaultInjector *injector = FaultInjector::installed())
            injector->forgetFd(fd_);
        ::close(fd_);
    }
    fd_ = fd;
}

IoDeadline
deadlineAfterMs(int64_t timeoutMs)
{
    if (timeoutMs < 0)
        return kNoDeadline;
    return IoClock::now() + std::chrono::milliseconds(timeoutMs);
}

const char *
ioStatusName(IoStatus status)
{
    switch (status) {
    case IoStatus::Ok:
        return "ok";
    case IoStatus::Eof:
        return "eof";
    case IoStatus::Timeout:
        return "timeout";
    case IoStatus::Error:
        return "error";
    case IoStatus::Disconnected:
        return "disconnected";
    }
    return "unknown";
}

namespace {

/**
 * Milliseconds left until `deadline` as a poll() timeout: -1 for
 * kNoDeadline, 0 when already expired, rounded up so poll never
 * returns early and spins.
 */
int
pollTimeout(IoDeadline deadline)
{
    if (deadline == kNoDeadline)
        return -1;
    const IoClock::time_point now = IoClock::now();
    if (now >= deadline)
        return 0;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now)
                          .count() +
                      1;
    return left > INT_MAX ? INT_MAX : static_cast<int>(left);
}

/**
 * Wait for `events` on `fd` until `deadline`.  Ok: ready (including
 * POLLERR/POLLHUP -- the following syscall surfaces the condition);
 * Timeout: deadline hit first; Error: poll itself failed.
 */
IoStatus
waitReady(int fd, short events, IoDeadline deadline)
{
    for (;;) {
        const int timeout = pollTimeout(deadline);
        if (timeout == 0)
            return IoStatus::Timeout;
        pollfd entry{};
        entry.fd = fd;
        entry.events = events;
        if (FaultInjector *injector = FaultInjector::installed())
            injector->beforePoll();
        const int rc = ::poll(&entry, 1, timeout);
        if (rc > 0)
            return IoStatus::Ok;
        if (rc == 0)
            return IoStatus::Timeout;
        if (errno != EINTR)
            return IoStatus::Error;
    }
}

} // namespace

ScopedFd
listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        return ScopedFd();
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        return ScopedFd();
    // A stale socket file from a crashed daemon would make bind()
    // fail with EADDRINUSE even though nobody is listening.
    ::unlink(path.c_str());
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return ScopedFd();
    if (::listen(fd.get(), SOMAXCONN) != 0)
        return ScopedFd();
    return fd;
}

ScopedFd
listenTcp(uint16_t port, uint16_t &boundPort)
{
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return ScopedFd();
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return ScopedFd();
    if (::listen(fd.get(), SOMAXCONN) != 0)
        return ScopedFd();

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0)
        return ScopedFd();
    boundPort = ntohs(bound.sin_port);
    return fd;
}

namespace {

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

ScopedFd
acceptConnection(int listenFd)
{
    sockaddr_storage peer{};
    socklen_t len = sizeof(peer);
    ScopedFd fd(
        ::accept(listenFd, reinterpret_cast<sockaddr *>(&peer), &len));
    if (fd.valid() && peer.ss_family == AF_INET)
        setNoDelay(fd.get());
    return fd;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

namespace {

/**
 * Finish a deadline-bounded connect: start it non-blocking, wait for
 * writability, then collect the outcome from SO_ERROR (the
 * non-blocking connect protocol -- the connect() return itself only
 * says "in progress").  The fd stays non-blocking on success.
 */
ScopedFd
connectWithDeadline(ScopedFd fd, const sockaddr *addr, socklen_t addrLen,
                    int64_t timeoutMs)
{
    if (!setNonBlocking(fd.get()))
        return ScopedFd();
    const int rc = ::connect(fd.get(), addr, addrLen);
    if (rc == 0)
        return fd;
    if (errno != EINPROGRESS && errno != EINTR && errno != EAGAIN)
        return ScopedFd();

    const IoDeadline deadline = deadlineAfterMs(timeoutMs);
    const IoStatus ready = waitReady(fd.get(), POLLOUT, deadline);
    if (ready != IoStatus::Ok) {
        if (ready == IoStatus::Timeout)
            errno = ETIMEDOUT;
        return ScopedFd();
    }

    int err = 0;
    socklen_t errLen = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &errLen) != 0)
        return ScopedFd();
    if (err != 0) {
        errno = err;
        return ScopedFd();
    }
    return fd;
}

} // namespace

ScopedFd
connectUnix(const std::string &path, int64_t timeoutMs)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        return ScopedFd();
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        return ScopedFd();
    return connectWithDeadline(std::move(fd),
                               reinterpret_cast<const sockaddr *>(&addr),
                               sizeof(addr), timeoutMs);
}

ScopedFd
connectTcp(uint16_t port, int64_t timeoutMs)
{
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return ScopedFd();
    setNoDelay(fd.get());

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return connectWithDeadline(std::move(fd),
                               reinterpret_cast<const sockaddr *>(&addr),
                               sizeof(addr), timeoutMs);
}

namespace {

/**
 * The verdict on a recv() or send() that moved nothing: Ok to try
 * again (EINTR, or EAGAIN once `fd` is ready for `events` by
 * `deadline`), else the status to return.
 */
IoStatus
retryOrWait(int fd, short events, IoDeadline deadline)
{
    if (errno == EINTR)
        return IoStatus::Ok;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
        return IoStatus::Error;
    return waitReady(fd, events, deadline);
}

/**
 * Receive into `buffer`, whose first `have` bytes are filled, until
 * at least `need` are, never past `room`: each recv() takes what is
 * there up to `room`, through the installed fault injector's cap and
 * byte count.  MSG_DONTWAIT: never block, blocking and non-blocking
 * fds alike; poll() only on EAGAIN.  `have` counts what landed, also
 * when the status is not Ok.
 */
IoStatus
recvAtLeast(int fd, uint8_t *buffer, size_t &have, size_t need,
            size_t room, IoDeadline deadline)
{
    while (have < need) {
        size_t want = room - have;
        if (FaultInjector *injector = FaultInjector::installed()) {
            const FaultAction act = injector->beforeIo(fd, want, false);
            if (act.dropped)
                return IoStatus::Disconnected;
            if (act.chunkCap > 0 && act.chunkCap < want)
                want = act.chunkCap;
        }
        const ssize_t rc = ::recv(fd, buffer + have, want, MSG_DONTWAIT);
        if (rc > 0) {
            have += static_cast<size_t>(rc);
            if (FaultInjector *injector = FaultInjector::installed())
                injector->afterIo(fd, static_cast<size_t>(rc));
            continue;
        }
        if (rc == 0)
            return IoStatus::Eof;
        if (const IoStatus next = retryOrWait(fd, POLLIN, deadline);
            next != IoStatus::Ok)
            return next;
    }
    return IoStatus::Ok;
}

} // namespace

IoStatus
readExact(int fd, void *buffer, size_t n, IoDeadline deadline)
{
    size_t got = 0;
    return recvAtLeast(fd, static_cast<uint8_t *>(buffer), got, n, n,
                       deadline);
}

IoStatus
writeAll(int fd, const void *buffer, size_t n, IoDeadline deadline)
{
    const uint8_t *in = static_cast<const uint8_t *>(buffer);
    size_t sent = 0;
    while (sent < n) {
        size_t want = n - sent;
        if (FaultInjector *injector = FaultInjector::installed()) {
            const FaultAction act = injector->beforeIo(fd, want, true);
            if (act.dropped)
                return IoStatus::Disconnected;
            if (act.chunkCap > 0 && act.chunkCap < want)
                want = act.chunkCap;
        }

        const ssize_t rc =
            ::send(fd, in + sent, want, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (rc > 0) {
            sent += static_cast<size_t>(rc);
            if (FaultInjector *injector = FaultInjector::installed())
                injector->afterIo(fd, static_cast<size_t>(rc));
            continue;
        }
        if (rc == 0)
            return IoStatus::Error;
        if (const IoStatus next = retryOrWait(fd, POLLOUT, deadline);
            next != IoStatus::Ok)
            return next;
    }
    return IoStatus::Ok;
}

bool
readExact(int fd, void *buffer, size_t n)
{
    return readExact(fd, buffer, n, kNoDeadline) == IoStatus::Ok;
}

bool
writeAll(int fd, const void *buffer, size_t n)
{
    return writeAll(fd, buffer, n, kNoDeadline) == IoStatus::Ok;
}

namespace {

constexpr size_t kPage = 4096;

} // namespace

RecvBuffer::RecvBuffer(int fd) : fd(fd), bytes(kPage) {}

IoStatus
RecvBuffer::fill(size_t n, IoDeadline deadline)
{
    if (begin + n > bytes.size()) {
        // Slide the held bytes to the front; grow only if the span
        // asked for is larger than the whole buffer, and then by a page
        // more, so the recv() that completes a large frame also takes
        // the frames already queued behind it.
        std::memmove(bytes.data(), bytes.data() + begin, size());
        end -= begin;
        begin = 0;
        if (n > bytes.size())
            bytes.resize(n + kPage);
    }
    return recvAtLeast(fd, bytes.data(), end, begin + n, bytes.size(),
                       deadline);
}

void
RecvBuffer::consume(size_t n)
{
    begin += n;
    if (begin == end)
        begin = end = 0;
}

} // namespace racelogic::serve
