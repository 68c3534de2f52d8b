/**
 * @file
 * Unit tests for the deadline-aware socket helpers and the
 * deterministic fault injector underneath them: timeouts fire instead
 * of blocking forever, short-I/O reassembly never corrupts a byte,
 * severed fds stop at the drawn byte, TCP sockets send small frames at
 * once, and the same seed replays the same fault schedule exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <numeric>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "rl/bio/score_matrix.h"
#include "rl/serve/fault.h"
#include "rl/serve/socket.h"
#include "rl/serve/wire.h"

namespace {

using namespace racelogic::serve;
namespace bio = racelogic::bio;

/** A connected socketpair wrapped for RAII. */
struct Pair {
    ScopedFd a, b;

    Pair()
    {
        int fds[2] = {-1, -1};
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
            a.reset(fds[0]);
            b.reset(fds[1]);
        }
    }
};

std::vector<uint8_t>
patternBytes(size_t n)
{
    std::vector<uint8_t> bytes(n);
    std::iota(bytes.begin(), bytes.end(), uint8_t{0});
    return bytes;
}

// ----------------------------------------------------------- deadlines

TEST(ServeSocket, ReadTimesOutInsteadOfBlockingForever)
{
    Pair pair;
    ASSERT_TRUE(pair.a.valid());

    uint8_t buffer[8];
    const auto before = IoClock::now();
    const IoStatus status = readExact(pair.a.get(), buffer,
                                      sizeof(buffer),
                                      deadlineAfterMs(50));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            IoClock::now() - before)
            .count();
    EXPECT_EQ(status, IoStatus::Timeout);
    EXPECT_GE(elapsed, 50);
    EXPECT_LT(elapsed, 5000);
}

TEST(ServeSocket, PartialFrameStillTimesOut)
{
    // The dangerous case: *some* bytes arrive, then the peer stalls.
    Pair pair;
    ASSERT_TRUE(pair.a.valid());
    const uint8_t teaser[3] = {1, 2, 3};
    ASSERT_TRUE(writeAll(pair.b.get(), teaser, sizeof(teaser)));

    uint8_t buffer[64];
    EXPECT_EQ(readExact(pair.a.get(), buffer, sizeof(buffer),
                        deadlineAfterMs(50)),
              IoStatus::Timeout);
}

TEST(ServeSocket, WriteTimesOutWhenThePeerStopsReading)
{
    Pair pair;
    ASSERT_TRUE(pair.a.valid());
    // Shrink both directions so a few hundred KB guarantees a stall.
    int small = 4096;
    ::setsockopt(pair.a.get(), SOL_SOCKET, SO_SNDBUF, &small,
                 sizeof(small));
    ::setsockopt(pair.b.get(), SOL_SOCKET, SO_RCVBUF, &small,
                 sizeof(small));

    const std::vector<uint8_t> bytes(1u << 20, 0x5A);
    EXPECT_EQ(writeAll(pair.a.get(), bytes.data(), bytes.size(),
                       deadlineAfterMs(100)),
              IoStatus::Timeout);
}

TEST(ServeSocket, ClosedPeerIsEofNotTimeout)
{
    Pair pair;
    ASSERT_TRUE(pair.a.valid());
    pair.b.reset();
    uint8_t buffer[4];
    EXPECT_EQ(readExact(pair.a.get(), buffer, sizeof(buffer),
                        deadlineAfterMs(1000)),
              IoStatus::Eof);
}

TEST(ServeSocket, NegativeTimeoutMeansNoDeadline)
{
    EXPECT_EQ(deadlineAfterMs(-1), kNoDeadline);
    EXPECT_NE(deadlineAfterMs(0), kNoDeadline);
}

// ------------------------------------------- recv/send first, poll on EAGAIN

/** Milliseconds `body` took. */
template <class Body>
int64_t
elapsedMs(Body body)
{
    const auto before = IoClock::now();
    body();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               IoClock::now() - before)
        .count();
}

TEST(ServeSocket, BufferedBytesMovePastAnExpiredDeadline)
{
    // A deadline bounds waiting, not bytes that are already there.
    Pair pair;
    ASSERT_TRUE(pair.a.valid());
    const IoDeadline expired = IoClock::now() - std::chrono::seconds(1);
    const std::vector<uint8_t> sent = patternBytes(64);
    EXPECT_EQ(writeAll(pair.b.get(), sent.data(), sent.size(), expired),
              IoStatus::Ok);

    std::vector<uint8_t> received(32);
    EXPECT_EQ(readExact(pair.a.get(), received.data(), received.size(),
                        expired),
              IoStatus::Ok);
    EXPECT_TRUE(std::equal(received.begin(), received.end(), sent.begin()));

    RecvBuffer in(pair.a.get());
    ASSERT_EQ(in.fill(32, expired), IoStatus::Ok);
    EXPECT_TRUE(std::equal(in.data(), in.data() + 32, sent.begin() + 32));
}

TEST(ServeSocket, EmptySocketPastItsDeadlineTimesOutWithoutBlocking)
{
    Pair pair;
    ASSERT_TRUE(pair.a.valid());
    const IoDeadline expired = IoClock::now() - std::chrono::seconds(1);
    uint8_t buffer[8];
    IoStatus status = IoStatus::Ok;
    EXPECT_LT(elapsedMs([&] {
                  status = readExact(pair.a.get(), buffer, sizeof(buffer),
                                     expired);
              }),
              1000);
    EXPECT_EQ(status, IoStatus::Timeout);

    RecvBuffer in(pair.a.get());
    EXPECT_LT(elapsedMs([&] { status = in.fill(4, expired); }), 1000);
    EXPECT_EQ(status, IoStatus::Timeout);
}

TEST(ServeSocket, SendIntoAFullBufferStillTimesOut)
{
    Pair pair;
    ASSERT_TRUE(pair.a.valid());
    int small = 4096;
    ::setsockopt(pair.a.get(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    ::setsockopt(pair.b.get(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

    // Fill the socket: an expired deadline writes what fits, then
    // times out at the first EAGAIN instead of waiting.
    const std::vector<uint8_t> bulk(1u << 20, 0x5A);
    ASSERT_EQ(writeAll(pair.a.get(), bulk.data(), bulk.size(),
                       IoClock::now()),
              IoStatus::Timeout);

    // Full: one more byte waits out its deadline, then times out.
    const uint8_t one = 1;
    IoStatus status = IoStatus::Ok;
    const int64_t took = elapsedMs([&] {
        status = writeAll(pair.a.get(), &one, 1, deadlineAfterMs(50));
    });
    EXPECT_EQ(status, IoStatus::Timeout);
    EXPECT_GE(took, 50);
    EXPECT_LT(took, 5000);
}

TEST(ServeSocket, TwoFramesDeliveredByOneRecvBothDecode)
{
    FaultInjector injector(FaultConfig{}); // counts, never faults
    FaultInjector::install(&injector);
    Pair pair;
    ASSERT_TRUE(pair.a.valid());
    const bio::ScoreMatrix costs = bio::ScoreMatrix::dnaShortestPath();
    std::vector<uint8_t> bytes = frame(
        encodeScreen(1, costs, 40, std::string(32, 'A'),
                     std::string(32, 'C')));
    const std::vector<uint8_t> ping = frame(encodePing(2));
    bytes.insert(bytes.end(), ping.begin(), ping.end());
    ASSERT_TRUE(writeAll(pair.b.get(), bytes.data(), bytes.size()));
    const uint64_t recvsBefore = injector.stats().recvs;

    RecvBuffer in(pair.a.get());
    std::vector<Request> decoded;
    for (int n = 0; n < 2; ++n) {
        uint32_t length = 0;
        ASSERT_EQ(in.fill(kFrameHeaderBytes, deadlineAfterMs(1000)),
                  IoStatus::Ok);
        ASSERT_EQ(parseFrameHeader(in.data(), in.size(),
                                   kDefaultMaxFrameBytes, length),
                  WireError::None);
        ASSERT_EQ(in.fill(kFrameHeaderBytes + length, deadlineAfterMs(1000)),
                  IoStatus::Ok);
        Request request;
        ASSERT_EQ(decodeRequest({in.data() + kFrameHeaderBytes, length},
                                bio::Alphabet::dna(), request),
                  WireError::None);
        in.consume(kFrameHeaderBytes + length);
        decoded.push_back(std::move(request));
    }
    const uint64_t recvs = injector.stats().recvs - recvsBefore;
    FaultInjector::install(nullptr);

    EXPECT_EQ(recvs, 1u) << "both frames came from one recv()";
    EXPECT_EQ(in.size(), 0u);
    EXPECT_EQ(decoded[0].tag, RequestTag::Screen);
    EXPECT_EQ(decoded[0].id, 1u);
    EXPECT_EQ(decoded[0].a->size(), 32u);
    EXPECT_EQ(decoded[1].tag, RequestTag::Ping);
    EXPECT_EQ(decoded[1].id, 2u);
}

TEST(ServeSocket, FrameSplitAtEveryByteOffsetReassembles)
{
    const bio::ScoreMatrix costs = bio::ScoreMatrix::dnaShortestPath();
    const std::vector<uint8_t> payload =
        encodePairwise(7, costs, "ACGTTGCA", "ACGTAGCA");
    const std::vector<uint8_t> framed = frame(payload);
    for (size_t split = 0; split <= framed.size(); ++split) {
        Pair pair;
        ASSERT_TRUE(pair.a.valid());
        RecvBuffer in(pair.a.get());
        ASSERT_TRUE(writeAll(pair.b.get(), framed.data(), split));
        if (split < framed.size()) {
            // Only the first `split` bytes are there: the wait times
            // out, and what arrived stays held.
            EXPECT_EQ(in.fill(framed.size(), IoClock::now()),
                      IoStatus::Timeout);
            EXPECT_EQ(in.size(), split);
            ASSERT_TRUE(writeAll(pair.b.get(), framed.data() + split,
                                 framed.size() - split));
        }
        ASSERT_EQ(in.fill(framed.size(), deadlineAfterMs(1000)),
                  IoStatus::Ok)
            << "split at byte " << split;
        ASSERT_TRUE(std::equal(framed.begin(), framed.end(), in.data()))
            << "split at byte " << split;
        Request request;
        ASSERT_EQ(decodeRequest({in.data() + kFrameHeaderBytes,
                                 payload.size()},
                                bio::Alphabet::dna(), request),
                  WireError::None);
        EXPECT_EQ(request.id, 7u);
    }
}

TEST(ServeSocket, ConnectToNothingFailsInsteadOfBlocking)
{
    // A refused port fails fast; a missing socket file fails fast.
    // Either way the deadline-aware connect must come back invalid,
    // never block the caller (this is the silent-infinite-block fix).
    uint16_t port = 1; // almost surely nothing listens on port 1
    ScopedFd fd = connectTcp(port, 250);
    EXPECT_FALSE(fd.valid());

    ScopedFd none = connectUnix("/nonexistent/rl-serve.sock", 250);
    EXPECT_FALSE(none.valid());
}

// ------------------------------------------------------ fault injection

/** Install-for-scope guard so a failing test never leaks an injector. */
struct ScopedInjector {
    explicit ScopedInjector(FaultInjector &injector)
    {
        FaultInjector::install(&injector);
    }
    ~ScopedInjector() { FaultInjector::install(nullptr); }
};

TEST(ServeFault, ShortIoReassemblyNeverCorruptsBytes)
{
    FaultConfig config;
    config.seed = 42;
    config.shortIoProbability = 1.0; // every syscall capped to 1..8
    FaultInjector injector(config);
    ScopedInjector scope(injector);

    Pair pair;
    ASSERT_TRUE(pair.a.valid());
    const std::vector<uint8_t> sent = patternBytes(4096);

    std::thread writer([&] {
        (void)writeAll(pair.a.get(), sent.data(), sent.size(),
                       deadlineAfterMs(10000));
    });
    std::vector<uint8_t> received(sent.size());
    EXPECT_EQ(readExact(pair.b.get(), received.data(), received.size(),
                        deadlineAfterMs(10000)),
              IoStatus::Ok);
    writer.join();

    EXPECT_EQ(received, sent);
    EXPECT_GT(injector.stats().shortIos, 0u)
        << "a probability-1 schedule must actually inject";
}

TEST(ServeFault, DropSeversTheConnectionAtTheDrawnOffset)
{
    FaultConfig config;
    config.seed = 7;
    config.dropProbability = 1.0;
    config.dropMinBytes = 64;
    config.dropMaxBytes = 64; // sever exactly after 64 bytes
    FaultInjector injector(config);
    ScopedInjector scope(injector);

    Pair pair;
    ASSERT_TRUE(pair.a.valid());
    const std::vector<uint8_t> bytes(256, 0xA5);
    const IoStatus wrote = writeAll(pair.a.get(), bytes.data(),
                                    bytes.size(), deadlineAfterMs(5000));
    EXPECT_NE(wrote, IoStatus::Ok)
        << "the injector must sever before all 256 bytes pass";
    EXPECT_EQ(injector.stats().drops, 1u);

    // The reader sees a clean truncation, not garbage: at most the
    // 64 pre-sever bytes, all intact, then EOF.
    FaultInjector::install(nullptr);
    std::vector<uint8_t> received(256);
    EXPECT_EQ(readExact(pair.b.get(), received.data(), received.size(),
                        deadlineAfterMs(5000)),
              IoStatus::Eof);
}

TEST(ServeFault, SameSeedReplaysTheSameSchedule)
{
    FaultConfig config;
    config.seed = 1234;
    config.shortIoProbability = 0.5;
    config.dropProbability = 0.25;
    config.dropMinBytes = 128;
    config.dropMaxBytes = 1024;

    // Run the identical transfer pattern twice under fresh injectors:
    // every counter must land on exactly the same value.  The I/O is
    // single-threaded (write fully into the socket buffer, then read
    // it back) so the injector's draw sequence is a pure function of
    // the seed, not of scheduler interleaving.
    auto run = [&config]() {
        FaultInjector injector(config);
        ScopedInjector scope(injector);
        for (int round = 0; round < 8; ++round) {
            Pair pair;
            EXPECT_TRUE(pair.a.valid());
            const std::vector<uint8_t> sent = patternBytes(512);
            const IoStatus wrote =
                writeAll(pair.a.get(), sent.data(), sent.size(),
                         deadlineAfterMs(5000));
            std::vector<uint8_t> received(sent.size());
            if (wrote == IoStatus::Ok)
                (void)readExact(pair.b.get(), received.data(),
                                received.size(), deadlineAfterMs(5000));
        }
        return injector.stats();
    };

    const FaultInjector::Stats first = run();
    const FaultInjector::Stats second = run();
    EXPECT_EQ(first.shortIos, second.shortIos);
    EXPECT_EQ(first.drops, second.drops);
    EXPECT_EQ(first.delays, second.delays);
}

TEST(ServeFault, BufferedReaderTakesChunkCapsAndDrops)
{
    // Chunk caps: every recv() of the buffered reader is capped to
    // 1..8 bytes and the reassembled bytes are still exact.
    {
        FaultConfig config;
        config.seed = 42;
        config.shortIoProbability = 1.0;
        FaultInjector injector(config);
        ScopedInjector scope(injector);
        Pair pair;
        ASSERT_TRUE(pair.a.valid());
        const std::vector<uint8_t> sent = patternBytes(4096);
        std::thread writer([&] {
            (void)writeAll(pair.a.get(), sent.data(), sent.size(),
                           deadlineAfterMs(10000));
        });
        RecvBuffer in(pair.b.get());
        EXPECT_EQ(in.fill(sent.size(), deadlineAfterMs(10000)),
                  IoStatus::Ok);
        writer.join();
        ASSERT_EQ(in.size(), sent.size());
        EXPECT_TRUE(std::equal(sent.begin(), sent.end(), in.data()));
        EXPECT_GT(injector.stats().shortIos, 0u);
    }
    // Drops: both ends are severed at their drawn 64-byte offset.  The
    // buffered reader's recv() is capped at its offset like any other,
    // so it holds exactly the 64 bytes sent, intact, then reports the
    // sever.
    {
        FaultConfig config;
        config.seed = 7;
        config.dropProbability = 1.0;
        config.dropMinBytes = 64;
        config.dropMaxBytes = 64;
        FaultInjector injector(config);
        ScopedInjector scope(injector);
        Pair pair;
        ASSERT_TRUE(pair.a.valid());
        const std::vector<uint8_t> sent = patternBytes(256);
        EXPECT_NE(writeAll(pair.a.get(), sent.data(), sent.size(),
                           deadlineAfterMs(5000)),
                  IoStatus::Ok);
        RecvBuffer in(pair.b.get());
        EXPECT_EQ(in.fill(sent.size(), deadlineAfterMs(5000)),
                  IoStatus::Disconnected);
        EXPECT_EQ(injector.stats().drops, 2u);
        ASSERT_EQ(in.size(), 64u);
        EXPECT_TRUE(std::equal(in.data(), in.data() + 64, sent.begin()));
    }
}

TEST(ServeFault, ReaderSideDropStopsAtTheDrawnByte)
{
    // All 256 bytes are queued before the injector is installed, so
    // only the readers are severed.  shutdown() on a Unix socket leaves
    // queued bytes readable; the drop must still end the stream at the
    // drawn 64th byte, through both read paths.
    FaultConfig config;
    config.seed = 7;
    config.dropProbability = 1.0;
    config.dropMinBytes = 64;
    config.dropMaxBytes = 64;
    const std::vector<uint8_t> sent = patternBytes(256);
    Pair buffered, exact;
    ASSERT_TRUE(buffered.a.valid());
    ASSERT_TRUE(exact.a.valid());
    ASSERT_TRUE(writeAll(buffered.a.get(), sent.data(), sent.size()));
    ASSERT_TRUE(writeAll(exact.a.get(), sent.data(), sent.size()));

    FaultInjector injector(config);
    ScopedInjector scope(injector);
    RecvBuffer in(buffered.b.get());
    EXPECT_EQ(in.fill(sent.size(), deadlineAfterMs(5000)),
              IoStatus::Disconnected);
    ASSERT_EQ(in.size(), 64u);
    EXPECT_TRUE(std::equal(in.data(), in.data() + 64, sent.begin()));

    std::vector<uint8_t> received(sent.size());
    EXPECT_EQ(readExact(exact.b.get(), received.data(), received.size(),
                        deadlineAfterMs(5000)),
              IoStatus::Disconnected);
    EXPECT_EQ(injector.stats().drops, 2u);
}

TEST(ServeSocket, TcpSocketsSetNoDelayOnBothEnds)
{
    // Without TCP_NODELAY a small frame sent right after another waits
    // in Nagle's buffer for the peer's delayed ACK (milliseconds).
    uint16_t port = 0;
    ScopedFd listener = listenTcp(0, port);
    ASSERT_TRUE(listener.valid());
    ScopedFd client = connectTcp(port, 1000);
    ASSERT_TRUE(client.valid());
    ScopedFd server = acceptConnection(listener.get());
    ASSERT_TRUE(server.valid());
    for (int fd : {client.get(), server.get()}) {
        int on = 0;
        socklen_t len = sizeof(on);
        ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
        EXPECT_NE(on, 0);
    }
}

TEST(ServeFault, BufferedReaderReplaysTheSameSchedule)
{
    FaultConfig config;
    config.seed = 1234;
    config.shortIoProbability = 0.5;
    config.dropProbability = 0.25;
    config.dropMinBytes = 128;
    config.dropMaxBytes = 1024;

    // As SameSeedReplaysTheSameSchedule, but reading through the
    // buffered reader: single-threaded, so the draw sequence is a
    // pure function of the seed.
    auto run = [&config]() {
        FaultInjector injector(config);
        ScopedInjector scope(injector);
        for (int round = 0; round < 8; ++round) {
            Pair pair;
            EXPECT_TRUE(pair.a.valid());
            const std::vector<uint8_t> sent = patternBytes(512);
            const IoStatus wrote =
                writeAll(pair.a.get(), sent.data(), sent.size(),
                         deadlineAfterMs(5000));
            if (wrote == IoStatus::Ok) {
                RecvBuffer in(pair.b.get());
                (void)in.fill(sent.size(), deadlineAfterMs(5000));
            }
        }
        return injector.stats();
    };

    const FaultInjector::Stats first = run();
    const FaultInjector::Stats second = run();
    EXPECT_GT(first.shortIos, 0u);
    EXPECT_EQ(first.shortIos, second.shortIos);
    EXPECT_EQ(first.drops, second.drops);
    EXPECT_EQ(first.recvs, second.recvs);
    EXPECT_EQ(first.sends, second.sends);
}

TEST(ServeFault, RecycledFdStartsAFreshByteCount)
{
    FaultConfig config;
    config.seed = 9;
    config.dropProbability = 1.0;
    config.dropMinBytes = 32;
    config.dropMaxBytes = 32;
    FaultInjector injector(config);
    ScopedInjector scope(injector);

    // First connection burns its 32 bytes and is severed...
    Pair first;
    ASSERT_TRUE(first.a.valid());
    const std::vector<uint8_t> bytes(64, 1);
    (void)writeAll(first.a.get(), bytes.data(), bytes.size(),
                   deadlineAfterMs(5000));
    EXPECT_EQ(injector.stats().drops, 1u);
    const int recycledNumber = first.a.get();
    first.a.reset(); // ScopedFd::reset must call forgetFd
    first.b.reset();

    // ...and a new fd (very likely the same number) gets its own
    // fresh offset instead of inheriting an exhausted count.
    Pair second;
    ASSERT_TRUE(second.a.valid());
    (void)recycledNumber; // the kernel usually hands it back here
    const std::vector<uint8_t> small(16, 2);
    EXPECT_EQ(writeAll(second.a.get(), small.data(), small.size(),
                       deadlineAfterMs(5000)),
              IoStatus::Ok)
        << "16 bytes on a fresh fd sit below the 32-byte drop offset";
}

} // namespace
