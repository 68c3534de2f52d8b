/**
 * @file
 * Admission-control tests for the serve daemon's bounded queue: the
 * depth bounds *outstanding* work (queued + inflight), rejections are
 * typed and counted, claimed and drained jobs share the worker count's
 * solve slots, and the ledger stays coherent -- enqueued ==
 * completed + queued + inflight + shedDeadline + shedEvicted at every
 * snapshot, globally and per priority class.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "rl/serve/queue.h"

namespace {

using namespace racelogic::serve;

/** A job body that carries a tag the tests can read back without
 *  running it, and optionally counts its runs. */
struct Tagged {
    size_t tag = 0;
    int *runs = nullptr;

    void
    operator()() const
    {
        if (runs)
            ++*runs;
    }
};

QueuedJob
noopJob(size_t tag = 0)
{
    QueuedJob job;
    job.run = Tagged{tag};
    return job;
}

QueuedJob
classedJob(Priority priority, size_t tag = 0)
{
    QueuedJob job = noopJob(tag);
    job.priority = priority;
    return job;
}

/** The tag a job was built with. */
size_t
tagOf(const QueuedJob &job)
{
    const Tagged *body = job.run.target<Tagged>();
    return body ? body->tag : SIZE_MAX;
}

// The class ledgers partition the global one.  completed only
// partitions when every retirement went through the per-class
// markDone overload, so callers that used the legacy size_t overload
// pass checkCompleted = false.
void
expectLedgerCoherent(const QueueStats &stats, bool checkCompleted = true)
{
    EXPECT_EQ(stats.enqueued, stats.completed + stats.queued +
                                  stats.inflight + stats.shedDeadline +
                                  stats.shedEvicted);
    uint64_t enq = 0, done = 0, queued = 0, shedD = 0, shedE = 0;
    for (const ClassStats &c : stats.classes) {
        enq += c.enqueued;
        done += c.completed;
        queued += c.queued;
        shedD += c.shedDeadline;
        shedE += c.shedEvicted;
    }
    EXPECT_EQ(enq, stats.enqueued);
    if (checkCompleted)
        EXPECT_EQ(done, stats.completed);
    EXPECT_EQ(queued, stats.queued);
    EXPECT_EQ(shedD, stats.shedDeadline);
    EXPECT_EQ(shedE, stats.shedEvicted);
}

TEST(ServeQueue, AdmitsUpToDepthThenRejectsTyped)
{
    RequestQueue queue(3);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::QueueFull);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::QueueFull);

    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.enqueued, 3u);
    EXPECT_EQ(stats.queued, 3u);
    EXPECT_EQ(stats.rejectedQueueFull, 2u);
    EXPECT_EQ(stats.highWater, 3u);
}

TEST(ServeQueue, DepthBoundsOutstandingNotJustBuffered)
{
    // Draining moves jobs to inflight; the bound must still hold, or
    // QueueFull would depend on dispatcher timing.
    RequestQueue queue(2);
    ASSERT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);

    const auto batch = queue.drain(8);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(queue.stats().queued, 0u);
    EXPECT_EQ(queue.stats().inflight, 2u);

    // Buffer is empty, but both jobs are still outstanding.
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::QueueFull);

    queue.markDone(1);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
}

TEST(ServeQueue, DrainPreservesFifoOrderAndCapsBatch)
{
    RequestQueue queue(8);
    for (size_t i = 0; i < 5; ++i)
        ASSERT_EQ(queue.tryPush(noopJob(i)),
                  RequestQueue::Admit::Accepted);

    auto first = queue.drain(3);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(tagOf(first[0]), 0u);
    EXPECT_EQ(tagOf(first[2]), 2u);

    auto rest = queue.drain(8);
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(tagOf(rest[0]), 3u);
    EXPECT_EQ(tagOf(rest[1]), 4u);
}

TEST(ServeQueue, LedgerStaysCoherent)
{
    RequestQueue queue(4);
    queue.noteRejected(Status::Oversized);
    queue.noteRejected(Status::BadRequest);
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(queue.tryPush(noopJob()),
                  RequestQueue::Admit::Accepted);
    (void)queue.tryPush(noopJob()); // QueueFull
    auto batch = queue.drain(2);
    queue.markDone(batch.size());

    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.enqueued,
              stats.completed + stats.queued + stats.inflight);
    EXPECT_EQ(stats.rejected(), 3u);
    EXPECT_EQ(stats.rejectedOversized, 1u);
    EXPECT_EQ(stats.rejectedBadRequest, 1u);
    EXPECT_EQ(stats.rejectedQueueFull, 1u);
}

TEST(ServeQueue, HighWaterTracksThePeakNotThePresent)
{
    RequestQueue queue(8);
    for (int i = 0; i < 6; ++i)
        ASSERT_EQ(queue.tryPush(noopJob()),
                  RequestQueue::Admit::Accepted);
    queue.markDone(queue.drain(6).size());
    EXPECT_EQ(queue.stats().queued, 0u);
    EXPECT_EQ(queue.stats().inflight, 0u);
    EXPECT_EQ(queue.stats().highWater, 6u);
}

TEST(ServeQueue, ShutdownRejectsNewWorkButDrainsOld)
{
    RequestQueue queue(4);
    ASSERT_EQ(queue.tryPush(noopJob(7)), RequestQueue::Admit::Accepted);
    queue.beginShutdown();

    EXPECT_EQ(queue.tryPush(noopJob()),
              RequestQueue::Admit::ShuttingDown);
    EXPECT_EQ(queue.stats().rejectedShutdown, 1u);

    auto batch = queue.drain(4);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(tagOf(batch[0]), 7u);
    queue.markDone(1);

    // Nothing left: drain must return empty instead of blocking.
    EXPECT_TRUE(queue.drain(4).empty());
}

TEST(ServeQueue, DrainShedsExpiredJobs)
{
    RequestQueue queue(8);
    int ran = 0, shedRan = 0;

    QueuedJob live;
    live.run = Tagged{1, &ran};

    QueuedJob expired = noopJob(2);
    expired.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(5);
    expired.onShed = [&](Status) { ++shedRan; };

    ASSERT_EQ(queue.tryPush(std::move(expired)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(std::move(live)),
              RequestQueue::Admit::Accepted);

    std::vector<QueuedJob> shed;
    auto batch = queue.drain(8, &shed);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(tagOf(batch[0]), 1u);
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(tagOf(shed[0]), 2u);

    // Shed jobs are never inflight; only the raced job is.
    QueueStats stats = queue.stats();
    EXPECT_EQ(stats.shedDeadline, 1u);
    EXPECT_EQ(stats.inflight, 1u);
    EXPECT_EQ(stats.queued, 0u);

    for (auto &job : batch)
        job.run();
    for (auto &job : shed)
        job.onShed(Status::DeadlineExceeded);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(shedRan, 1);
    queue.markDone(batch.size());

    // Ledger: enqueued == completed + queued + inflight + shedDeadline.
    stats = queue.stats();
    EXPECT_EQ(stats.enqueued, stats.completed + stats.queued +
                                  stats.inflight + stats.shedDeadline);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(ServeQueue, NullShedDrainsExpiredJobsNormally)
{
    // Callers that pass no shed vector (the pre-deadline behavior)
    // must see expired jobs drain like any other.
    RequestQueue queue(4);
    QueuedJob expired = noopJob(3);
    expired.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(5);
    ASSERT_EQ(queue.tryPush(std::move(expired)),
              RequestQueue::Admit::Accepted);

    auto batch = queue.drain(4);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(tagOf(batch[0]), 3u);
    EXPECT_EQ(queue.stats().shedDeadline, 0u);
    queue.markDone(1);
}

TEST(ServeQueue, SheddingReleasesAdmissionCapacity)
{
    // Shed jobs retire immediately: the slot they held must be free
    // for new work without any markDone().
    RequestQueue queue(1);
    QueuedJob expired = noopJob();
    expired.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(5);
    ASSERT_EQ(queue.tryPush(std::move(expired)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::QueueFull);

    // The queue is non-empty, so drain() does not block; with the
    // only job shed, the batch comes back empty.
    std::vector<QueuedJob> shed;
    EXPECT_TRUE(queue.drain(4, &shed).empty());
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
}

TEST(ServeQueue, DrainBlocksUntilAJobArrives)
{
    RequestQueue queue(4);
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        (void)queue.tryPush(noopJob(3));
    });
    auto batch = queue.drain(1); // blocks until the producer pushes
    producer.join();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(tagOf(batch[0]), 3u);
    queue.markDone(1);
}

TEST(ServeQueue, WeightedDrainFavorsHigherClassesWithoutStarvation)
{
    // 4 interactive : 2 normal : 1 batch per round -- interactive
    // leads every round, yet batch always gets its slot.
    RequestQueue queue(16);
    for (size_t i = 0; i < 4; ++i) {
        ASSERT_EQ(queue.tryPush(classedJob(Priority::Batch, 100 + i)),
                  RequestQueue::Admit::Accepted);
        ASSERT_EQ(queue.tryPush(classedJob(Priority::Normal, 200 + i)),
                  RequestQueue::Admit::Accepted);
        ASSERT_EQ(
            queue.tryPush(classedJob(Priority::Interactive, 300 + i)),
            RequestQueue::Admit::Accepted);
    }

    auto batch = queue.drain(7); // one full weighted round
    ASSERT_EQ(batch.size(), 7u);
    // Interactive quota 4, FIFO within the class...
    EXPECT_EQ(tagOf(batch[0]), 300u);
    EXPECT_EQ(tagOf(batch[1]), 301u);
    EXPECT_EQ(tagOf(batch[2]), 302u);
    EXPECT_EQ(tagOf(batch[3]), 303u);
    // ...then normal quota 2...
    EXPECT_EQ(tagOf(batch[4]), 200u);
    EXPECT_EQ(tagOf(batch[5]), 201u);
    // ...then batch's guaranteed slot.
    EXPECT_EQ(tagOf(batch[6]), 100u);

    queue.markDone(batch.size());
    auto rest = queue.drain(16);
    ASSERT_EQ(rest.size(), 5u);
    queue.markDone(rest.size());
    expectLedgerCoherent(queue.stats(), /*checkCompleted=*/false);
}

TEST(ServeQueue, OneJobDrainsKeepTheWeightedRound)
{
    // A serve worker pops one job per drain; the 4 : 2 : 1 round must
    // carry over between drains, or one-job drains turn into strict
    // priority and batch starves behind a deep interactive backlog.
    RequestQueue queue(32);
    for (size_t i = 0; i < 8; ++i) {
        ASSERT_EQ(queue.tryPush(classedJob(Priority::Batch, 100 + i)),
                  RequestQueue::Admit::Accepted);
        ASSERT_EQ(queue.tryPush(classedJob(Priority::Normal, 200 + i)),
                  RequestQueue::Admit::Accepted);
        ASSERT_EQ(
            queue.tryPush(classedJob(Priority::Interactive, 300 + i)),
            RequestQueue::Admit::Accepted);
    }

    std::vector<size_t> order;
    for (int i = 0; i < 7; ++i) {
        auto one = queue.drain(1);
        ASSERT_EQ(one.size(), 1u);
        order.push_back(tagOf(one.front()));
        queue.markDone(1);
    }
    // The same sequence one drain(7) returns from a fresh backlog.
    EXPECT_EQ(order, (std::vector<size_t>{300, 301, 302, 303, 200, 201,
                                          100}));
}

TEST(ServeQueue, EvictionShedsLowestClassFirst)
{
    // At the bound, an interactive arrival claims the slot of the
    // newest queued batch job; the victim comes back via the
    // out-param so the caller can send its typed reply off-lock.
    RequestQueue queue(2);
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Batch, 1)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Batch, 2)),
              RequestQueue::Admit::Accepted);

    QueuedJob evicted;
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Interactive, 9),
                            &evicted),
              RequestQueue::Admit::Accepted);
    ASSERT_TRUE(evicted.run != nullptr);
    EXPECT_EQ(tagOf(evicted), 2u); // newest batch job, not the oldest

    QueueStats stats = queue.stats();
    EXPECT_EQ(stats.shedEvicted, 1u);
    EXPECT_EQ(stats.classes[0].shedEvicted, 1u);
    EXPECT_EQ(stats.queued, 2u);
    expectLedgerCoherent(stats);

    // Only strictly lower classes are victims: batch cannot evict
    // batch, so an equal-class arrival degrades to QueueFull.
    QueuedJob none;
    EXPECT_EQ(queue.tryPush(classedJob(Priority::Batch, 3), &none),
              RequestQueue::Admit::QueueFull);
    EXPECT_EQ(queue.stats().rejectedQueueFull, 1u);

    // Once nothing below interactive is queued, interactive arrivals
    // get QueueFull too -- the protected classes never eat each other.
    QueuedJob second;
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Interactive, 10),
                            &second),
              RequestQueue::Admit::Accepted);
    EXPECT_EQ(tagOf(second), 1u); // the remaining batch job
    EXPECT_EQ(queue.tryPush(classedJob(Priority::Interactive, 11), &none),
              RequestQueue::Admit::QueueFull);
    EXPECT_EQ(queue.stats().rejectedQueueFull, 2u);

    auto batch = queue.drain(4);
    std::array<uint64_t, kPriorityClasses> byClass{};
    for (const QueuedJob &job : batch)
        ++byClass[static_cast<size_t>(job.priority)];
    queue.markDone(byClass);
    expectLedgerCoherent(queue.stats());
}

TEST(ServeQueue, EvictionWithoutOutParamDegradesToQueueFull)
{
    // Legacy callers that pass no out-param must never lose a job.
    RequestQueue queue(1);
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Batch)),
              RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(classedJob(Priority::Interactive)),
              RequestQueue::Admit::QueueFull);
    EXPECT_EQ(queue.stats().shedEvicted, 0u);
    EXPECT_EQ(queue.stats().queued, 1u);
}

TEST(ServeQueue, BrownoutShedsBatchAndHalvesDepth)
{
    RequestQueue queue(8); // brownout depth defaults to 4
    queue.setBrownout(true);
    EXPECT_TRUE(queue.brownout());

    // Batch is shed at admission with a resource verdict...
    EXPECT_EQ(queue.tryPush(classedJob(Priority::Batch)),
              RequestQueue::Admit::Brownout);
    QueueStats stats = queue.stats();
    EXPECT_EQ(stats.rejectedResource, 1u);
    EXPECT_EQ(stats.classes[0].rejectedResource, 1u);

    // ...and the admission bound halves for everyone else.
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(queue.tryPush(classedJob(Priority::Normal)),
                  RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(classedJob(Priority::Normal)),
              RequestQueue::Admit::QueueFull);

    // Recovery restores the full depth.
    queue.setBrownout(false);
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(queue.tryPush(classedJob(Priority::Normal)),
                  RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(classedJob(Priority::Batch)),
              RequestQueue::Admit::QueueFull);
    queue.markDone(queue.drain(8).size());
    expectLedgerCoherent(queue.stats(), /*checkCompleted=*/false);
}

TEST(ServeQueue, ExplicitBrownoutDepthOverridesTheDefault)
{
    RequestQueue queue(8, 2);
    queue.setBrownout(true);
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Normal)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Normal)),
              RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(classedJob(Priority::Normal)),
              RequestQueue::Admit::QueueFull);
}

TEST(ServeQueue, PerClassCompletionKeepsClassLedgersCoherent)
{
    RequestQueue queue(8);
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Batch)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Interactive)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(classedJob(Priority::Interactive)),
              RequestQueue::Admit::Accepted);

    auto batch = queue.drain(8);
    ASSERT_EQ(batch.size(), 3u);
    std::array<uint64_t, kPriorityClasses> byClass{};
    for (const QueuedJob &job : batch)
        ++byClass[static_cast<size_t>(job.priority)];
    queue.markDone(byClass);

    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.classes[0].completed, 1u);
    EXPECT_EQ(stats.classes[2].completed, 2u);
    EXPECT_EQ(stats.completed, 3u);
    expectLedgerCoherent(stats);
}

// ----------------------------------------------------- claimed slots

/** Retire one claimed or drained job of `priority`. */
void
retireOne(RequestQueue &queue, Priority priority)
{
    std::array<uint64_t, kPriorityClasses> done{};
    done[static_cast<size_t>(priority)] = 1;
    queue.markDone(done);
}

TEST(ServeQueue, ClaimIsRefusedUnlessTheQueueIsIdleAndASlotIsFree)
{
    // Something queued, in any class: a claim never overtakes it.
    {
        RequestQueue queue(8, 0, 2);
        ASSERT_EQ(queue.tryPush(classedJob(Priority::Batch)),
                  RequestQueue::Admit::Accepted);
        EXPECT_FALSE(queue.tryClaim(Priority::Interactive));
        EXPECT_FALSE(queue.tryClaim(Priority::Batch));
    }
    // Every slot inflight, claimed or drained.
    {
        RequestQueue queue(8, 0, 2);
        ASSERT_TRUE(queue.tryClaim(Priority::Normal));
        ASSERT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
        ASSERT_EQ(queue.drain(4).size(), 1u);
        EXPECT_FALSE(queue.tryClaim(Priority::Normal));
        retireOne(queue, Priority::Normal);
        EXPECT_TRUE(queue.tryClaim(Priority::Normal));
    }
    // At depth, with slots to spare; in brownout the depth is halved.
    {
        RequestQueue queue(2, 1, 4);
        ASSERT_TRUE(queue.tryClaim(Priority::Normal));
        ASSERT_TRUE(queue.tryClaim(Priority::Normal));
        EXPECT_FALSE(queue.tryClaim(Priority::Interactive));
        retireOne(queue, Priority::Normal);
        queue.setBrownout(true);
        EXPECT_FALSE(queue.tryClaim(Priority::Interactive));
    }
    // Batch class during brownout; the other classes still claim.
    {
        RequestQueue queue(8, 0, 2);
        queue.setBrownout(true);
        EXPECT_FALSE(queue.tryClaim(Priority::Batch));
        EXPECT_TRUE(queue.tryClaim(Priority::Normal));
    }
    // Shutting down.
    {
        RequestQueue queue(8, 0, 2);
        queue.beginShutdown();
        EXPECT_FALSE(queue.tryClaim(Priority::Interactive));
    }
}

TEST(ServeQueue, RefusedClaimsCountNothingAndTheLedgerHolds)
{
    RequestQueue queue(8, 0, 2);
    ASSERT_TRUE(queue.tryClaim(Priority::Interactive));
    ASSERT_TRUE(queue.tryClaim(Priority::Batch));
    EXPECT_FALSE(queue.tryClaim(Priority::Normal)); // both slots taken
    QueueStats stats = queue.stats();
    EXPECT_EQ(stats.enqueued, 2u);
    EXPECT_EQ(stats.inflight, 2u);
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.highWater, 2u);
    EXPECT_EQ(stats.rejected(), 0u);
    EXPECT_EQ(stats.classes[2].enqueued, 1u);
    EXPECT_EQ(stats.classes[0].enqueued, 1u);
    expectLedgerCoherent(stats);

    ASSERT_EQ(queue.tryPush(classedJob(Priority::Normal)),
              RequestQueue::Admit::Accepted);
    retireOne(queue, Priority::Interactive);
    expectLedgerCoherent(queue.stats());
    auto batch = queue.drain(4);
    ASSERT_EQ(batch.size(), 1u);
    retireOne(queue, Priority::Normal);
    retireOne(queue, Priority::Batch);

    stats = queue.stats();
    EXPECT_EQ(stats.enqueued, 3u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(stats.classes[0].completed, 1u);
    EXPECT_EQ(stats.classes[1].completed, 1u);
    EXPECT_EQ(stats.classes[2].completed, 1u);
    expectLedgerCoherent(stats);
}

TEST(ServeQueue, DrainWaitsWhileClaimsHoldEverySlot)
{
    RequestQueue queue(8, 0, 1);
    ASSERT_TRUE(queue.tryClaim(Priority::Normal));
    ASSERT_EQ(queue.tryPush(noopJob(5)), RequestQueue::Admit::Accepted);

    std::atomic<bool> drained{false};
    std::vector<QueuedJob> batch;
    std::thread worker([&] {
        batch = queue.drain(1);
        drained.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(drained.load()) << "a drain took a job past the slots";
    EXPECT_EQ(queue.stats().queued, 1u);

    retireOne(queue, Priority::Normal); // frees the slot, wakes the drain
    worker.join();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(tagOf(batch[0]), 5u);
    EXPECT_EQ(queue.stats().inflight, 1u);
    queue.markDone(1);
}

} // namespace
