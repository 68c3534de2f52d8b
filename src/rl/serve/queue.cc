#include "rl/serve/queue.h"

#include <algorithm>

#include "rl/util/logging.h"

namespace racelogic::serve {

namespace {

/**
 * Round-robin drain quota per class, indexed by Priority.  Every
 * non-empty class gets at least one slot per round, so batch can be
 * delayed by interactive bursts but never starved.
 */
constexpr size_t kDrainWeight[kPriorityClasses] = {1, 2, 4};

size_t
classIndex(Priority priority)
{
    return static_cast<size_t>(priority);
}

} // namespace

void
RequestQueue::JobFifo::push_back(QueuedJob job)
{
    if (jobs.size() == jobs.capacity() && head > 0) {
        jobs.erase(jobs.begin(), jobs.begin() + static_cast<ptrdiff_t>(head));
        head = 0;
    }
    jobs.push_back(std::move(job));
}

void
RequestQueue::JobFifo::pop_front()
{
    if (++head == jobs.size()) {
        jobs.clear();
        head = 0;
    }
}

void
RequestQueue::JobFifo::pop_back()
{
    jobs.pop_back();
    if (head == jobs.size()) {
        jobs.clear();
        head = 0;
    }
}

RequestQueue::RequestQueue(size_t depth, size_t brownoutDepth,
                           size_t workers)
    : capacity(depth),
      brownoutCapacity(brownoutDepth == 0
                           ? std::max<size_t>(1, depth / 2)
                           : std::min(depth,
                                      std::max<size_t>(1, brownoutDepth))),
      slots(workers == 0 ? depth : workers)
{
    rl_assert(depth > 0, "a zero-depth queue admits nothing");
    for (JobFifo &fifo : jobs)
        fifo.reserve(depth);
}

size_t
RequestQueue::effectiveDepth() const
{
    return brownoutActive ? brownoutCapacity : capacity;
}

RequestQueue::Admit
RequestQueue::tryPush(QueuedJob job, QueuedJob *evicted, bool wake)
{
    std::unique_lock<std::mutex> lock(mutex);
    if (shuttingDown) {
        ++counters.rejectedShutdown;
        return Admit::ShuttingDown;
    }
    const size_t cls = classIndex(job.priority);
    if (brownoutActive && job.priority == Priority::Batch) {
        ++counters.rejectedResource;
        ++counters.classes[cls].rejectedResource;
        return Admit::Brownout;
    }
    const uint64_t outstanding = counters.queued + counters.inflight;
    if (outstanding >= effectiveDepth()) {
        // Shed-lowest-first: a higher class may claim the slot of the
        // newest queued job in the lowest occupied class below it.
        // The victim still gets a typed QueueFull reply -- the caller
        // runs evicted->onShed off this lock.
        bool tookSlot = false;
        if (evicted != nullptr) {
            for (size_t victim = 0; victim < cls; ++victim) {
                if (jobs[victim].empty())
                    continue;
                *evicted = std::move(jobs[victim].back());
                jobs[victim].pop_back();
                --counters.queued;
                --counters.classes[victim].queued;
                ++counters.shedEvicted;
                ++counters.classes[victim].shedEvicted;
                tookSlot = true;
                break;
            }
        }
        if (!tookSlot) {
            ++counters.rejectedQueueFull;
            ++counters.classes[cls].rejectedQueueFull;
            return Admit::QueueFull;
        }
    }
    jobs[cls].push_back(std::move(job));
    ++counters.enqueued;
    ++counters.queued;
    ++counters.classes[cls].enqueued;
    ++counters.classes[cls].queued;
    counters.highWater =
        std::max(counters.highWater, counters.queued + counters.inflight);
    // Notify off the lock: a woken worker would otherwise block at
    // once on the mutex this thread still holds.
    lock.unlock();
    if (wake)
        readable.notify_one();
    return Admit::Accepted;
}

void
RequestQueue::wake(size_t jobs)
{
    for (size_t i = 0; i < std::min(jobs, slots); ++i)
        readable.notify_one();
}

bool
RequestQueue::tryClaim(Priority priority)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (shuttingDown || (brownoutActive && priority == Priority::Batch) ||
        counters.queued > 0 || counters.inflight >= slots ||
        counters.inflight >= effectiveDepth())
        return false;
    ClassStats &slice = counters.classes[classIndex(priority)];
    ++counters.enqueued;
    ++counters.inflight;
    ++slice.enqueued;
    counters.highWater = std::max(counters.highWater, counters.inflight);
    return true;
}

void
RequestQueue::noteRejected(Status status, Priority priority)
{
    std::lock_guard<std::mutex> lock(mutex);
    switch (status) {
    case Status::Oversized: ++counters.rejectedOversized; break;
    case Status::BadRequest: ++counters.rejectedBadRequest; break;
    case Status::ResourceExhausted:
        ++counters.rejectedResource;
        ++counters.classes[classIndex(priority)].rejectedResource;
        break;
    case Status::QueueFull:
        ++counters.rejectedQueueFull;
        ++counters.classes[classIndex(priority)].rejectedQueueFull;
        break;
    case Status::ShuttingDown: ++counters.rejectedShutdown; break;
    case Status::DeadlineExceeded:
        // Shedding is accounted at drain time (shedDeadline), and a
        // deadline that expires mid-race still completes its job.
        rl_panic("DeadlineExceeded is not an admission verdict");
    case Status::Ok:
        rl_panic("noteRejected(Ok) makes no sense");
    }
}

std::vector<QueuedJob>
RequestQueue::drain(size_t max, std::vector<QueuedJob> *shed)
{
    std::vector<QueuedJob> batch;
    std::unique_lock<std::mutex> lock(mutex);
    drainLocked(lock, max, batch, shed);
    return batch;
}

void
RequestQueue::drain(size_t max, std::vector<QueuedJob> &batch,
                    std::vector<QueuedJob> &shed,
                    const std::array<uint64_t, kPriorityClasses> &done)
{
    batch.clear();
    shed.clear();
    std::unique_lock<std::mutex> lock(mutex);
    retireLocked(done);
    drainLocked(lock, max, batch, &shed);
}

void
RequestQueue::drainLocked(std::unique_lock<std::mutex> &lock, size_t max,
                          std::vector<QueuedJob> &batch,
                          std::vector<QueuedJob> *shed)
{
    rl_assert(max > 0, "drain batch must hold at least one job");
    // A queued job waits for a free slot even during shutdown: the
    // claims and drains holding the slots retire, and markDone()
    // wakes a drain.
    readable.wait(lock, [&] {
        return counters.queued > 0 ? counters.inflight < slots
                                   : shuttingDown;
    });

    // Shed-at-drain, not shed-at-push: the one worker that pops a job
    // checks its expiry under this lock, so a shed job can never race
    // its own execution.
    const auto now = std::chrono::steady_clock::now();

    batch.reserve(std::min<uint64_t>(max, counters.queued));
    // Weighted round-robin, highest class first, resumed across drains
    // so one-job drains keep the weights.  Deadline sheds consume no
    // quota or batch slot; within a class jobs leave in FIFO order.
    while (counters.queued > 0 && batch.size() < max &&
           counters.inflight < slots) {
        if (roundQuota == 0 || jobs[roundClass].empty()) {
            roundClass = (roundClass + kPriorityClasses - 1) %
                         kPriorityClasses;
            roundQuota = kDrainWeight[roundClass];
            continue;
        }
        JobFifo &fifo = jobs[roundClass];
        ClassStats &slice = counters.classes[roundClass];
        --counters.queued;
        --slice.queued;
        if (shed != nullptr && fifo.front().deadline <= now) {
            shed->push_back(std::move(fifo.front()));
            ++counters.shedDeadline;
            ++slice.shedDeadline;
        } else {
            batch.push_back(std::move(fifo.front()));
            ++counters.inflight;
            --roundQuota;
        }
        fifo.pop_front();
    }
}

void
RequestQueue::markDone(size_t n)
{
    std::unique_lock<std::mutex> lock(mutex);
    rl_assert(counters.inflight >= n,
              "markDone() retires more jobs than are inflight");
    counters.inflight -= n;
    counters.completed += n;
    wakeForFreedSlot(lock);
}

void
RequestQueue::markDone(const std::array<uint64_t, kPriorityClasses> &byClass)
{
    std::unique_lock<std::mutex> lock(mutex);
    retireLocked(byClass);
    wakeForFreedSlot(lock);
}

void
RequestQueue::wakeForFreedSlot(std::unique_lock<std::mutex> &lock)
{
    // A drain may be waiting for the slot just freed; notify off the
    // lock, as tryPush() does.
    const bool waiting = counters.queued > 0;
    lock.unlock();
    if (waiting)
        readable.notify_one();
}

void
RequestQueue::retireLocked(const std::array<uint64_t, kPriorityClasses> &done)
{
    uint64_t n = 0;
    for (uint64_t count : done)
        n += count;
    rl_assert(counters.inflight >= n,
              "markDone() retires more jobs than are inflight");
    counters.inflight -= n;
    counters.completed += n;
    for (size_t c = 0; c < kPriorityClasses; ++c)
        counters.classes[c].completed += done[c];
}

void
RequestQueue::setBrownout(bool active)
{
    std::lock_guard<std::mutex> lock(mutex);
    brownoutActive = active;
}

bool
RequestQueue::brownout() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return brownoutActive;
}

void
RequestQueue::beginShutdown()
{
    std::lock_guard<std::mutex> lock(mutex);
    shuttingDown = true;
    readable.notify_all();
}

QueueStats
RequestQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

} // namespace racelogic::serve
