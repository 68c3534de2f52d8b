#include "rl/core/scratch_registry.h"

namespace racelogic::core {

ScratchRegistry &
ScratchRegistry::instance()
{
    // Leaked on purpose: thread_local scratch destructors may run
    // after static destruction would have torn this down.
    static ScratchRegistry *registry = new ScratchRegistry();
    return *registry;
}

ScratchEntry &
ScratchRegistry::registerEntry(std::function<size_t(bool)> probe)
{
    std::lock_guard<std::mutex> lock(mutex);
    // Take over a tombstone first: threads come and go (a serve
    // connection thread solves too), and the list must not grow with
    // every thread that ever raced.  `busy` guards `probe`; a slot
    // busy right now is live.
    for (ScratchEntry *entry : entries) {
        if (!entry->busy.try_lock())
            continue;
        const bool tombstone = !entry->probe;
        if (tombstone)
            entry->probe = std::move(probe);
        entry->busy.unlock();
        if (tombstone)
            return *entry;
    }
    ScratchEntry *entry = new ScratchEntry(); // leaked with the registry
    entry->probe = std::move(probe);
    entries.push_back(entry);
    return *entry;
}

size_t
ScratchRegistry::totalResidentBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    size_t total = 0;
    for (const ScratchEntry *entry : entries)
        total += entry->residentBytes.load(std::memory_order_relaxed);
    return total;
}

size_t
ScratchRegistry::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

size_t
ScratchRegistry::shrinkIdle(std::chrono::nanoseconds idle)
{
    const int64_t cutoff =
        (std::chrono::steady_clock::now() - idle).time_since_epoch().count();
    size_t reclaimed = 0;
    // Walked under the registry lock, with no snapshot copy: a pass
    // allocates nothing, and the per-entry try_lock below never
    // waits, so no lock order can form.
    std::lock_guard<std::mutex> lock(mutex);
    for (ScratchEntry *entry : entries) {
        if (entry->lastUseNs.load(std::memory_order_relaxed) > cutoff)
            continue;
        // Never block a solve: a busy entry is by definition not
        // idle, and a later pass will catch it.
        if (!entry->busy.try_lock())
            continue;
        // A tombstone slot: its thread died and retracted the hook.
        if (!entry->probe) {
            entry->busy.unlock();
            continue;
        }
        const size_t before =
            entry->residentBytes.load(std::memory_order_relaxed);
        const size_t after = entry->probe(/*shrink=*/true);
        entry->residentBytes.store(after, std::memory_order_relaxed);
        entry->busy.unlock();
        reclaimed += before > after ? before - after : 0;
    }
    return reclaimed;
}

ScratchRegistration::ScratchRegistration(std::function<size_t(bool)> probe)
    : slot(&ScratchRegistry::instance().registerEntry(std::move(probe)))
{
}

ScratchRegistration::~ScratchRegistration()
{
    // The probe hook points into this thread's dying arena; retract
    // it under the busy mutex so an in-flight shrinker finishes (or
    // never starts) before the arena goes away.
    std::lock_guard<std::mutex> lock(slot->busy);
    slot->probe = nullptr;
    slot->residentBytes.store(0, std::memory_order_relaxed);
}

} // namespace racelogic::core
