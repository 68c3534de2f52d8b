/**
 * @file
 * A memoized scan of a value type's contents, safe under concurrent
 * const readers.
 */

#ifndef RACELOGIC_UTIL_MEMO_H
#define RACELOGIC_UTIL_MEMO_H

#include <atomic>

namespace racelogic::util {

/**
 * The cached result of a deterministic scan of its owner: the first
 * get() runs the scan and later ones read its result, until the
 * owner's next mutation calls reset().  Const readers may share the
 * owner across threads: readers that race to an empty memo each run
 * the scan and store the same value, so every reader sees that value.
 * Copies carry the cached value, so the owner stays copyable.
 */
template <class T>
class Memo
{
  public:
    Memo() = default;
    Memo(const Memo &other) noexcept { *this = other; }

    Memo &
    operator=(const Memo &other) noexcept
    {
        const bool known = other.known_.load(std::memory_order_acquire);
        value_.store(other.value_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        known_.store(known, std::memory_order_release);
        return *this;
    }

    template <class Scan>
    T
    get(Scan scan) const
    {
        if (known_.load(std::memory_order_acquire))
            return value_.load(std::memory_order_relaxed);
        const T value = scan();
        value_.store(value, std::memory_order_relaxed);
        known_.store(true, std::memory_order_release);
        return value;
    }

    /** Forget the value: the owner has changed. */
    void reset() { known_.store(false, std::memory_order_relaxed); }

  private:
    mutable std::atomic<T> value_{};
    mutable std::atomic<bool> known_{false};
};

} // namespace racelogic::util

#endif // RACELOGIC_UTIL_MEMO_H
