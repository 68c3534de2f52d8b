/**
 * A counting global operator new for the traced run: every heap
 * allocation through new/new[] (plain, nothrow and over-aligned) bumps
 * a call count and a byte count, so allocations per solve are a
 * deterministic counter instead of a timing.
 */

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "count_new.h"

namespace {

std::atomic<uint64_t> gAllocs{0};
std::atomic<uint64_t> gBytes{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    gBytes.fetch_add(n, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench {

AllocCounts
allocCounts()
{
    return {gAllocs.load(std::memory_order_relaxed),
            gBytes.load(std::memory_order_relaxed)};
}

} // namespace perfbench

void *
operator new(std::size_t n)
{
    return countedAlloc(n, 0);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    return countedAlloc(n, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return countedAlloc(n, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
