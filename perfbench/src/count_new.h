/**
 * @file
 * Heap allocation counts from the counting operator new that only the
 * traced-run binary links (count_new.cc).
 */

#ifndef PERFBENCH_COUNT_NEW_H
#define PERFBENCH_COUNT_NEW_H

#include <cstdint>

namespace perfbench {

struct AllocCounts {
    uint64_t allocs = 0; ///< operator new calls so far
    uint64_t bytes = 0;  ///< bytes they requested
};

AllocCounts allocCounts();

} // namespace perfbench

#endif // PERFBENCH_COUNT_NEW_H
