/** libFuzzer target: the edit-grid race against its reference row
 *  sweep, field for field (see fuzz/harness.h). */

#include "fuzz/harness.h"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    return racelogic::fuzz::raceInput(data, size);
}
