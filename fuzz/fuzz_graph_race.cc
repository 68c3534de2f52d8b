/** libFuzzer target: the inhibited graph race against its row sweep
 *  and raceDag with inhibit times, field for field (see
 *  fuzz/harness.h). */

#include "fuzz/harness.h"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    return racelogic::fuzz::graphRaceInput(data, size);
}
