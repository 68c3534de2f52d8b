// The narrow band's step: thirty-two 16-bit lanes, compiled for
// AVX-512BW.
#define RL_BAND_STEP_LANE uint16_t
#define RL_BAND_STEP_ISA "avx512f,avx512bw"
#include "rl/core/band_step.h"
