// The wide band's step: sixteen 32-bit lanes, compiled for AVX-512F.
#define RL_BAND_STEP_LANE uint32_t
#define RL_BAND_STEP_ISA "avx512f"
#include "rl/core/band_step.h"
