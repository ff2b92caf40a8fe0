/**
 * @file
 * The nvl72 LADM golden makespan, shared by the two tests that need
 * it: MultiTierRun.Nvl72LadmMatchesGolden simulates the job and locks
 * it; BoundModel.Nvl72LadmMatchesGoldenBound checks the job's static
 * bound against it without simulating the job a second time.
 */

#ifndef CAIS_TESTS_NVL72_LADM_GOLDEN_HH
#define CAIS_TESTS_NVL72_LADM_GOLDEN_HH

#include "common/types.hh"

namespace cais
{

/** LADM makespan on nvl72 (preset defaults), llama7B().scaled(0.25,
 *  0.125), SubLayer L1: the slowest 72-GPU job of the suite. */
constexpr Cycle nvl72LadmMakespan = 2432792;

} // namespace cais

#endif // CAIS_TESTS_NVL72_LADM_GOLDEN_HH
