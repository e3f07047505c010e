// Seeded workload inputs for the benchmark.
//
// The program under test only ever sees generated input files: each paper
// workload's files are regenerated from the benchmark seed with the same
// size and the same byte distribution as the PaperWorkloads generators in
// src/workloads (same SplitMix64 stream from support/rng.h, same word list,
// alphabets, and run structure).  Seed 0 reproduces today's inputs byte for
// byte, and SeededWorkloads() asserts that on every call, so a drift between
// these generators and the program's own fails loudly instead of silently
// measuring different inputs.
#ifndef WRLBENCH_INPUTS_H_
#define WRLBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "workloads/workloads.h"

namespace wrlbench {

// The twelve paper workloads at `scale`, with every input file regenerated
// from `seed` (0 = the program's defaults).  Throws wrl::Error when a
// workload has an input file this benchmark does not know how to generate,
// or when the seed-0 regeneration differs from the program's bytes.
std::vector<wrl::WorkloadSpec> SeededWorkloads(double scale, uint64_t seed);

}  // namespace wrlbench

#endif  // WRLBENCH_INPUTS_H_
