#include "inputs.h"

#include <string>

#include "support/error.h"
#include "support/rng.h"

namespace wrlbench {
namespace {

enum class Gen { kText, kBinary, kToken };

// One generated input file of a paper workload: which generator shape made
// it, the seed the program uses, and the token alphabet (kToken only).
struct InputGen {
  const char* file;
  Gen gen;
  uint64_t base_seed;
  uint8_t alphabet;
};

constexpr InputGen kInputs[] = {
    {"sed.in", Gen::kText, 101, 0},     {"egrep.in", Gen::kText, 202, 0},
    {"yacc.in", Gen::kToken, 303, 16},  {"gcc.in", Gen::kText, 404, 0},
    {"comp.in", Gen::kBinary, 505, 0},  {"esp.in", Gen::kToken, 606, 255},
    {"eqn.in", Gen::kToken, 707, 255},
};

// The three generator shapes of src/workloads/workloads.cc.
std::vector<uint8_t> TextFile(size_t bytes, uint64_t seed) {
  wrl::Rng rng(seed);
  std::vector<uint8_t> out;
  out.reserve(bytes);
  static const char* kWords[] = {"the",  "quick", "brown", "fox",   "jumps", "over",
                                 "lazy", "dog",   "cache", "trace", "tlb",   "kernel"};
  while (out.size() < bytes) {
    for (const char* p = kWords[rng.Below(12)]; *p != '\0'; ++p) {
      out.push_back(static_cast<uint8_t>(*p));
    }
    out.push_back(rng.Below(12) == 0 ? '\n' : ' ');
  }
  out.resize(bytes);
  return out;
}

std::vector<uint8_t> BinaryFile(size_t bytes, uint64_t seed) {
  wrl::Rng rng(seed);
  std::vector<uint8_t> out(bytes);
  size_t i = 0;
  while (i < out.size()) {
    uint8_t value = static_cast<uint8_t>(rng.Below(64));
    uint32_t run = 1 + rng.Below(12);
    for (uint32_t j = 0; j < run && i < out.size(); ++j) {
      out[i++] = value + static_cast<uint8_t>(j & 3);
    }
  }
  return out;
}

std::vector<uint8_t> TokenFile(size_t bytes, uint64_t seed, uint8_t alphabet) {
  wrl::Rng rng(seed);
  std::vector<uint8_t> out(bytes);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng.Below(alphabet));
  }
  return out;
}

std::vector<uint8_t> Generate(const InputGen& input, size_t bytes, uint64_t seed) {
  switch (input.gen) {
    case Gen::kText:
      return TextFile(bytes, seed);
    case Gen::kBinary:
      return BinaryFile(bytes, seed);
    case Gen::kToken:
      return TokenFile(bytes, seed, input.alphabet);
  }
  return {};
}

const InputGen& Lookup(const std::string& file) {
  for (const InputGen& input : kInputs) {
    if (file == input.file) {
      return input;
    }
  }
  throw wrl::Error("wrlbench: no input generator for workload file '" + file + "'");
}

}  // namespace

std::vector<wrl::WorkloadSpec> SeededWorkloads(double scale, uint64_t seed) {
  std::vector<wrl::WorkloadSpec> workloads = wrl::PaperWorkloads(scale);
  for (wrl::WorkloadSpec& workload : workloads) {
    for (wrl::DiskFile& file : workload.files) {
      if (file.content.empty()) {
        continue;  // Output file: capacity only.
      }
      const InputGen& input = Lookup(file.name);
      if (Generate(input, file.content.size(), input.base_seed) != file.content) {
        throw wrl::Error("wrlbench: seed-0 regeneration of '" + file.name +
                         "' differs from the program's input");
      }
      // Seed 0 keeps the program's own seed; other seeds move every file to
      // an unrelated SplitMix64 stream.
      file.content =
          Generate(input, file.content.size(), input.base_seed + seed * 0x9e3779b97f4a7c15ULL);
    }
  }
  return workloads;
}

}  // namespace wrlbench
