// epoxie: the link-time binary rewriter (the paper's primary tool, §3.2).
//
// Epoxie consumes a relocatable EWO object and produces an instrumented
// object plus the static per-block information the trace-parsing library
// needs.  The instrumented object is then linked normally; because all
// address uses are visible in the symbol/relocation tables, *every* address
// correction is static — the hallmark that distinguishes epoxie from pixie.
//
// Instrumentation (epoxie mode), exactly as in the paper's Figure 2:
//
//   * each basic block is preceded by a three-instruction header
//         sw   ra, SAVED_RA(xreg3)     # jal will clobber ra
//         jal  bbtrace
//         li   zero, N                 # delay slot: words of trace the
//                                      # block generates (bb word + mem ops)
//     bbtrace stores its return address — the "key" — as the trace entry;
//     at analysis time a lookup table maps the key back to the block's
//     address in the original, uninstrumented binary;
//
//   * each memory instruction becomes "jal memtrace" with the memory
//     instruction in the branch delay slot; memtrace partially decodes the
//     delay-slot word (base register + 16-bit offset) to compute and record
//     the effective address;
//
//   * hazard cases (the instruction reads/writes ra, sits in a branch delay
//     slot, or touches a stolen register) use a surrogate no-op in the delay
//     slot — an addiu to $zero with the same base register and offset — and
//     issue the real instruction separately;
//
//   * uses of the three stolen registers are bracketed in "shadow windows"
//     that spill the tracing state and operate on shadow values kept in the
//     bookkeeping area.
//
// Pixie mode is the baseline the paper compares against: a bigger
// per-block header that performs a runtime translation-table lookup, no
// delay-slot packing, and a translation table in the data segment.  It
// reproduces the 4–6x text growth of pixie/QPT (§3.2 footnote).
#ifndef WRLTRACE_EPOXIE_EPOXIE_H_
#define WRLTRACE_EPOXIE_EPOXIE_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obj/object_file.h"

namespace wrl {

enum class InstrumentMode { kEpoxie, kPixie };

// Liveness-driven scavenging is the default; WRL_SCAVENGE=0 forces the
// unconditional (paper-literal) emission so the bit-identity invariant
// stays A/B-testable.
inline bool ScavengeEnabled() {
  const char* env = std::getenv("WRL_SCAVENGE");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

// Symbol naming the bookkeeping area in the traced address space.  The
// link environment binds it: user links provide an absolute symbol at the
// fixed per-process page (kUserBkBase); kernel links define it in kseg0
// data.  Epoxie references it through hi16/lo16 relocations, so the
// correction is — like everything else — static.
inline constexpr const char* kBookkeepingSymbol = "bk_area";
// Names of the support routines the instrumented code calls.
inline constexpr const char* kBbtraceSymbol = "bbtrace";
inline constexpr const char* kMemtraceSymbol = "memtrace";

struct EpoxieConfig {
  InstrumentMode mode = InstrumentMode::kEpoxie;
  // Register scavenging (epoxie mode only): run interprocedural liveness
  // over the input and (a) elide the header `sw ra` save where `$ra` is
  // provably dead at the block leader, (b) redirect shadow windows through
  // a provably dead scratch register instead of spilling the tracing state
  // through $at to the bookkeeping area.  The parsed reference stream is
  // bit-identical either way; only text growth and trace-time dilation
  // shrink.  wrlverify's liveness-proof pass independently re-derives the
  // safety of every elision.
  bool scavenge = ScavengeEnabled();
};

// One memory operation within a basic block: its instruction index in the
// *original* block, whether it stores, and the access width.
struct MemOpStatic {
  uint16_t index = 0;
  bool is_store = false;
  uint8_t bytes = 4;
};

// Static description of one instrumented basic block (the paper's "static
// information about the binary image", §3.2/§3.5).
struct BlockStatic {
  uint32_t key_offset = 0;   // Instrumented-text offset of bbtrace's return point.
  uint32_t orig_offset = 0;  // Original-text offset of the block leader.
  uint32_t num_insts = 0;    // Instructions in the original block.
  uint32_t flags = 0;        // BlockFlags (idle markers, hand-traced, ...).
  // Total instrumented words the block became (header + rewritten body),
  // so per-block text dilation — and the epoxie-inserted instructions a
  // profiler charges back to the block — is exact, not modeled.
  uint32_t instr_words = 0;
  std::vector<MemOpStatic> mem_ops;
};

struct InstrumentResult {
  ObjectFile object;
  std::vector<BlockStatic> blocks;
  uint32_t original_text_words = 0;
  uint32_t instrumented_text_words = 0;
  // Data-segment growth (pixie mode's translation table).
  uint32_t added_data_bytes = 0;
  // Scavenging outcome (zero when EpoxieConfig::scavenge is off): header
  // `sw ra` saves elided, and shadow windows redirected through a dead
  // scratch register instead of the spill/reload protocol.
  uint32_t elided_ra_saves = 0;
  uint32_t scavenged_windows = 0;

  double TextGrowthFactor() const {
    return original_text_words == 0
               ? 1.0
               : static_cast<double>(instrumented_text_words) / original_text_words;
  }
};

// Rewrites `input`.  Blocks flagged kBlockNoTrace or kBlockHandTraced are
// copied verbatim (their branches are still retargeted).  Throws wrl::Error
// on constructs epoxie cannot rewrite (documented in DESIGN.md): control
// transfers that touch stolen registers, instrumentable instructions that
// use both $at and a stolen register, or labels that land on delay slots.
InstrumentResult Instrument(const ObjectFile& input, const EpoxieConfig& config);

}  // namespace wrl

#endif  // WRLTRACE_EPOXIE_EPOXIE_H_
