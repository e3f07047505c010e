// The TLB simulator used during trace analysis (paper §4.1).
//
// The traced system deliberately does not trace its UTLB miss handler: the
// instrumented system's doubled text would make the handler's behavior
// unrepresentative.  Instead, the analysis program simulates the TLB of the
// *original* binary from the reconstructed reference stream, counts misses
// (Table 3's predicted column), and synthesizes the handler's own
// references — thirteen instruction fetches at the refill vector and one
// page-table load in kseg2 — which its caller feeds to the cache simulation
// ahead of the reference that missed.
//
// The simulated TLB mirrors the hardware: 64 fully-associative entries,
// eight wired, ASID-tagged, random replacement driven by an instruction
// counter.  The counter here advances with the *simulated* stream, not the
// real machine's, so replacement decisions diverge — the residual
// randomness error the paper observes in §5.2.  The kernel's explicit
// tlbdropin()/tlb_map_random() preloads are likewise invisible here, the
// other named error source.
//
// Real traces almost never miss (a few hundred thousand misses in tens of
// millions of mapped references), so every lookup first checks a hint:
// the index of the entry that last matched the reference's VPN slot.  The
// hint is re-validated with the TLB's own match rule before use and the
// full associative scan runs only when it fails, so it is exact: the
// simulator writes an entry only after a lookup for that (VPN, ASID) found
// nothing, hence no two entries ever match one key, and a matching hinted
// entry is the one the scan would have returned.  (A pid too wide for the
// 6-bit ASID field breaks that uniqueness, but every entry the simulator
// writes is valid, so hit or miss — all a lookup decides here — is still
// the scan's.)
#ifndef WRLTRACE_SIM_TLB_SIM_H_
#define WRLTRACE_SIM_TLB_SIM_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "mach/address_space.h"
#include "mach/tlb.h"
#include "stats/stats.h"
#include "trace/parser.h"

namespace wrl {

struct TlbSimStats {
  uint64_t user_refs = 0;      // kuseg references (either mode).
  uint64_t utlb_misses = 0;    // kuseg misses (the Table 3 number).
  uint64_t ktlb_misses = 0;    // kseg2 misses (slow general-vector path).

  bool operator==(const TlbSimStats&) const = default;
};

class TlbSimulator : public RefBatchSink {
 public:
  // Number of instructions the synthesized UTLB handler executes (our
  // handler: counter maintenance + Context load + tlbwr + return).
  static constexpr unsigned kHandlerInstructions = 13;

  // References of one synthesized handler run: the fetches plus the
  // page-table load.
  static constexpr unsigned kHandlerRefs = kHandlerInstructions + 1;
  // The fetches lie in one kseg0 page, so they are one fetch run
  // (TraceDrivenSimulator, SweepEngine).
  static_assert(kVecUtlbMiss >= kKseg0 && kVecUtlbMiss < kKseg1 &&
                (kVecUtlbMiss & (kPageBytes - 1)) + 4 * kHandlerInstructions <= kPageBytes);

  explicit TlbSimulator(unsigned wired = Tlb::kWired);

  // Processes one reference from the parsed trace.  Returns true if the
  // reference took a UTLB miss, in which case handler() holds the
  // synthesized handler until the next call.  Inline up to a hinted hit,
  // the common case; the rest is OnHintMiss.
  bool OnRef(const TraceRef& ref) {
    if (ref.kind == TraceRef::kIfetch) {
      ++instruction_counter_;
    }
    const uint32_t vaddr = ref.addr;
    if (InKseg0(vaddr) || InKseg1(vaddr)) {
      return false;  // Unmapped segments never touch the TLB.
    }
    const bool kseg2 = InKseg2(vaddr);
    uint8_t asid;
    if (kseg2) {
      // Mapped kernel segment: global entries.
      asid = ref.pid == kKernelPid ? 0 : ref.pid;
    } else {
      // kuseg: the user segment (the kernel also reaches user buffers
      // here).  The ASID must be the *owning* process's: a user reference
      // carries its pid, and the parser tags kernel references with
      // kKernelPid, so those take the ASID of the last user context.
      ++stats_.user_refs;
      if (ref.pid != kKernelPid) {
        asid = ref.pid;
        last_user_asid_ = ref.pid;
      } else {
        asid = last_user_asid_ == 0 ? 1 : last_user_asid_;
      }
    }
    const TlbEntry& hinted = tlb_.entry(hint_[HintSlot(vaddr)]);
    if (hinted.Matches(vaddr >> 12, asid) && (kseg2 || hinted.valid())) {
      return false;
    }
    return OnHintMiss(vaddr, asid, kseg2);
  }
  // Batched entry point: tight loop over OnRef, identical results.
  void OnRefBatch(const TraceRef* refs, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      OnRef(refs[i]);
    }
  }
  // Stands for `count` fetches that follow, on its page and with its pid,
  // the fetch at `vaddr` just passed to OnRef.  Each would take the ASID
  // that fetch took and hit the entry OnRef left present and hinted, since
  // only OnRef refills, so only the counters move.
  void CountPageHits(uint32_t vaddr, uint64_t count) {
    instruction_counter_ += count;
    if (InKuseg(vaddr)) {
      stats_.user_refs += count;
    }
  }

  // The UTLB handler the last miss synthesized: kHandlerInstructions
  // fetches at the refill vector, then the page-table load in kseg2.
  const std::array<TraceRef, kHandlerRefs>& handler() const { return handler_; }

  const TlbSimStats& stats() const { return stats_; }

  // Binds the miss breakdown into `registry`; the simulator must outlive
  // snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "tlbsim.") {
    registry.AddCounter(prefix + "user_refs", &stats_.user_refs);
    registry.AddCounter(prefix + "utlb_misses", &stats_.utlb_misses);
    registry.AddCounter(prefix + "ktlb_misses", &stats_.ktlb_misses);
  }

 private:
  static constexpr unsigned kHintBits = 10;

  // The matching entry for (vaddr, asid): the hinted entry when it matches,
  // else the associative scan (out of line), whose hit becomes the slot's
  // new hint.
  std::optional<unsigned> Find(uint32_t vaddr, uint8_t asid) {
    uint8_t& hint = hint_[HintSlot(vaddr)];
    if (tlb_.entry(hint).Matches(vaddr >> 12, asid)) {
      return hint;
    }
    std::optional<unsigned> index = tlb_.Lookup(vaddr, asid);
    if (index) {
      hint = static_cast<uint8_t>(*index);
    }
    return index;
  }
  // OnRef past a failed hint: the scan, and on a miss the refill (and for
  // kuseg the synthesized handler).
  bool OnHintMiss(uint32_t vaddr, uint8_t asid, bool kseg2);
  // Writes the entry a miss refills and hints it.
  void Refill(uint32_t vaddr, const TlbEntry& entry);
  static unsigned HintSlot(uint32_t vaddr) {
    return ((vaddr >> 12) * 0x9e3779b1u) >> (32 - kHintBits);
  }

  Tlb tlb_;
  // Per VPN slot (Fibonacci hash of the VPN), the entry that last matched.
  std::array<uint8_t, 1u << kHintBits> hint_{};
  uint64_t instruction_counter_ = 0;
  uint8_t last_user_asid_ = 0;
  TlbSimStats stats_;
  std::array<TraceRef, kHandlerRefs> handler_{};
};

}  // namespace wrl

#endif  // WRLTRACE_SIM_TLB_SIM_H_
