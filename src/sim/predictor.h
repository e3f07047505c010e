// The trace-driven memory-system simulation and execution-time predictor —
// the analysis program of Figure 1, producing the *predicted* columns of
// Tables 2 and 3.
//
// Predicted time is the sum of four components (paper §5.1):
//   * one CPU cycle per (non-idle) traced instruction;
//   * memory-system stall cycles: I-cache misses, D-cache read misses,
//     uncached reads, and write-buffer stalls, simulated on the same
//     MemorySystem model the machine uses, with virtual-to-physical
//     translation supplied by the page-mapping policy (§4.2);
//   * arithmetic stalls, estimated pixie-style by decoding multiply/divide
//     instructions in the *original* binary images at the traced addresses;
//   * I/O stalls, estimated by scaling the idle-loop instruction count from
//     the trace by the instrumentation dilation factor (~15).
//
// Known, deliberate imperfections (the paper's §5.1 error sources): no
// pipeline overlap, no exception entry/exit cycles, approximate disk/idle
// scaling, approximate page mapping under Mach's random policy, and TLB
// replacement randomness.
//
// One simulator prices several memory systems at once.  Its event pass —
// the instruction, idle and arithmetic counters, the TLB with its
// synthesized handler references, and page translation — depends only on
// the reference stream, which the TLB wiring and the page map fix.  Every
// memory system that shares that stream is a *lane* of the pass, with its
// own caches, write buffer, clock and user/kernel stall split, charged by
// one routine per reference, so each lane's Prediction is exactly what a
// simulator of its own would report.
#ifndef WRLTRACE_SIM_PREDICTOR_H_
#define WRLTRACE_SIM_PREDICTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "mach/address_space.h"
#include "memsys/memsys.h"
#include "obj/object_file.h"
#include "sim/tlb_sim.h"
#include "trace/parser.h"

namespace wrl {

// Virtual page -> physical frame, per process (pid, vpn) -> pfn.
using PageMapFn = std::function<uint32_t(uint32_t pid, uint32_t vpn)>;

// The analysis-side virtual-to-physical translation, shared by the
// trace-driven simulator and the sweep engine so every consumer of the
// reference stream indexes the physically-indexed caches identically:
// kseg0/kseg1 strip the segment bits; kseg2 page-table pages use a stable
// synthetic mapping inside the PT pool (runtime frames are unknowable from
// the trace — a tiny and deliberate approximation); kuseg goes through the
// page-mapping policy, with kernel references attributed to pid 1.
//
// kuseg frames are memoized in a direct-mapped table keyed on the whole
// (pid, VPN) pair, so the policy runs once per memo miss instead of once
// per reference.  That is exact because a page map is a pure function
// (PredictorConfig::page_map).
class PageTranslator {
 public:
  explicit PageTranslator(PageMapFn page_map)
      : page_map_(std::move(page_map)), memo_(page_map_ ? kMemoSlots : 0) {}

  uint32_t Translate(const TraceRef& ref) {
    uint32_t vaddr = ref.addr;
    if (InKseg0(vaddr) || InKseg1(vaddr)) {
      return vaddr & 0x1fffffffu;
    }
    if (InKseg2(vaddr)) {
      return 0x00600000u | (vaddr & 0x001ff000u) | (vaddr & 0xfffu);
    }
    uint32_t pid = ref.pid == kKernelPid ? 1 : ref.pid;
    return (Frame(pid, vaddr >> 12) << 12) | (vaddr & 0xfffu);
  }

 private:
  static constexpr unsigned kMemoBits = 10;
  static constexpr size_t kMemoSlots = size_t{1} << kMemoBits;
  // kuseg VPNs take 19 bits and pids 8, so no key reaches this.
  static constexpr uint32_t kEmpty = 0xffffffffu;

  uint32_t Frame(uint32_t pid, uint32_t vpn) {
    if (!page_map_) {
      return vpn;
    }
    const uint32_t key = (pid << 19) | vpn;
    Slot& slot = memo_[(key * 0x9e3779b1u) >> (32 - kMemoBits)];
    if (slot.key != key) {
      slot.pfn = page_map_(pid, vpn);  // May throw: tag the slot after.
      slot.key = key;
    }
    return slot.pfn;
  }

  struct Slot {
    uint32_t key = kEmpty;
    uint32_t pfn = 0;
  };
  PageMapFn page_map_;
  std::vector<Slot> memo_;
};

struct PredictorConfig {
  MemSysConfig memsys;
  // The idle-loop scaling factor compensating for time dilation.
  double dilation = 15.0;
  // Must be a pure function of (pid, vpn): same arguments, same frame,
  // no matter when or how often it is called.  PageTranslator memoizes it.
  PageMapFn page_map;
  // Wired entries of the simulated TLB (replay sweeps vary this).
  unsigned tlb_wired = 8;
};

struct Prediction {
  uint64_t instructions = 0;       // Traced instructions (incl. idle).
  uint64_t idle_instructions = 0;  // Idle-loop instructions in the trace.
  uint64_t mem_stall_cycles = 0;
  uint64_t arith_stall_cycles = 0;
  double io_stall_cycles = 0;      // Idle estimate after dilation scaling.
  uint64_t utlb_misses = 0;        // Table 3's predicted value.
  uint64_t synthesized_refs = 0;
  MemSysStats memsys_stats;
  // Per-mode breakdown (kernel vs user), for CPI comparisons (§3.4).
  uint64_t user_instructions = 0;
  uint64_t kernel_instructions = 0;  // Excluding idle.
  uint64_t user_stall_cycles = 0;
  uint64_t kernel_stall_cycles = 0;

  bool operator==(const Prediction&) const = default;

  double UserCpi() const {
    return user_instructions == 0
               ? 0
               : 1.0 + static_cast<double>(user_stall_cycles) / user_instructions;
  }
  double KernelCpi() const {
    return kernel_instructions == 0
               ? 0
               : 1.0 + static_cast<double>(kernel_stall_cycles) / kernel_instructions;
  }

  double PredictedCycles() const {
    return static_cast<double>(instructions - idle_instructions) +
           static_cast<double>(mem_stall_cycles) + static_cast<double>(arith_stall_cycles) +
           io_stall_cycles;
  }
};

// Consumes the reconstructed reference stream (feed it as the parser's
// batch sink, or per-ref through OnRef) and produces the prediction of each
// of its memory-system lanes.  Lane 0 is `config.memsys`.
class TraceDrivenSimulator : public RefBatchSink {
 public:
  explicit TraceDrivenSimulator(const PredictorConfig& config);

  // Registers an original binary image so arithmetic stalls can be
  // estimated pixie-style from its text.  Each word's stall cycles are
  // decoded once, here; the image must not change afterwards.
  void AddTextImage(const Executable& exe);

  // Adds a memory-system lane priced on this simulator's stream and
  // returns its index.  Call before the first reference; after it, this
  // throws wrl::InternalError.
  size_t AddMemorySystem(const MemSysConfig& memsys);

  void OnRef(const TraceRef& ref);
  // Batched entry point: the same per-reference step in a tight loop, with
  // the per-call sink indirection amortized away.  Identical results.
  void OnRefBatch(const TraceRef* refs, size_t count) override;
  // Finalizes and returns lane 0's prediction.
  Prediction Finish();
  // Lane `lane`'s prediction, after Finish(): the event pass's counters
  // with that lane's memory-system stalls.
  Prediction prediction(size_t lane) const;

  const TlbSimulator& tlb() const { return tlb_; }

  // Binds the running prediction counters of lane 0, its memory system
  // (under `<prefix>memsys.`), and the TLB simulator (under
  // `<prefix>tlbsim.`) into `registry`.  Snapshot after Finish() for final
  // values; the simulator must outlive snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "predictor.");

 private:
  // One memory system priced on the event pass's stream.
  struct Lane {
    explicit Lane(const MemSysConfig& config) : memsys(config) {}

    MemorySystem memsys;
    uint64_t now = 0;  // Simulated cycle time driving the write buffer.
    uint64_t mem_stall_cycles = 0;
    uint64_t user_stall_cycles = 0;
    uint64_t kernel_stall_cycles = 0;
  };

  // The per-reference step over a batch; kMoreLanes says whether lanes
  // beyond lane 0 exist.
  template <bool kMoreLanes>
  void Walk(const TraceRef* refs, size_t count);
  // Translates `ref` once and charges it to every lane, in the given mode.
  template <bool kMoreLanes>
  void Access(const TraceRef& ref, bool kernel);
  // Arithmetic-stall cycles of the original instruction at a word-aligned
  // text address (0 outside every registered image).
  unsigned ArithStallAt(uint32_t addr) const;

  PredictorConfig config_;
  TlbSimulator tlb_;
  PageTranslator translator_;
  // The event pass's counters; the memory-system fields stay zero, since
  // each lane keeps its own.
  Prediction events_;
  // Lane 0, a member so the single-lane case addresses it directly, and
  // lanes 1 and up.
  Lane lane0_;
  std::vector<Lane> more_lanes_;

  struct Image {
    uint32_t base;
    std::vector<uint8_t> stall_cycles;  // Per original text word.
  };
  std::vector<Image> images_;
};

}  // namespace wrl

#endif  // WRLTRACE_SIM_PREDICTOR_H_
