// The simulated DS32 machine: CPU core, physical memory, TLB, devices.
//
// The machine plays the role of the paper's DECstation 5000/200.  In
// *timing* mode it charges memory-system stalls (through memsys) and
// multiply/divide latencies, and its cycle counter is the "high resolution
// timer" the paper measures ground truth with (§5.1).  In *functional* mode
// it is the independent "CPU simulator" against which epoxie trace is
// validated (§4.3): the reference-trace hook emits the exact sequence of
// instruction and data references an uninstrumented run performs.
//
// Faithfulness notes:
//   * one architectural branch delay slot (epoxie's packing depends on it);
//   * software-managed TLB, dedicated UTLB refill vector for kuseg misses,
//     general vector for everything else (kseg2 "KTLB" misses included);
//   * R3000-style three-deep KU/IE status stack with rfe;
//   * mult/div busy latencies are the machine's "arithmetic stalls";
//   * exception entry/exit costs extra cycles that the trace-driven
//     predictor knowingly does not model (a named error source in §5.1).
#ifndef WRLTRACE_MACH_MACHINE_H_
#define WRLTRACE_MACH_MACHINE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "isa/isa.h"
#include "mach/address_space.h"
#include "mach/devices.h"
#include "mach/phys_mem.h"
#include "mach/tlb.h"
#include "memsys/memsys.h"
#include "obj/object_file.h"
#include "stats/stats.h"

namespace wrl {

enum class Exc : uint8_t {
  kInt = 0,
  kMod = 1,
  kTlbL = 2,
  kTlbS = 3,
  kAdEL = 4,
  kAdES = 5,
  kSys = 8,
  kBp = 9,
  kRI = 10,
  kOv = 12,
};

// Status register bits (R3000).
enum StatusBits : uint32_t {
  kStatusIEc = 1u << 0,
  kStatusKUc = 1u << 1,  // 1 = user mode.
  kStatusIEp = 1u << 2,
  kStatusKUp = 1u << 3,
  kStatusIEo = 1u << 4,
  kStatusKUo = 1u << 5,
  kStatusImShift = 8,    // IM mask in bits 15:8.
};

// Hardware interrupt lines (bit positions within the IP field).
constexpr unsigned kIrqDisk = 6;
constexpr unsigned kIrqClock = 7;

// One reference in the machine's own (ground-truth) trace.
struct RefEvent {
  enum Kind : uint8_t { kIfetch, kLoad, kStore };
  Kind kind;
  uint32_t vaddr;
  uint8_t bytes;
  bool user_mode;
  uint32_t pc;  // The instruction performing the reference (== vaddr for fetches).
};

// Hardware cost of entering an exception handler (flush + vector fetch),
// which the trace-driven predictor knowingly does not model.
constexpr unsigned kExceptionEntryCycles = 10;

struct MachineConfig {
  uint32_t phys_bytes = 64u << 20;
  bool timing = false;
  MemSysConfig memsys;
  DiskConfig disk;
  // The simulation fast path: a pure optimization.  With it on or off, the
  // architectural state sequence, every counter, and every trace word are
  // byte-identical (tests/fastpath_test.cc holds the machine to that).  On,
  // the machine
  //   * caches Decode() results per physical page, invalidated on stores,
  //     DMA, and image loads into the page (self-modifying code keeps
  //     working), and runs a page at a time (Machine::RunPages lists what
  //     ends a run), with registered trace routines as host steps;
  //   * keeps direct-mapped fetch and data translation tables (64 slots
  //     each, indexed by VPN mod 64) in front of the 64-entry TLB scan,
  //     keyed on (VPN, ASID, user-mode); both flushed on tlbwi/tlbwr,
  //     EntryHi and Status writes, rfe, and exception entry;
  //   * ticks the device models only when the cycle counter crosses the
  //     next computed deadline (clock tick or disk completion).
  // Off, Run calls Step, which decodes from memory, scans the TLB, and ticks
  // the devices once per instruction.  `WRL_FASTPATH=0` in the environment
  // turns it off, for A/B runs without a rebuild.
  bool fastpath = true;
};

// The trace-collection routines of trace/support_asm.h, which the machine
// runs as exact host intrinsics once registered (RegisterTraceRoutine).
enum class TraceRoutine : uint8_t { kBbtrace = 0, kMemtrace = 1 };

// Per TraceRoutine: how often a registered entry was reached in a page run,
// and how often the host step ran the routine instead of the interpreter.
struct TraceRoutineCounts {
  uint64_t entries[2] = {0, 0};
  uint64_t host[2] = {0, 0};
};

struct RunResult {
  bool halted = false;
  uint32_t halt_code = 0;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  // ---- Execution ----
  // Executes one instruction, decoded from memory: the per-instruction
  // reference that Run uses with the fast path off.
  void Step();
  // Runs until halt or the instruction budget is exhausted.  The budget
  // saturates: Run(UINT64_MAX) runs until halt.
  RunResult Run(uint64_t max_instructions);
  bool halted() const { return halted_; }
  uint32_t halt_code() const { return halt_code_; }

  // ---- Architectural state ----
  uint32_t gpr(unsigned i) const { return gpr_[i]; }
  void set_gpr(unsigned i, uint32_t v) {
    if (i != 0) {
      gpr_[i] = v;
    }
  }
  uint32_t pc() const { return pc_; }
  void SetPc(uint32_t pc) {
    pc_ = pc;
    next_pc_ = pc + 4;
    in_delay_ = false;
  }
  uint32_t cop0(unsigned reg) const { return cop0_[reg & 15]; }
  void set_cop0(unsigned reg, uint32_t v) { cop0_[reg & 15] = v; }
  bool user_mode() const { return (cop0_[kCop0Status] & kStatusKUc) != 0; }
  Tlb& tlb() { return tlb_; }

  // ---- Physical memory ----
  // Direct writers of executable code through phys() must call
  // InvalidateDecodeRange afterwards; PhysWrite*/LoadImage do it themselves.
  PhysMem& phys() { return phys_; }
  const PhysMem& phys() const { return phys_; }
  uint32_t PhysRead32(uint32_t paddr) const {
    if (static_cast<uint64_t>(paddr) + 4 > phys_.size() || (paddr & 3) != 0) [[unlikely]] {
      PhysAccessFail("read", paddr);
    }
    uint32_t v;
    std::memcpy(&v, phys_.data() + paddr, 4);
    return v;
  }
  void PhysWrite32(uint32_t paddr, uint32_t value) {
    if (static_cast<uint64_t>(paddr) + 4 > phys_.size() || (paddr & 3) != 0) [[unlikely]] {
      PhysAccessFail("write", paddr);
    }
    std::memcpy(phys_.data() + paddr, &value, 4);
    InvalidateDecodePage(paddr);
  }
  void PhysWrite(uint32_t paddr, const std::vector<uint8_t>& bytes);
  // Drops cached predecoded instructions for every page overlapping
  // [paddr, paddr + bytes).
  void InvalidateDecodeRange(uint32_t paddr, size_t bytes);
  // Places an executable's text/data at fixed physical addresses and zeroes
  // its bss.  `vaddr_to_paddr` maps the image's virtual bases.
  void LoadImage(const Executable& exe, std::function<uint32_t(uint32_t)> vaddr_to_paddr);

  // ---- Trace-routine intrinsics ----
  // Registers the `routine` linked at virtual `vaddr`, whose text the
  // machine holds at physical `paddr`: whenever a page run reaches that
  // entry at that address, one host step reproduces every effect of
  // interpreting the routine (registers, memory, each fetch and data access
  // through the memory system, every counter), or, when a precheck fails,
  // the routine is interpreted from its entry.  DESIGN.md §8 lists the
  // prechecks.  Throws InternalError, naming the first differing address,
  // unless the text matches the modeled routine word for word.  The
  // registration lives in the entry's predecoded page, so any write to that
  // page (store, DMA, PhysWrite, LoadImage, InvalidateDecodeRange) drops
  // it.  A no-op with the fast path off, and for a routine that straddles
  // a page.
  void RegisterTraceRoutine(TraceRoutine routine, uint32_t vaddr, uint32_t paddr);
  // Entries reached and taken by the host step since construction.  A
  // plain accessor: the registry (RegisterStats) must read the same with
  // the host path off.
  const TraceRoutineCounts& trace_routine_counts() const { return routine_counts_; }

  // ---- Devices ----
  Console& console() { return console_; }
  Disk& disk() { return disk_; }
  Clock& clock() { return clock_; }
  // Host upcall: invoked when the kernel writes the HOSTCALL register; the
  // return value becomes readable at the same register.
  void set_hostcall_handler(std::function<uint32_t(uint32_t)> handler) {
    hostcall_handler_ = std::move(handler);
  }

  // ---- Ground-truth reference tracing ----
  void set_trace_hook(std::function<void(const RefEvent&)> hook) { trace_hook_ = std::move(hook); }

  // ---- Counters ----
  // The counters live as registry-bindable wrl::Counter instruments; these
  // accessors are thin shims over the same storage (see RegisterStats).
  uint64_t cycles() const { return cycles_; }
  uint64_t instructions() const { return instructions_; }
  uint64_t user_instructions() const { return user_instructions_; }
  uint64_t kernel_instructions() const { return kernel_instructions_; }
  uint64_t arith_stall_cycles() const { return arith_stall_cycles_; }
  uint64_t utlb_miss_exceptions() const { return utlb_miss_exceptions_; }
  uint64_t exception_count(Exc code) const { return exception_counts_[static_cast<unsigned>(code)]; }
  uint64_t interrupts_taken() const { return exception_counts_[0]; }

  // Binds every machine counter (and, in timing mode, the memory-system
  // counters under `<prefix>memsys.`) into `registry`.  The machine must
  // outlive snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "machine.");
  const MemorySystem* memsys() const { return timing_ ? &memsys_ : nullptr; }
  MemorySystem* mutable_memsys() { return timing_ ? &memsys_ : nullptr; }

  // Counts instruction fetches whose PC lies in [lo, hi): used by tests and
  // benches to watch the kernel idle loop from outside.
  void SetIdleRange(uint32_t lo, uint32_t hi) {
    idle_lo_ = lo;
    idle_hi_ = hi;
  }
  uint64_t idle_instructions() const { return idle_instructions_; }

 private:
  enum class Access : uint8_t { kFetch, kLoad, kStore };

  struct Translation {
    bool ok = false;
    uint32_t paddr = 0;
    bool cached = true;
    bool device = false;
  };

  // One physical page of predecoded instructions.
  struct DecodedPage {
    std::array<Inst, kPageBytes / 4> inst;
  };

  // One side (fetch or data) of the micro-TLB: a direct-mapped table of
  // recent translations, slot = VPN mod kSlots.  A slot's `key` packs the
  // full (VPN, ASID, user-mode), so two pages sharing a slot never alias;
  // the all-ones sentinel can never match (a VPN is 20 bits).  Slots are
  // filled only after a successful TLB lookup in kuseg or kseg2, so an
  // unmapped address never hits.
  struct MicroTlb {
    static constexpr unsigned kSlots = 64;
    static constexpr uint32_t kNoKey = 0xffffffffu;
    struct Slot {
      uint32_t key = kNoKey;
      uint32_t frame = 0;  // pfn << kPageShift
      bool cached = true;
      bool writable = false;  // TLB dirty bit: stores may only hit when set.
    };
    std::array<Slot, kSlots> slots;

    Slot& For(uint32_t vaddr) { return slots[(vaddr >> kPageShift) % kSlots]; }
    void Flush() {
      for (Slot& slot : slots) {
        slot.key = kNoKey;
      }
    }
  };
  static uint32_t MicroTlbKey(uint32_t vaddr, uint8_t asid, bool user) {
    return ((vaddr >> kPageShift) << 8) | (uint32_t{asid} << 1) | (user ? 1u : 0u);
  }
  uint8_t CurrentAsid() const { return static_cast<uint8_t>((cop0_[kCop0EntryHi] >> 6) & 63); }
  void FlushMicroTlb() {
    micro_itlb_.Flush();
    micro_dtlb_.Flush();
  }

  // The two common cases, inline in Step and Execute: a micro-TLB hit, and
  // a kernel-mode kseg0 access (unmapped and cached), which is handled here
  // and nowhere else.  A store only hits a writable slot, so a store to a
  // clean page still reaches TranslateSlow and raises Mod.
  Translation Translate(uint32_t vaddr, Access access, uint32_t faulting_pc, bool in_delay) {
    bool user = user_mode();
    if (!user && InKseg0(vaddr)) {
      return {true, vaddr - kKseg0, true, false};
    }
    if (fastpath_) {
      const MicroTlb::Slot& slot =
          (access == Access::kFetch ? micro_itlb_ : micro_dtlb_).For(vaddr);
      if (slot.key == MicroTlbKey(vaddr, CurrentAsid(), user) &&
          (access != Access::kStore || slot.writable)) {
        return {true, slot.frame | (vaddr & (kPageBytes - 1)), slot.cached, false};
      }
    }
    return TranslateSlow(vaddr, access, faulting_pc, in_delay);
  }
  // Everything Translate does not finish inline, out of line: TLB lookups
  // (and micro-TLB fills), refill and Mod exceptions, kseg1 and the device
  // page, kseg2, address errors.  Never called for kernel kseg0.
  Translation TranslateSlow(uint32_t vaddr, Access access, uint32_t faulting_pc, bool in_delay);
  // The TLB's answer to a kuseg or kernel kseg2 access, raising nothing.
  // kNone sets `out` and fills the micro-TLB slot; the others name the
  // exception TranslateSlow raises: kRefill when no entry matches,
  // kInvalid for an invalid one, kClean for a store to a clean page.
  enum class TlbFault : uint8_t { kNone, kRefill, kInvalid, kClean };
  TlbFault TlbTranslate(uint32_t vaddr, Access access, Translation& out);
  void RaiseException(Exc code, uint32_t faulting_pc, bool in_delay, uint32_t badvaddr,
                      bool badvaddr_valid, bool utlb_vector);
  // Step's prologue: ticks the devices once their deadline has passed, takes
  // a pending interrupt, and translates the fetch at pc.  Returns false when
  // an exception was raised instead, so no instruction retires.
  bool BeginFetch(Translation& ft);
  // The predecoded page holding `paddr`, decoding it on first use.  A fetch
  // beyond RAM fails like PhysRead32.
  const DecodedPage& DecodedPageAt(uint32_t paddr);
  // Everything an instruction does once fetched and decoded: the timing
  // fetch, the ifetch hook, the counters, the pc and delay-slot update, and
  // Execute.  `inst` is a copy: Execute may drop the page it came from.
  void Retire(Inst inst, uint32_t cur, bool delay, uint32_t paddr, bool cached, bool user);
  // Run's loop with the fast path on: one BeginFetch per run of instructions
  // from one predecoded page.  Its definition lists the events that end a
  // run and why each is exact.
  void RunPages(uint64_t limit);
  void Execute(const Inst& inst, uint32_t cur, bool delay);
  // Execute for Op::kTraceEntry: the host step, or else the entry's word.
  void ExecuteTraceEntry(const Inst& inst, uint32_t cur, bool delay);
  // The host step of a registered trace routine whose entry (`entry`, the
  // page's Op::kTraceEntry at `cur`) has retired up to its store.  Returns
  // false, with no side effect, when a precheck fails: the caller then
  // interprets the entry's own word.
  bool RunTraceRoutine(const Inst& entry, uint32_t cur, bool delay);
  // Translates a word access as Translate would, but never raises: false
  // where Translate would raise or reach a device, and for a word outside
  // RAM or a store into a predecoded page.  A TLB hit fills the micro-TLB
  // slot as TranslateSlow does, which is invisible.
  bool ProbeWord(uint32_t vaddr, Access access, Translation& out);
  bool CheckInterrupts();
  void TickDevices();
  // Recomputes the next cycle at which TickDevices can change device state.
  void UpdateDeviceDeadline();
  // Refreshes the hardware IP bits in Cause from the current irq lines
  // without advancing device time (used after device-register writes).
  void SyncIrqCause();

  DecodedPage* FillDecodedPage(uint32_t ppage);
  void InvalidateDecodePage(uint32_t paddr) {
    uint32_t ppage = paddr >> kPageShift;
    if (ppage < decode_cache_.size() && decode_cache_[ppage] != nullptr) {
      decode_cache_[ppage].reset();
      end_run_ = true;  // The page run may be executing out of it.
    }
  }

  uint32_t MmioRead(uint32_t offset);
  void MmioWrite(uint32_t offset, uint32_t value);

  void WaitMulDiv();
  void UncountInstruction(uint32_t cur, bool was_user);
  [[noreturn]] void PhysAccessFail(const char* op, uint32_t paddr) const;

  // MachineConfig::fastpath, unless WRL_FASTPATH=0 turned it off.
  bool fastpath_;
  PhysMem phys_;
  Tlb tlb_;
  MemorySystem memsys_;
  bool timing_;

  std::vector<std::unique_ptr<DecodedPage>> decode_cache_;  // Indexed by phys page.
  // Set by the events that end a page run early (RunPages lists them).
  // Only RunPages reads and clears it.
  bool end_run_ = false;
  MicroTlb micro_itlb_;
  MicroTlb micro_dtlb_;
  // Next cycle at which devices must be ticked.  0 with the fast path off
  // (tick every step); kNoDeadline when nothing pends.
  static constexpr uint64_t kNoDeadline = ~uint64_t{0};
  uint64_t device_deadline_ = 0;

  uint32_t gpr_[32] = {0};
  uint32_t hi_ = 0;
  uint32_t lo_ = 0;
  uint32_t pc_ = kVecReset;
  uint32_t next_pc_ = kVecReset + 4;
  bool in_delay_ = false;
  uint32_t cop0_[16] = {0};

  Console console_;
  Disk disk_;
  Clock clock_;
  std::function<uint32_t(uint32_t)> hostcall_handler_;
  uint32_t hostcall_reply_ = 0;
  std::function<void(const RefEvent&)> trace_hook_;

  bool halted_ = false;
  uint32_t halt_code_ = 0;

  Counter cycles_;
  Counter instructions_;
  Counter user_instructions_;
  Counter kernel_instructions_;
  uint64_t muldiv_ready_ = 0;
  Counter arith_stall_cycles_;
  Counter utlb_miss_exceptions_;
  uint64_t exception_counts_[16] = {0};
  uint32_t idle_lo_ = 0;
  uint32_t idle_hi_ = 0;
  Counter idle_instructions_;
  uint64_t cycle_latch_hi_ = 0;

  // The instruction budget of the current Run (RunTraceRoutine reads it).
  uint64_t run_limit_ = 0;
  // A bound on the cycles one instruction can take, fetch and data access
  // included: 1 + F + D, with F the worst read stall and D the worst data
  // stall (see RunTraceRoutine).
  uint64_t worst_instruction_cycles_ = 0;
  TraceRoutineCounts routine_counts_;
};

}  // namespace wrl

#endif  // WRLTRACE_MACH_MACHINE_H_
