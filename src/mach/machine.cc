#include "mach/machine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "support/error.h"
#include "support/strings.h"

namespace wrl {

namespace {

// `WRL_FASTPATH=0` turns the fast path off, so a rebuild-free A/B run (or a
// bisection of a suspected fast-path bug) is always one environment
// variable away.
bool ResolveFastPath(bool configured) {
  const char* env = std::getenv("WRL_FASTPATH");
  return configured && !(env != nullptr && env[0] == '0' && env[1] == '\0');
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : fastpath_(ResolveFastPath(config.fastpath)),
      phys_(config.phys_bytes),
      memsys_(config.memsys),
      timing_(config.timing),
      disk_(config.disk) {
  WRL_CHECK(config.phys_bytes % kPageBytes == 0);
  WRL_CHECK_MSG(config.phys_bytes <= kDevicePhysBase, "RAM would shadow the device page");
  cop0_[kCop0Prid] = 0x0230;  // R3000-ish.
  // With the fast path off, device_deadline_ == 0 makes the per-step
  // deadline test always fire: TickDevices on every instruction.
  if (fastpath_) {
    decode_cache_.resize(config.phys_bytes / kPageBytes);
    UpdateDeviceDeadline();
  }
  const MemSysConfig& mem = config.memsys;
  const uint64_t read_stall = std::max(mem.read_miss_penalty, mem.uncached_penalty);
  const uint64_t data_stall =
      std::max(read_stall, uint64_t{mem.wb_depth} * mem.wb_cycles_per_entry);
  worst_instruction_cycles_ = 1 + read_stall + data_stall;
}

void Machine::PhysAccessFail(const char* op, uint32_t paddr) const {
  throw InternalError(StrFormat("phys %s out of range at 0x%08x", op, paddr));
}

void Machine::PhysWrite(uint32_t paddr, const std::vector<uint8_t>& bytes) {
  WRL_CHECK_MSG(static_cast<uint64_t>(paddr) + bytes.size() <= phys_.size(),
                StrFormat("phys image write out of range at 0x%08x", paddr));
  std::memcpy(phys_.data() + paddr, bytes.data(), bytes.size());
  InvalidateDecodeRange(paddr, bytes.size());
}

void Machine::InvalidateDecodeRange(uint32_t paddr, size_t bytes) {
  if (bytes == 0 || decode_cache_.empty()) {
    return;
  }
  uint32_t first = paddr >> kPageShift;
  uint64_t last = (static_cast<uint64_t>(paddr) + bytes - 1) >> kPageShift;
  for (uint64_t p = first; p <= last && p < decode_cache_.size(); ++p) {
    if (decode_cache_[p] != nullptr) {
      decode_cache_[p].reset();
      end_run_ = true;
    }
  }
}

Machine::DecodedPage* Machine::FillDecodedPage(uint32_t ppage) {
  auto page = std::make_unique<DecodedPage>();
  const uint8_t* base = phys_.data() + (static_cast<size_t>(ppage) << kPageShift);
  for (size_t i = 0; i < page->inst.size(); ++i) {
    uint32_t word;
    std::memcpy(&word, base + i * 4, 4);
    page->inst[i] = Decode(word);
  }
  DecodedPage* out = page.get();
  decode_cache_[ppage] = std::move(page);
  return out;
}

void Machine::LoadImage(const Executable& exe, std::function<uint32_t(uint32_t)> vaddr_to_paddr) {
  PhysWrite(vaddr_to_paddr(exe.text_base), exe.text);
  if (!exe.data.empty()) {
    PhysWrite(vaddr_to_paddr(exe.data_base), exe.data);
  }
  if (exe.bss_size > 0) {
    uint32_t paddr = vaddr_to_paddr(exe.bss_base);
    WRL_CHECK(static_cast<uint64_t>(paddr) + exe.bss_size <= phys_.size());
    std::memset(phys_.data() + paddr, 0, exe.bss_size);
    InvalidateDecodeRange(paddr, exe.bss_size);
  }
}

void Machine::RaiseException(Exc code, uint32_t faulting_pc, bool in_delay, uint32_t badvaddr,
                             bool badvaddr_valid, bool utlb_vector) {
  ++exception_counts_[static_cast<unsigned>(code)];
  if (utlb_vector) {
    ++utlb_miss_exceptions_;
  }
  uint32_t cause = cop0_[kCop0Cause];
  cause &= ~0x7cu;  // Clear ExcCode.
  cause |= static_cast<uint32_t>(code) << 2;
  if (in_delay) {
    cause |= 0x80000000u;  // BD
    cop0_[kCop0Epc] = faulting_pc - 4;
  } else {
    cause &= ~0x80000000u;
    cop0_[kCop0Epc] = faulting_pc;
  }
  cop0_[kCop0Cause] = cause;
  if (badvaddr_valid) {
    cop0_[kCop0BadVAddr] = badvaddr;
    // Context: PTEBase | BadVPN<<2 — points straight at the PTE when the
    // kernel keeps a linear page table at PTEBase (the 9-instruction UTLB
    // handler depends on this).
    uint32_t ptebase = cop0_[kCop0Context] & 0xffe00000u;
    cop0_[kCop0Context] = ptebase | (((badvaddr >> 12) & 0x7ffffu) << 2);
    cop0_[kCop0EntryHi] = MakeEntryHi(badvaddr, CurrentAsid());
  }
  // Push the KU/IE stack: old<-prev, prev<-current, current<-(kernel, off).
  uint32_t status = cop0_[kCop0Status];
  uint32_t stack = status & 0x3f;
  stack = ((stack << 2) & 0x3c);
  cop0_[kCop0Status] = (status & ~0x3fu) | stack;
  pc_ = utlb_vector ? kVecUtlbMiss : kVecGeneral;
  next_pc_ = pc_ + 4;
  in_delay_ = false;
  cycles_ += kExceptionEntryCycles;
  // Exception entry is a mode transition (and may rewrite EntryHi above).
  FlushMicroTlb();
  end_run_ = true;
}

Machine::TlbFault Machine::TlbTranslate(uint32_t vaddr, Access access, Translation& out) {
  const uint8_t asid = CurrentAsid();
  auto index = tlb_.Lookup(vaddr, asid);
  if (!index) {
    return TlbFault::kRefill;
  }
  const TlbEntry& e = tlb_.entry(*index);
  if (!e.valid()) {
    return TlbFault::kInvalid;
  }
  if (access == Access::kStore && !e.dirty()) {
    return TlbFault::kClean;
  }
  out = {true, (e.pfn() << kPageShift) | (vaddr & (kPageBytes - 1)), !e.uncached(), false};
  if (fastpath_) {
    (access == Access::kFetch ? micro_itlb_ : micro_dtlb_).For(vaddr) = {
        MicroTlbKey(vaddr, asid, user_mode()), e.pfn() << kPageShift, out.cached, e.dirty()};
  }
  return TlbFault::kNone;
}

Machine::Translation Machine::TranslateSlow(uint32_t vaddr, Access access, uint32_t faulting_pc,
                                            bool in_delay) {
  Translation t;
  bool user = user_mode();
  bool store = access == Access::kStore;
  if (InKuseg(vaddr) || (!user && InKseg2(vaddr))) {
    const TlbFault fault = TlbTranslate(vaddr, access, t);
    if (fault != TlbFault::kNone) {
      // A kuseg refill goes through the dedicated UTLB vector — even when
      // the CPU is already in kernel mode handling something at the
      // general vector, since R3000 kernels keep the UTLB path valid then
      // too.  A kseg2 miss takes the general vector: the paper's slow KTLB
      // path.
      RaiseException(fault == TlbFault::kClean ? Exc::kMod : store ? Exc::kTlbS : Exc::kTlbL,
                     faulting_pc, in_delay, vaddr, true,
                     fault == TlbFault::kRefill && InKuseg(vaddr));
    }
    return t;
  }
  if (user) {
    RaiseException(store ? Exc::kAdES : Exc::kAdEL, faulting_pc, in_delay, vaddr, true, false);
    return t;
  }
  // Kernel kseg0 never gets here (Translate maps it inline): this is kseg1.
  t.ok = true;
  t.paddr = vaddr - kKseg1;
  t.cached = false;
  t.device = (t.paddr >= kDevicePhysBase && t.paddr < kDevicePhysBase + kDeviceBytes);
  return t;
}

void Machine::TickDevices() {
  uint32_t ip = 0;
  uint32_t dma_paddr = 0;
  uint32_t dma_bytes = 0;
  if (disk_.Tick(cycles_, phys_, &dma_paddr, &dma_bytes)) {
    ip |= 1u << kIrqDisk;
  }
  if (dma_bytes != 0) {
    // A completed disk read just rewrote RAM behind the decode cache.
    InvalidateDecodeRange(dma_paddr, dma_bytes);
  }
  if (clock_.Tick(cycles_)) {
    ip |= 1u << kIrqClock;
  }
  uint32_t cause = cop0_[kCop0Cause];
  cause &= ~(0xfcu << 8);  // Hardware IP bits 15:10 (IP2..IP7).
  cause |= ip << 8;
  cop0_[kCop0Cause] = cause;
  if (fastpath_) {
    UpdateDeviceDeadline();
  }
}

void Machine::UpdateDeviceDeadline() {
  uint64_t deadline = kNoDeadline;
  if (disk_.busy()) {
    deadline = std::min(deadline, disk_.completion_time());
  }
  if (clock_.period() != 0) {
    deadline = std::min(deadline, clock_.next_tick());
  }
  device_deadline_ = deadline;
}

void Machine::SyncIrqCause() {
  uint32_t ip = 0;
  if (disk_.irq()) {
    ip |= 1u << kIrqDisk;
  }
  if (clock_.irq()) {
    ip |= 1u << kIrqClock;
  }
  uint32_t cause = cop0_[kCop0Cause];
  cause &= ~(0xfcu << 8);
  cause |= ip << 8;
  cop0_[kCop0Cause] = cause;
}

inline bool Machine::CheckInterrupts() {
  uint32_t status = cop0_[kCop0Status];
  if ((status & kStatusIEc) == 0) {
    return false;
  }
  uint32_t pending = (cop0_[kCop0Cause] >> 8) & 0xff;
  uint32_t mask = (status >> kStatusImShift) & 0xff;
  if ((pending & mask) == 0) {
    return false;
  }
  RaiseException(Exc::kInt, pc_, in_delay_, 0, false, false);
  return true;
}

uint32_t Machine::MmioRead(uint32_t offset) {
  switch (offset) {
    case kDevCycleLo:
      cycle_latch_hi_ = cycles_ >> 32;
      return static_cast<uint32_t>(cycles_);
    case kDevCycleHi:
      return static_cast<uint32_t>(cycle_latch_hi_);
    case kDevClockPeriod:
      return clock_.ReadReg(offset);
    case kDevDiskSector:
    case kDevDiskAddr:
    case kDevDiskCount:
    case kDevDiskStatus:
      return disk_.ReadReg(offset);
    case kDevHostcall:
      return hostcall_reply_;
    default:
      throw Error(StrFormat("MMIO read from bad register 0x%x", offset));
  }
}

void Machine::MmioWrite(uint32_t offset, uint32_t value) {
  // A device register write may halt, call the host, or move the device
  // deadline and irq lines.
  end_run_ = true;
  switch (offset) {
    case kDevConsolePutc:
      console_.PutChar(static_cast<char>(value));
      break;
    case kDevConsolePutdec:
      console_.PutDec(value);
      break;
    case kDevHalt:
      halted_ = true;
      halt_code_ = value;
      break;
    case kDevClockPeriod:
    case kDevClockAck:
      clock_.WriteReg(offset, value, cycles_);
      if (fastpath_) {
        // Do NOT tick here — that could advance device time earlier than the
        // slow path would.  Refresh the IP bits from the (possibly acked)
        // irq lines and recompute when the models next need attention.
        SyncIrqCause();
        UpdateDeviceDeadline();
      }
      break;
    case kDevDiskSector:
    case kDevDiskAddr:
    case kDevDiskCount:
    case kDevDiskCmd:
    case kDevDiskAck:
      disk_.WriteReg(offset, value, cycles_);
      if (fastpath_) {
        SyncIrqCause();
        UpdateDeviceDeadline();
      }
      break;
    case kDevHostcall:
      hostcall_reply_ = hostcall_handler_ ? hostcall_handler_(value) : 0;
      break;
    default:
      throw Error(StrFormat("MMIO write to bad register 0x%x", offset));
  }
}

void Machine::UncountInstruction(uint32_t cur, bool was_user) {
  // A data-access fault aborts the instruction; it will re-execute after
  // the handler, so the first attempt must not inflate the architectural
  // instruction counters (the trace of the original binary records it once).
  // `was_user` is the mode *before* any exception push.
  --instructions_;
  if (was_user) {
    --user_instructions_;
  } else {
    --kernel_instructions_;
  }
  if (cur >= idle_lo_ && cur < idle_hi_) {
    --idle_instructions_;
  }
}

void Machine::WaitMulDiv() {
  if (cycles_ < muldiv_ready_) {
    arith_stall_cycles_ += muldiv_ready_ - cycles_;
    cycles_ = muldiv_ready_;
  }
}

inline bool Machine::BeginFetch(Translation& ft) {
  // With the fast path off the deadline stays 0, so this fires on every
  // step: the per-instruction TickDevices.
  if (cycles_ >= device_deadline_) {
    TickDevices();
  }
  if (CheckInterrupts()) {
    return false;
  }
  ft = Translate(pc_, Access::kFetch, pc_, in_delay_);
  if (!ft.ok) {
    return false;
  }
  if (ft.device || (pc_ & 3) != 0) {
    RaiseException(Exc::kAdEL, pc_, in_delay_, pc_, true, false);
    return false;
  }
  return true;
}

inline const Machine::DecodedPage& Machine::DecodedPageAt(uint32_t paddr) {
  uint32_t ppage = paddr >> kPageShift;
  if (ppage >= decode_cache_.size()) [[unlikely]] {
    PhysAccessFail("read", paddr);
  }
  return decode_cache_[ppage] ? *decode_cache_[ppage] : *FillDecodedPage(ppage);
}

// Retire and Execute are forced inline so that RunPages's loop dispatches
// straight into Execute's switch; Step gets its own copy.
[[gnu::always_inline]] inline void Machine::Retire(Inst inst, uint32_t cur, bool delay,
                                                   uint32_t paddr, bool cached, bool user) {
  if (timing_) {
    cycles_ += cached ? memsys_.Fetch(paddr, cycles_) : memsys_.UncachedLoad(paddr, cycles_);
  }
  if (trace_hook_) {
    trace_hook_({RefEvent::kIfetch, cur, 4, user, cur});
  }
  ++instructions_;
  if (user) {
    ++user_instructions_;
  } else {
    ++kernel_instructions_;
  }
  if (cur >= idle_lo_ && cur < idle_hi_) {
    ++idle_instructions_;
  }

  pc_ = next_pc_;
  next_pc_ = pc_ + 4;
  in_delay_ = false;
  ++cycles_;

  Execute(inst, cur, delay);
}

void Machine::Step() {
  if (halted_) {
    return;
  }
  Translation ft;
  if (!BeginFetch(ft)) {
    return;
  }
  Retire(Decode(PhysRead32(ft.paddr)), pc_, in_delay_, ft.paddr, ft.cached, user_mode());
}

// A run of instructions from one predecoded page starts with BeginFetch and
// the page lookup; its later instructions only Retire.  A run ends, and the
// next instruction gets the full prologue, at each point where the prologue
// could answer differently:
//   * the pc leaves the page or is misaligned: the fetch translation and
//     the decoded page hold per page, and BeginFetch raises AdEL for a
//     misaligned pc;
//   * an exception (end_run_): entry moves the pc to a vector, switches to
//     kernel mode and rewrites Status, EntryHi and Cause;
//   * a cop0 write, i.e. mtc0, tlbr, tlbwi, tlbwr or rfe (end_run_): Status
//     (mode, interrupt enables), Cause (software interrupts), EntryHi (the
//     ASID) and the TLB are all the interrupt check and the fetch
//     translation read besides the pc; mfc0 and tlbp change none of it;
//   * a device register write (end_run_): it may halt, call the host, or
//     move the irq lines and the device deadline;
//   * the drop of any predecoded page by a store, DMA or host write
//     (end_run_): the run reads its page by reference, and that may be the
//     page just dropped;
//   * cycles_ reaching the device deadline: only BeginFetch ticks the
//     devices, and only a tick or a device register write changes the irq
//     lines;
//   * the budget.
// DESIGN.md §8 says why ending at exception entry is belt-and-braces.
void Machine::RunPages(uint64_t limit) {
  run_limit_ = limit;
  while (!halted_ && instructions_ < limit) {
    Translation ft;
    if (!BeginFetch(ft)) {
      continue;
    }
    const DecodedPage& page = DecodedPageAt(ft.paddr);
    const uint32_t frame = ft.paddr & ~(kPageBytes - 1);
    const uint32_t page_base = PageBase(pc_);
    const bool user = user_mode();
    end_run_ = false;
    do {
      const uint32_t offset = pc_ & (kPageBytes - 1);
      Retire(page.inst[offset >> 2], pc_, in_delay_, frame | offset, ft.cached, user);
      // Same page and word-aligned, or the run ends here.
    } while (!end_run_ && (pc_ & (~(kPageBytes - 1) | 3)) == page_base &&
             cycles_ < device_deadline_ && instructions_ < limit);
  }
}

// A registered trace routine's entry: Retire has fetched and counted it
// like any instruction.  Out of line, so the dispatch loop of a machine
// that never meets one keeps its size.
[[gnu::noinline]] void Machine::ExecuteTraceEntry(const Inst& inst, uint32_t cur, bool delay) {
  if (!RunTraceRoutine(inst, cur, delay)) {
    Execute(Decode(inst.raw), cur, delay);
  }
}

[[gnu::always_inline]] inline void Machine::Execute(const Inst& inst, uint32_t cur, bool delay) {
  auto rs = [&] { return gpr_[inst.rs]; };
  auto rt = [&] { return gpr_[inst.rt]; };
  auto write_rd = [&](uint32_t v) { set_gpr(inst.rd, v); };
  auto write_rt = [&](uint32_t v) { set_gpr(inst.rt, v); };
  auto branch_to = [&](uint32_t target) {
    WRL_CHECK_MSG(!delay, StrFormat("control transfer in a delay slot at 0x%08x", cur));
    next_pc_ = target;
    in_delay_ = true;
  };
  int32_t simm = inst.imm;
  uint32_t uimm = static_cast<uint16_t>(inst.imm);

  switch (inst.op) {
    case Op::kInvalid:
      RaiseException(Exc::kRI, cur, delay, 0, false, false);
      return;

    // --- ALU, register form ---
    case Op::kSll: write_rd(rt() << inst.shamt); return;
    case Op::kSrl: write_rd(rt() >> inst.shamt); return;
    case Op::kSra: write_rd(static_cast<uint32_t>(static_cast<int32_t>(rt()) >> inst.shamt)); return;
    case Op::kSllv: write_rd(rt() << (rs() & 31)); return;
    case Op::kSrlv: write_rd(rt() >> (rs() & 31)); return;
    case Op::kSrav:
      write_rd(static_cast<uint32_t>(static_cast<int32_t>(rt()) >> (rs() & 31)));
      return;
    case Op::kAdd: {
      int64_t sum = static_cast<int64_t>(static_cast<int32_t>(rs())) + static_cast<int32_t>(rt());
      if (sum != static_cast<int32_t>(sum)) {
        RaiseException(Exc::kOv, cur, delay, 0, false, false);
        return;
      }
      write_rd(static_cast<uint32_t>(sum));
      return;
    }
    case Op::kAddu: write_rd(rs() + rt()); return;
    case Op::kSub: {
      int64_t diff = static_cast<int64_t>(static_cast<int32_t>(rs())) - static_cast<int32_t>(rt());
      if (diff != static_cast<int32_t>(diff)) {
        RaiseException(Exc::kOv, cur, delay, 0, false, false);
        return;
      }
      write_rd(static_cast<uint32_t>(diff));
      return;
    }
    case Op::kSubu: write_rd(rs() - rt()); return;
    case Op::kAnd: write_rd(rs() & rt()); return;
    case Op::kOr: write_rd(rs() | rt()); return;
    case Op::kXor: write_rd(rs() ^ rt()); return;
    case Op::kNor: write_rd(~(rs() | rt())); return;
    case Op::kSlt: write_rd(static_cast<int32_t>(rs()) < static_cast<int32_t>(rt()) ? 1 : 0); return;
    case Op::kSltu: write_rd(rs() < rt() ? 1 : 0); return;

    // --- Multiply/divide ---
    case Op::kMult: {
      WaitMulDiv();
      int64_t prod = static_cast<int64_t>(static_cast<int32_t>(rs())) *
                     static_cast<int64_t>(static_cast<int32_t>(rt()));
      lo_ = static_cast<uint32_t>(prod);
      hi_ = static_cast<uint32_t>(prod >> 32);
      muldiv_ready_ = cycles_ + ArithStallCycles(inst.op);
      return;
    }
    case Op::kMultu: {
      WaitMulDiv();
      uint64_t prod = static_cast<uint64_t>(rs()) * rt();
      lo_ = static_cast<uint32_t>(prod);
      hi_ = static_cast<uint32_t>(prod >> 32);
      muldiv_ready_ = cycles_ + ArithStallCycles(inst.op);
      return;
    }
    case Op::kDiv: {
      WaitMulDiv();
      int32_t a = static_cast<int32_t>(rs());
      int32_t b = static_cast<int32_t>(rt());
      if (b == 0) {
        lo_ = (a >= 0) ? 0xffffffffu : 1;
        hi_ = static_cast<uint32_t>(a);
      } else if (a == INT32_MIN && b == -1) {
        lo_ = static_cast<uint32_t>(INT32_MIN);
        hi_ = 0;
      } else {
        lo_ = static_cast<uint32_t>(a / b);
        hi_ = static_cast<uint32_t>(a % b);
      }
      muldiv_ready_ = cycles_ + ArithStallCycles(inst.op);
      return;
    }
    case Op::kDivu: {
      WaitMulDiv();
      if (rt() == 0) {
        lo_ = 0xffffffffu;
        hi_ = rs();
      } else {
        lo_ = rs() / rt();
        hi_ = rs() % rt();
      }
      muldiv_ready_ = cycles_ + ArithStallCycles(inst.op);
      return;
    }
    case Op::kMfhi:
      WaitMulDiv();
      write_rd(hi_);
      return;
    case Op::kMflo:
      WaitMulDiv();
      write_rd(lo_);
      return;
    case Op::kMthi: hi_ = rs(); return;
    case Op::kMtlo: lo_ = rs(); return;

    // --- ALU, immediate form ---
    case Op::kAddi: {
      int64_t sum = static_cast<int64_t>(static_cast<int32_t>(rs())) + simm;
      if (sum != static_cast<int32_t>(sum)) {
        RaiseException(Exc::kOv, cur, delay, 0, false, false);
        return;
      }
      write_rt(static_cast<uint32_t>(sum));
      return;
    }
    case Op::kAddiu: write_rt(rs() + static_cast<uint32_t>(simm)); return;
    case Op::kSlti: write_rt(static_cast<int32_t>(rs()) < simm ? 1 : 0); return;
    case Op::kSltiu: write_rt(rs() < static_cast<uint32_t>(simm) ? 1 : 0); return;
    case Op::kAndi: write_rt(rs() & uimm); return;
    case Op::kOri: write_rt(rs() | uimm); return;
    case Op::kXori: write_rt(rs() ^ uimm); return;
    case Op::kLui: write_rt(uimm << 16); return;

    // --- Control transfer ---
    case Op::kJ: branch_to(JumpTarget(cur, inst.target)); return;
    case Op::kJal:
      set_gpr(kRa, cur + 8);
      branch_to(JumpTarget(cur, inst.target));
      return;
    case Op::kJr: branch_to(rs()); return;
    case Op::kJalr: {
      uint32_t target = rs();
      write_rd(cur + 8);
      branch_to(target);
      return;
    }
    case Op::kBeq:
      if (rs() == rt()) {
        branch_to(BranchTarget(cur, inst.imm));
      }
      return;
    case Op::kBne:
      if (rs() != rt()) {
        branch_to(BranchTarget(cur, inst.imm));
      }
      return;
    case Op::kBlez:
      if (static_cast<int32_t>(rs()) <= 0) {
        branch_to(BranchTarget(cur, inst.imm));
      }
      return;
    case Op::kBgtz:
      if (static_cast<int32_t>(rs()) > 0) {
        branch_to(BranchTarget(cur, inst.imm));
      }
      return;
    case Op::kBltz:
      if (static_cast<int32_t>(rs()) < 0) {
        branch_to(BranchTarget(cur, inst.imm));
      }
      return;
    case Op::kBgez:
      if (static_cast<int32_t>(rs()) >= 0) {
        branch_to(BranchTarget(cur, inst.imm));
      }
      return;

    // --- Memory ---
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLbu:
    case Op::kLhu: {
      uint32_t vaddr = rs() + static_cast<uint32_t>(simm);
      unsigned bytes = MemAccessBytes(inst.op);
      bool was_user = user_mode();
      if (vaddr % bytes != 0) {
        UncountInstruction(cur, was_user);
        RaiseException(Exc::kAdEL, cur, delay, vaddr, true, false);
        return;
      }
      Translation t = Translate(vaddr, Access::kLoad, cur, delay);
      if (!t.ok) {
        UncountInstruction(cur, was_user);
        return;
      }
      uint32_t value;
      if (t.device) {
        value = MmioRead(t.paddr - kDevicePhysBase);
      } else {
        // The 64-bit sum keeps the bounds check honest near 0xfffffffc
        // (uint32 `paddr + bytes` would wrap and pass).
        if (static_cast<uint64_t>(t.paddr) + bytes > phys_.size()) [[unlikely]] {
          throw InternalError(
              StrFormat("load beyond physical memory: va 0x%08x pa 0x%08x", vaddr, t.paddr));
        }
        uint32_t w = 0;
        std::memcpy(&w, phys_.data() + t.paddr, bytes);
        value = w;
      }
      if (timing_) {
        cycles_ += t.cached ? memsys_.Load(t.paddr, cycles_) : memsys_.UncachedLoad(t.paddr, cycles_);
      }
      if (trace_hook_) {
        trace_hook_({RefEvent::kLoad, vaddr, static_cast<uint8_t>(bytes), user_mode(), cur});
      }
      switch (inst.op) {
        case Op::kLb: value = static_cast<uint32_t>(static_cast<int8_t>(value)); break;
        case Op::kLh: value = static_cast<uint32_t>(static_cast<int16_t>(value)); break;
        default: break;
      }
      write_rt(value);
      return;
    }
    case Op::kSb:
    case Op::kSh:
    case Op::kSw: {
      uint32_t vaddr = rs() + static_cast<uint32_t>(simm);
      unsigned bytes = MemAccessBytes(inst.op);
      bool was_user = user_mode();
      if (vaddr % bytes != 0) {
        UncountInstruction(cur, was_user);
        RaiseException(Exc::kAdES, cur, delay, vaddr, true, false);
        return;
      }
      Translation t = Translate(vaddr, Access::kStore, cur, delay);
      if (!t.ok) {
        UncountInstruction(cur, was_user);
        return;
      }
      if (t.device) {
        MmioWrite(t.paddr - kDevicePhysBase, rt());
      } else {
        if (static_cast<uint64_t>(t.paddr) + bytes > phys_.size()) [[unlikely]] {
          throw InternalError(
              StrFormat("store beyond physical memory: va 0x%08x pa 0x%08x", vaddr, t.paddr));
        }
        uint32_t value = rt();
        std::memcpy(phys_.data() + t.paddr, &value, bytes);
        // Aligned sub-word stores never cross a page, so one page suffices.
        InvalidateDecodePage(t.paddr);
      }
      if (timing_) {
        cycles_ += t.cached ? memsys_.Store(t.paddr, cycles_) : memsys_.UncachedStore(t.paddr, cycles_);
      }
      if (trace_hook_) {
        trace_hook_({RefEvent::kStore, vaddr, static_cast<uint8_t>(bytes), user_mode(), cur});
      }
      return;
    }
    case Op::kTraceEntry:
      ExecuteTraceEntry(inst, cur, delay);
      return;

    // --- Traps ---
    case Op::kSyscall:
      RaiseException(Exc::kSys, cur, delay, 0, false, false);
      return;
    case Op::kBreak:
      RaiseException(Exc::kBp, cur, delay, 0, false, false);
      return;

    // --- COP0 ---
    case Op::kMfc0:
    case Op::kMtc0:
    case Op::kTlbr:
    case Op::kTlbwi:
    case Op::kTlbwr:
    case Op::kTlbp:
    case Op::kRfe: {
      if (user_mode()) {
        RaiseException(Exc::kRI, cur, delay, 0, false, false);
        return;
      }
      switch (inst.op) {
        case Op::kMfc0:
          if (inst.rd == kCop0Random) {
            write_rt(static_cast<uint32_t>(tlb_.Random(instructions_)) << 8);
          } else {
            write_rt(cop0_[inst.rd & 15]);
          }
          break;
        case Op::kMtc0: {
          unsigned reg = inst.rd & 15;
          cop0_[reg] = rt();
          if (reg == kCop0EntryHi || reg == kCop0Status) {
            // ASID or mode may have changed.
            FlushMicroTlb();
          }
          if (reg == kCop0Cause && fastpath_) {
            // The slow path rewrites the hardware IP bits from the irq
            // lines on the very next step; mirror that immediately.
            SyncIrqCause();
          }
          break;
        }
        case Op::kTlbr: {
          unsigned index = (cop0_[kCop0Index] >> 8) & 63;
          cop0_[kCop0EntryHi] = tlb_.entry(index).entry_hi;
          cop0_[kCop0EntryLo] = tlb_.entry(index).entry_lo;
          break;
        }
        case Op::kTlbwi: {
          unsigned index = (cop0_[kCop0Index] >> 8) & 63;
          tlb_.entry(index) = {cop0_[kCop0EntryHi], cop0_[kCop0EntryLo]};
          FlushMicroTlb();
          break;
        }
        case Op::kTlbwr: {
          unsigned index = tlb_.Random(instructions_);
          tlb_.entry(index) = {cop0_[kCop0EntryHi], cop0_[kCop0EntryLo]};
          FlushMicroTlb();
          break;
        }
        case Op::kTlbp: {
          uint32_t vaddr = cop0_[kCop0EntryHi] & 0xfffff000u;
          uint8_t asid = CurrentAsid();
          auto index = tlb_.Lookup(vaddr, asid);
          cop0_[kCop0Index] = index ? (static_cast<uint32_t>(*index) << 8) : 0x80000000u;
          break;
        }
        case Op::kRfe: {
          // Pop the KU/IE stack: current<-prev, prev<-old.
          uint32_t status = cop0_[kCop0Status];
          uint32_t stack = status & 0x3f;
          stack = ((stack >> 2) & 0x0f) | (stack & 0x30);
          cop0_[kCop0Status] = (status & ~0x3fu) | stack;
          // rfe is the kernel->user mode transition.
          FlushMicroTlb();
          break;
        }
        default:
          break;
      }
      // Every cop0 write may change Status, Cause, EntryHi or the TLB: what
      // the next fetch's interrupt check and translation read.
      if (inst.op != Op::kMfc0 && inst.op != Op::kTlbp) {
        end_run_ = true;
      }
      return;
    }
  }
}

RunResult Machine::Run(uint64_t max_instructions) {
  const uint64_t limit = max_instructions > UINT64_MAX - instructions_
                             ? UINT64_MAX
                             : instructions_ + max_instructions;
  if (fastpath_) {
    RunPages(limit);
  } else {
    while (!halted_ && instructions_ < limit) {
      Step();
    }
  }
  RunResult r;
  r.halted = halted_;
  r.halt_code = halt_code_;
  r.instructions = instructions_;
  r.cycles = cycles_;
  return r;
}

void Machine::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "cycles", &cycles_);
  registry.AddCounter(prefix + "instructions", &instructions_);
  registry.AddCounter(prefix + "user_instructions", &user_instructions_);
  registry.AddCounter(prefix + "kernel_instructions", &kernel_instructions_);
  registry.AddCounter(prefix + "idle_instructions", &idle_instructions_);
  registry.AddCounter(prefix + "arith_stall_cycles", &arith_stall_cycles_);
  registry.AddCounter(prefix + "utlb_miss_exceptions", &utlb_miss_exceptions_);
  // One counter per exception code the machine raises.
  static constexpr std::pair<Exc, const char*> kExcNames[] = {
      {Exc::kInt, "interrupts"},
      {Exc::kMod, "tlb_mod"},
      {Exc::kTlbL, "tlb_load"},
      {Exc::kTlbS, "tlb_store"},
      {Exc::kAdEL, "addr_error_load"},
      {Exc::kAdES, "addr_error_store"},
      {Exc::kSys, "syscalls"},
      {Exc::kBp, "breaks"},
      {Exc::kRI, "reserved_instruction"},
      {Exc::kOv, "overflow"},
  };
  for (const auto& [code, name] : kExcNames) {
    registry.AddCounter(prefix + "exc." + name, &exception_counts_[static_cast<unsigned>(code)]);
  }
  if (timing_) {
    memsys_.RegisterStats(registry, prefix + "memsys.");
  }
}

}  // namespace wrl
