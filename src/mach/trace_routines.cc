// The trace-collection routines as host intrinsics.
//
// epoxie's bbtrace (at every block head) and memtrace (before every load
// and store) are most of what a traced machine retires.  Interpreting them
// is exact but slow; this file runs a registered routine as one host step
// that reproduces every effect of interpreting it, in the interpreter's
// order: the registers, each load's and store's memory access, each
// instruction's I-cache fetch, each D-cache access and write-buffer push
// at its issue cycle, and the cycle, instruction and user/kernel counters.
// The step runs only when prechecks prove that interpreting could do
// nothing else: no exception, no device tick, no interrupt, no end of the
// budget and no write to a predecoded page inside the routine.  Otherwise
// the routine is interpreted from its entry, before any side effect.
// DESIGN.md §8 ("trace-routine intrinsics") gives each precheck and the
// event it excludes.
#include <utility>
#include <vector>

#include "mach/machine.h"
#include "support/error.h"
#include "support/strings.h"
#include "trace/abi.h"
#include "trace/support_asm.h"

namespace wrl {
namespace {

const char* RoutineName(TraceRoutine routine) {
  return routine == TraceRoutine::kBbtrace ? "bbtrace" : "memtrace";
}

// The modeled routine linked at `vaddr`: (offset from the entry, word) for
// every instruction the host step stands in for, as TraceSupportAsm
// assembles it.  Branch targets are in the model too, though the host
// step never reads them.
std::vector<std::pair<uint32_t, uint32_t>> ModeledRoutine(TraceRoutine routine, uint32_t vaddr) {
  auto lw = [](uint8_t rt, int16_t off, uint8_t base) {
    return EncodeIType(Op::kLw, base, rt, static_cast<uint16_t>(off));
  };
  auto sw = [](uint8_t rt, int16_t off, uint8_t base) {
    return EncodeIType(Op::kSw, base, rt, static_cast<uint16_t>(off));
  };
  // A branch at `from` to `to` (offsets from the entry).
  auto branch = [](Op op, uint8_t rs, uint8_t rt, uint32_t from, uint32_t to) {
    return EncodeIType(op, rs, rt, static_cast<uint16_t>((to - from - 4) / 4));
  };
  const uint32_t kNop = 0;
  std::vector<uint32_t> words;
  std::vector<std::pair<uint32_t, uint32_t>> model;
  if (routine == TraceRoutine::kBbtrace) {
    words = {
        sw(kRa, kBkTmpRa, kXreg3),
        lw(kXreg2, -4, kRa),
        EncodeIType(Op::kAndi, kXreg2, kXreg2, 0xffff),
        EncodeRType(Op::kSll, 0, kXreg2, kXreg2, 2),
        EncodeRType(Op::kAddu, kXreg1, kXreg2, kXreg2, 0),
        lw(kRa, kBkLimit, kXreg3),
        EncodeRType(Op::kSltu, kRa, kXreg2, kRa, 0),
        branch(Op::kBne, kRa, kZero, 28, kBbtraceTextBytes),  // To bbtrace_full.
        kNop,
        lw(kRa, kBkTmpRa, kXreg3),  // bbtrace_store.
        sw(kRa, 0, kXreg1),
        EncodeIType(Op::kAddiu, kXreg1, kXreg1, 4),  // bbtrace_bump.
        EncodeRType(Op::kJr, kRa, 0, 0, 0),
        lw(kRa, kBkSavedRa, kXreg3),
    };
    for (uint32_t i = 0; i < words.size(); ++i) {
      model.emplace_back(4 * i, words[i]);
    }
    return model;
  }
  const uint32_t table = vaddr + kGetregTableOffset;
  words = {
      sw(kRa, kBkTmpRa, kXreg3),
      lw(kXreg2, -4, kRa),
      sw(kXreg2, kBkTmpInstr, kXreg3),
      EncodeRType(Op::kSrl, 0, kXreg2, kXreg2, 18),
      EncodeIType(Op::kAndi, kXreg2, kXreg2, 0xf8),
      EncodeIType(Op::kLui, 0, kRa, static_cast<uint16_t>(table >> 16)),
      EncodeIType(Op::kOri, kRa, kRa, static_cast<uint16_t>(table & 0xffff)),
      EncodeRType(Op::kAddu, kRa, kXreg2, kXreg2, 0),
      EncodeRType(Op::kJr, kXreg2, 0, 0, 0),
      kNop,
  };
  for (uint32_t i = 0; i < words.size(); ++i) {
    model.emplace_back(4 * i, words[i]);
  }
  // getreg_table: the entries a base register other than a stolen one
  // dispatches to.
  for (uint8_t reg = 0; reg < 32; ++reg) {
    if (IsStolenReg(reg)) {
      continue;
    }
    const uint32_t entry = kGetregTableOffset + 8 * reg;
    model.emplace_back(entry, branch(Op::kBeq, kZero, kZero, entry, kMtHaveOffset));
    model.emplace_back(entry + 4, reg == kRa ? lw(kXreg2, kBkSavedRa, kXreg3)
                                             : EncodeRType(Op::kAddu, reg, kZero, kXreg2, 0));
  }
  words = {
      lw(kRa, kBkTmpInstr, kXreg3),
      EncodeRType(Op::kSll, 0, kRa, kRa, 16),
      EncodeRType(Op::kSra, 0, kRa, kRa, 16),
      EncodeRType(Op::kAddu, kXreg2, kRa, kXreg2, 0),
      sw(kXreg2, 0, kXreg1),
      EncodeIType(Op::kAddiu, kXreg1, kXreg1, 4),  // memtrace_bump.
      lw(kXreg2, kBkTmpRa, kXreg3),
      EncodeRType(Op::kJr, kXreg2, 0, 0, 0),
      lw(kRa, kBkSavedRa, kXreg3),
  };
  for (uint32_t i = 0; i < words.size(); ++i) {
    model.emplace_back(kMtHaveOffset + 4 * i, words[i]);
  }
  return model;
}

// The host step's clock and memory-system charges, in the interpreter's
// order.  The clock is a local, not Machine::cycles_: stores into guest
// memory go through uint8_t*, which may alias any member.  Every method is
// forced inline so the clock stays in a register.
class StepClock {
 public:
  // `memsys` is null on a functional machine.  The routine's entry, at
  // physical `text`, has been fetched already.
  StepClock(MemorySystem* memsys, uint64_t now, uint32_t text, bool text_cached)
      : memsys_(memsys),
        now_(now),
        text_(text),
        text_cached_(text_cached),
        line_mask_(memsys != nullptr ? ~(memsys->config().icache.line_bytes - 1) : 0),
        line_(text & line_mask_) {}

  // The fetch of the instruction `offset` bytes past the entry, and its
  // issue cycle.  Nothing but fetches touches the I-cache, so a fetch from
  // the line the previous fetch used hits: it is only counted.
  [[gnu::always_inline]] void Fetch(uint32_t offset) {
    if (memsys_ != nullptr) {
      const uint32_t paddr = text_ + offset;
      if (text_cached_ && (paddr & line_mask_) == line_) {
        ++line_hits_;
      } else {
        now_ += text_cached_ ? memsys_->Fetch(paddr, now_) : memsys_->UncachedLoad(paddr, now_);
        line_ = paddr & line_mask_;
      }
    }
    ++now_;
  }
  // A data access `offset` bytes into the translated word `t`.
  template <typename T>
  [[gnu::always_inline]] void Load(const T& t, uint32_t offset) {
    if (memsys_ != nullptr) {
      now_ += t.cached ? memsys_->Load(t.paddr + offset, now_)
                       : memsys_->UncachedLoad(t.paddr + offset, now_);
    }
  }
  template <typename T>
  [[gnu::always_inline]] void Store(const T& t, uint32_t offset) {
    if (memsys_ != nullptr) {
      now_ += t.cached ? memsys_->Store(t.paddr + offset, now_)
                       : memsys_->UncachedStore(t.paddr + offset, now_);
    }
  }
  // Books the counted fetches; returns the clock.
  uint64_t Finish() {
    if (memsys_ != nullptr) {
      memsys_->CountFetchHits(line_hits_);
    }
    return now_;
  }

 private:
  MemorySystem* const memsys_;
  uint64_t now_;
  const uint32_t text_;
  const bool text_cached_;
  const uint32_t line_mask_;
  uint32_t line_;
  uint64_t line_hits_ = 0;
};

bool SameDecodedForm(const Inst& a, const Inst& b) {
  return a.op == b.op && a.rs == b.rs && a.rt == b.rt && a.rd == b.rd && a.shamt == b.shamt &&
         a.imm == b.imm;
}

}  // namespace

void Machine::RegisterTraceRoutine(TraceRoutine routine, uint32_t vaddr, uint32_t paddr) {
  WRL_CHECK_MSG((vaddr & 3) == 0 && (paddr & (kPageBytes - 1)) == (vaddr & (kPageBytes - 1)),
                StrFormat("%s: entry 0x%08x cannot sit at physical 0x%08x",
                          RoutineName(routine), vaddr, paddr));
  const uint32_t bytes =
      routine == TraceRoutine::kBbtrace ? kBbtraceTextBytes : kMemtraceTextBytes;
  if (PageOf(vaddr) != PageOf(vaddr + bytes - 1)) {
    return;  // Its next virtual page need not be the next frame.
  }
  // The modeled text, read where the machine holds it (PhysRead32 rejects
  // text beyond RAM).
  for (const auto& [offset, word] : ModeledRoutine(routine, vaddr)) {
    const Inst modeled = Decode(word);
    const Inst image = Decode(PhysRead32(paddr + offset));
    if (!SameDecodedForm(image, modeled)) {
      throw InternalError(StrFormat(
          "%s at 0x%08x differs from the modeled routine at 0x%08x: the image has '%s', the "
          "host intrinsic models '%s'",
          RoutineName(routine), vaddr, vaddr + offset,
          Disassemble(image, vaddr + offset).c_str(),
          Disassemble(modeled, vaddr + offset).c_str()));
    }
  }
  if (decode_cache_.empty()) {
    return;
  }
  const uint32_t ppage = paddr >> kPageShift;
  DecodedPage& page = decode_cache_[ppage] ? *decode_cache_[ppage] : *FillDecodedPage(ppage);
  Inst& entry = page.inst[(paddr & (kPageBytes - 1)) >> 2];
  entry.op = Op::kTraceEntry;
  entry.rd = static_cast<uint8_t>(routine);
  entry.target = vaddr;
}

[[gnu::always_inline]] inline bool Machine::ProbeWord(uint32_t vaddr, Access access,
                                                      Translation& out) {
  const bool user = user_mode();
  if (!user && InKseg0(vaddr)) {
    out = {true, vaddr - kKseg0, true, false};
  } else if (InKuseg(vaddr) || (!user && InKseg2(vaddr))) {
    const MicroTlb::Slot& slot = (access == Access::kFetch ? micro_itlb_ : micro_dtlb_).For(vaddr);
    if (slot.key == MicroTlbKey(vaddr, CurrentAsid(), user) &&
        (access != Access::kStore || slot.writable)) {
      out = {true, slot.frame | (vaddr & (kPageBytes - 1)), slot.cached, false};
    } else if (TlbTranslate(vaddr, access, out) != TlbFault::kNone) {
      return false;
    }
  } else {
    return false;  // An address error, or kseg1 (uncached, perhaps a device).
  }
  // A TLB entry may name a frame beyond RAM, even the device page; the
  // interpreter's access would throw there.
  if (out.paddr >= phys_.size()) {
    return false;
  }
  // A store into a predecoded page would drop it and end the page run.
  return access != Access::kStore || decode_cache_[out.paddr >> kPageShift] == nullptr;
}

// Interpreting the routine could depart from the host step only through an
// exception, a device tick or interrupt, the budget, or a write to a
// predecoded page.  Each precheck below rules one of them out for the whole
// routine, from state the routine cannot change before the access it
// guards:
//   * the entry is the registered one at its linked address, outside a
//     delay slot, and no reference hook watches;
//   * the budget covers the routine, so Run stops after it, as the
//     interpreter's would;
//   * the device deadline lies beyond n x (1 + F + D) cycles, a bound on
//     the whole routine, so no tick (and no new interrupt) falls inside it.
//     A pending enabled interrupt cannot exist either: BeginFetch took
//     none at the start of this page run, and whatever could change Cause
//     or Status since would have ended the run;
//   * the text lies outside the idle range, so no idle instruction is
//     counted;
//   * every data word translates without an exception into RAM, in a page
//     with no predecoded text to drop;
//   * the buffer word and the key word lie outside the bookkeeping words
//     and apart, so each load returns what the interpreter's would;
//   * bbtrace's block fits below LIMIT, so its `bne` falls through;
//   * memtrace's base register is not a stolen one, whose getreg_table
//     entry is `break 63`.
// The routine never leaves its page (RegisterTraceRoutine), so the page
// run's fetch translation covers every fetch, and the interpreter would
// run it inside this same page run.
// Flattened: the memory-system calls inline too, so the clock never leaves
// a register.
[[gnu::flatten]] bool Machine::RunTraceRoutine(const Inst& entry, uint32_t cur, bool delay) {
  const unsigned kind = entry.rd;  // A TraceRoutine.
  const bool memtrace = kind == static_cast<unsigned>(TraceRoutine::kMemtrace);
  ++routine_counts_.entries[kind];
  const unsigned n = memtrace ? kMemtraceInstructions : kBbtraceInstructions;
  const uint32_t text_bytes = memtrace ? kMemtraceTextBytes : kBbtraceTextBytes;
  // Retire has already fetched and counted the entry.
  if (cur != entry.target || delay || trace_hook_ || run_limit_ - instructions_ < n - 1 ||
      cycles_ >= device_deadline_ || device_deadline_ - cycles_ <= n * worst_instruction_cycles_ ||
      (cur < idle_hi_ && idle_lo_ < cur + text_bytes)) {
    return false;
  }
  const uint32_t bk = gpr_[kXreg3];
  const uint32_t buf = gpr_[kXreg1];
  const uint32_t ret = gpr_[kRa];
  if (((bk | buf | ret) & 3) != 0 || PageOf(bk) != PageOf(bk + kBkLimit)) {
    return false;
  }
  Translation text;
  Translation bk_t;
  Translation buf_t;
  Translation key_t;
  if (!ProbeWord(cur, Access::kFetch, text) || !ProbeWord(bk, Access::kStore, bk_t) ||
      !ProbeWord(buf, Access::kStore, buf_t) || !ProbeWord(ret - 4, Access::kLoad, key_t) ||
      buf_t.paddr - bk_t.paddr < kBkLimit + 4 || key_t.paddr - bk_t.paddr < kBkLimit + 4 ||
      buf_t.paddr == key_t.paddr) {
    return false;
  }
  uint8_t* const mem = phys_.data();
  auto read = [mem](uint32_t paddr) {
    uint32_t v;
    std::memcpy(&v, mem + paddr, 4);
    return v;
  };
  auto write = [mem](uint32_t paddr, uint32_t v) { std::memcpy(mem + paddr, &v, 4); };
  const uint32_t word = read(key_t.paddr);
  const uint32_t saved_ra = read(bk_t.paddr + kBkSavedRa);
  uint32_t base = 0;
  if (memtrace) {
    base = (word >> 21) & 31;
    if (IsStolenReg(static_cast<uint8_t>(base))) {
      return false;
    }
  } else if (read(bk_t.paddr + kBkLimit) < buf + ((word & 0xffff) << 2)) {
    return false;  // The block does not fit: bbtrace's break path.
  }

  StepClock clock(timing_ ? &memsys_ : nullptr, cycles_, text.paddr, text.cached);
  clock.Store(bk_t, kBkTmpRa);  // The entry: sw ra, TMP_RA(t7).
  clock.Fetch(4);               // lw t9, -4(ra)
  clock.Load(key_t, 0);
  uint32_t entry_word;  // The one word this routine adds to the trace.
  if (!memtrace) {
    clock.Fetch(8);   // andi t9, t9, 0xffff
    clock.Fetch(12);  // sll t9, t9, 2
    clock.Fetch(16);  // addu t9, t8, t9
    clock.Fetch(20);  // lw ra, LIMIT(t7)
    clock.Load(bk_t, kBkLimit);
    clock.Fetch(24);  // sltu ra, ra, t9
    clock.Fetch(28);  // bne ra, zero, bbtrace_full
    clock.Fetch(32);  // nop
    clock.Fetch(36);  // lw ra, TMP_RA(t7)
    clock.Load(bk_t, kBkTmpRa);
    clock.Fetch(40);  // sw ra, 0(t8)
    clock.Store(buf_t, 0);
    clock.Fetch(44);  // addiu t8, t8, 4
    clock.Fetch(48);  // jr ra
    clock.Fetch(52);  // lw ra, SAVED_RA(t7)
    clock.Load(bk_t, kBkSavedRa);
    entry_word = ret;
    gpr_[kXreg2] = buf + ((word & 0xffff) << 2);
  } else {
    clock.Fetch(8);  // sw t9, TMP_INSTR(t7)
    clock.Store(bk_t, kBkTmpInstr);
    for (uint32_t offset = 12; offset < kGetregTableOffset; offset += 4) {
      clock.Fetch(offset);  // srl, andi, lui, ori, addu, jr t9, nop
    }
    const uint32_t slot = kGetregTableOffset + 8 * base;
    clock.Fetch(slot);      // b mt_have
    clock.Fetch(slot + 4);  // move t9, <base>, or for ra: lw t9, SAVED_RA(t7)
    uint32_t value = gpr_[base];
    if (base == kRa) {
      clock.Load(bk_t, kBkSavedRa);
      value = saved_ra;
    }
    clock.Fetch(kMtHaveOffset);  // lw ra, TMP_INSTR(t7)
    clock.Load(bk_t, kBkTmpInstr);
    clock.Fetch(kMtHaveOffset + 4);   // sll ra, ra, 16
    clock.Fetch(kMtHaveOffset + 8);   // sra ra, ra, 16
    clock.Fetch(kMtHaveOffset + 12);  // addu t9, t9, ra
    clock.Fetch(kMtHaveOffset + 16);  // sw t9, 0(t8)
    clock.Store(buf_t, 0);
    clock.Fetch(kMtHaveOffset + 20);  // addiu t8, t8, 4
    clock.Fetch(kMtHaveOffset + 24);  // lw t9, TMP_RA(t7)
    clock.Load(bk_t, kBkTmpRa);
    clock.Fetch(kMtHaveOffset + 28);  // jr t9
    clock.Fetch(kMtHaveOffset + 32);  // lw ra, SAVED_RA(t7)
    clock.Load(bk_t, kBkSavedRa);
    entry_word = value + static_cast<uint32_t>(static_cast<int16_t>(word & 0xffff));
    write(bk_t.paddr + kBkTmpInstr, word);
    gpr_[kXreg2] = ret;
  }
  // The stores, after all the timing: no load above reads a word they
  // write, so their order among the accesses cannot show.
  write(bk_t.paddr + kBkTmpRa, ret);
  write(buf_t.paddr, entry_word);
  gpr_[kXreg1] = buf + 4;
  gpr_[kRa] = saved_ra;
  pc_ = ret;
  next_pc_ = ret + 4;
  in_delay_ = false;
  cycles_ = clock.Finish();
  instructions_ += n - 1;
  if (user_mode()) {
    user_instructions_ += n - 1;
  } else {
    kernel_instructions_ += n - 1;
  }
  ++routine_counts_.host[kind];
  return true;
}

}  // namespace wrl
