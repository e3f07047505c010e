#include "epoxie/epoxie.h"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <optional>
#include <set>

#include "dataflow/dataflow.h"
#include "isa/isa.h"
#include "support/error.h"
#include "support/strings.h"
#include "trace/abi.h"

namespace wrl {
namespace {

constexpr uint32_t kStolenMask = (1u << kXreg1) | (1u << kXreg2) | (1u << kXreg3);
constexpr uint32_t kRaMask = 1u << kRa;
constexpr uint32_t kAtMask = 1u << kAt;

// Registers a scavenged window may never borrow: the constant/assembler
// registers, the kernel scratch pair (clobbered asynchronously by any
// exception), the stack/global conventions, $ra (clobbered by the window's
// own trace call), and the stolen registers themselves.
constexpr uint32_t kNeverScavenge = (1u << kZero) | (1u << kAt) | (1u << kK0) | (1u << kK1) |
                                    (1u << kGp) | (1u << kSp) | (1u << kRa) | kStolenMask;

// Scratch preference order: caller-saved temps first (most often dead),
// then argument/value registers, then the callee-saved set.
constexpr uint8_t kScavengeOrder[] = {kT0, kT1, kT2, kT3, kT4, kT5, kT6, kV0, kV1,
                                      kA0, kA1, kA2, kA3, kS0, kS1, kS2, kS3, kS4,
                                      kS5, kS6, kS7, kFp};

// Identity register map with the stolen registers redirected to scavenged
// scratch registers.
using RegMap = std::array<uint8_t, 32>;

RegMap IdentityMap() {
  RegMap map;
  for (size_t i = 0; i < map.size(); ++i) {
    map[i] = static_cast<uint8_t>(i);
  }
  return map;
}

bool IsThreeRegAlu(Op op) {
  switch (op) {
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kMfhi:
    case Op::kMthi:
    case Op::kMflo:
    case Op::kMtlo:
    case Op::kMult:
    case Op::kMultu:
    case Op::kDiv:
    case Op::kDivu:
    case Op::kAdd:
    case Op::kAddu:
    case Op::kSub:
    case Op::kSubu:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
      return true;
    default:
      return false;
  }
}

// Re-encodes `inst` with its register fields pushed through `map` (the
// scavenging substitution).  Immediates, shift amounts, and opcodes are
// preserved bit-exactly, so a relocation attached to the word still patches
// the same field.
uint32_t RewriteRegs(const Inst& inst, const RegMap& map) {
  if (IsThreeRegAlu(inst.op)) {
    return EncodeRType(inst.op, map[inst.rs], map[inst.rt], map[inst.rd], inst.shamt);
  }
  switch (inst.op) {
    case Op::kMfc0:
    case Op::kMtc0:
      return EncodeCop0(inst.op, map[inst.rt], inst.rd);
    case Op::kLui:
      return EncodeIType(inst.op, 0, map[inst.rt], static_cast<uint16_t>(inst.imm));
    default:
      return EncodeIType(inst.op, map[inst.rs], map[inst.rt], static_cast<uint16_t>(inst.imm));
  }
}

// Builds the surrogate no-op for a memory instruction: an addiu to $zero
// with the same base register and offset, so memtrace can decode the
// effective address from identical field positions without the surrogate
// touching memory (paper §3.2).
uint32_t MakeSurrogate(const Inst& mem, uint8_t base_override = 0xff) {
  uint8_t base = base_override == 0xff ? mem.rs : base_override;
  return EncodeIType(Op::kAddiu, base, kZero, static_cast<uint16_t>(mem.imm));
}

class Instrumenter {
 public:
  Instrumenter(const ObjectFile& input, const EpoxieConfig& config)
      : input_(input), config_(config) {}

  InstrumentResult Run() {
    DecodeInput();
    EmitAll();
    FixBranches();
    BuildOutputObject();
    result_.original_text_words = n_words_;
    result_.instrumented_text_words = static_cast<uint32_t>(out_.size());
    return std::move(result_);
  }

 private:
  [[noreturn]] void Fail(uint32_t word_index, const std::string& message) const {
    throw Error(StrFormat("epoxie: %s at %s+0x%x: %s", input_.source_name.c_str(),
                          input_.source_name.c_str(), word_index * 4, message.c_str()));
  }

  void DecodeInput() {
    WRL_CHECK(input_.text.size() % 4 == 0);
    n_words_ = input_.NumTextWords();
    insts_.reserve(n_words_);
    for (uint32_t i = 0; i < n_words_; ++i) {
      insts_.push_back(Decode(input_.TextWord(i * 4)));
    }
    for (const BlockAnnotation& b : input_.blocks) {
      WRL_CHECK(b.offset % 4 == 0);
      leaders_.insert(b.offset / 4);
      flags_[b.offset / 4] = b.flags;
    }
    if (n_words_ > 0) {
      leaders_.insert(0);
    }
    // Reject labels on delay slots: a header inserted there would split a
    // CTI from its slot.
    for (uint32_t i = 0; i + 1 < n_words_; ++i) {
      if (HasDelaySlot(insts_[i].op) && leaders_.count(i + 1) != 0) {
        Fail(i + 1, "basic-block leader on a delay slot");
      }
    }
    inst_new_pos_.assign(n_words_, UINT32_MAX);
    target_new_pos_.assign(n_words_ + 1, UINT32_MAX);
    if (config_.mode == InstrumentMode::kEpoxie && config_.scavenge) {
      live_ = ComputeLiveness(input_);
    }
  }

  // ---- Scavenging decisions (all gated on the liveness analysis) ----

  bool RaDeadAt(uint32_t index) const {
    return live_.has_value() && (live_->LiveIn(index) & kRaMask) == 0;
  }

  // Picks one provably dead scratch register per stolen register `touched`
  // by instruction `index`; returns nullopt (→ fall back to the spill
  // window) unless every touched register gets a distinct scratch.
  std::optional<RegMap> FindScavengeMap(uint32_t index, uint32_t touched) const {
    if (!live_.has_value()) {
      return std::nullopt;
    }
    const Inst& inst = insts_[index];
    // A register is borrowable across the window iff nothing from this
    // point on reads it before writing it, and the instruction itself
    // neither reads nor writes it under its original name.
    uint32_t busy = live_->LiveIn(index) | RegsRead(inst) | RegsWritten(inst) | kNeverScavenge;
    RegMap map = IdentityMap();
    for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
      if ((touched & (1u << x)) == 0) {
        continue;
      }
      uint8_t pick = 0;
      for (uint8_t cand : kScavengeOrder) {
        if ((busy & (1u << cand)) == 0) {
          pick = cand;
          break;
        }
      }
      if (pick == 0) {
        return std::nullopt;
      }
      busy |= 1u << pick;
      map[x] = pick;
    }
    return map;
  }

  // ---- Emission helpers ----
  void Emit(uint32_t word) { out_.push_back(word); }

  // Emits an *original* instruction word, recording its position for
  // relocation moving and branch fixups.
  void EmitOriginal(uint32_t index) {
    inst_new_pos_[index] = static_cast<uint32_t>(out_.size());
    const Inst& inst = insts_[index];
    if (IsBranch(inst.op)) {
      // Old target (word index) for later retargeting.
      int64_t target = static_cast<int64_t>(index) + 1 + inst.imm;
      if (target < 0 || target > n_words_) {
        Fail(index, "branch target outside object");
      }
      branch_fixups_.push_back({static_cast<uint32_t>(out_.size()), static_cast<uint32_t>(target)});
    }
    Emit(inst.raw);
  }

  void EmitLoadBk() {
    // lui at, %hi(bk); ori at, at, %lo(bk) with relocations against the
    // bookkeeping symbol.
    Relocation hi;
    hi.offset = static_cast<uint32_t>(out_.size()) * 4;
    hi.section = SectionId::kText;
    hi.type = RelocType::kHi16;
    hi.symbol = kBookkeepingSymbol;
    new_relocs_.push_back(hi);
    Emit(EncodeIType(Op::kLui, 0, kAt, 0));
    Relocation lo = hi;
    lo.offset = static_cast<uint32_t>(out_.size()) * 4;
    lo.type = RelocType::kLo16;
    new_relocs_.push_back(lo);
    Emit(EncodeIType(Op::kOri, kAt, kAt, 0));
  }

  void EmitJalTo(const std::string& symbol) {
    Relocation r;
    r.offset = static_cast<uint32_t>(out_.size()) * 4;
    r.section = SectionId::kText;
    r.type = RelocType::kJump26;
    r.symbol = symbol;
    new_relocs_.push_back(r);
    Emit(EncodeJType(Op::kJal, 0));
  }

  // Emits the shadow window around instruction `index`, which touches the
  // stolen registers in `touched` (a register mask).
  void EmitWindow(uint32_t index, uint32_t touched) {
    const Inst& inst = insts_[index];
    uint32_t reads = RegsRead(inst) & touched;
    uint32_t writes = RegsWritten(inst) & touched;
    if ((RegsRead(inst) | RegsWritten(inst)) & kAtMask) {
      Fail(index, "instruction uses both $at and a stolen register");
    }
    EmitLoadBk();
    for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
      if (touched & (1u << x)) {
        Emit(EncodeIType(Op::kSw, kAt, x, static_cast<uint16_t>(kBkSpill0 + 4 * StolenIndex(x))));
      }
    }
    for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
      if (reads & (1u << x)) {
        Emit(EncodeIType(Op::kLw, kAt, x, static_cast<uint16_t>(kBkShadow0 + 4 * StolenIndex(x))));
      }
    }
    EmitOriginal(index);
    for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
      if (writes & (1u << x)) {
        Emit(EncodeIType(Op::kSw, kAt, x, static_cast<uint16_t>(kBkShadow0 + 4 * StolenIndex(x))));
      }
    }
    for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
      if (touched & (1u << x)) {
        Emit(EncodeIType(Op::kLw, kAt, x, static_cast<uint16_t>(kBkSpill0 + 4 * StolenIndex(x))));
      }
    }
  }

  // Emits the original instruction at `index` re-registered through `map`
  // (stolen registers replaced by their scavenged scratches).  Like
  // EmitOriginal this records the position so the word's relocation (if
  // any) moves with it; CTIs never reach a window, so no branch fixups.
  void EmitSubstituted(uint32_t index, const RegMap& map) {
    WRL_CHECK(!IsBranch(insts_[index].op));
    inst_new_pos_[index] = static_cast<uint32_t>(out_.size());
    Emit(RewriteRegs(insts_[index], map));
  }

  // The scavenged form of EmitWindow: the tracing state stays put in the
  // stolen registers and the instruction runs renamed onto dead scratches,
  // so the spill/reload protocol (two words per touched register) drops
  // out.  Shadow slots in the bookkeeping area are still read before and
  // written after, keeping them exact for neighboring unscavenged windows.
  void EmitScavWindow(uint32_t index, uint32_t touched, const RegMap& map) {
    const Inst& inst = insts_[index];
    uint32_t reads = RegsRead(inst) & touched;
    uint32_t writes = RegsWritten(inst) & touched;
    if ((RegsRead(inst) | RegsWritten(inst)) & kAtMask) {
      Fail(index, "instruction uses both $at and a stolen register");
    }
    EmitLoadBk();
    for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
      if (reads & (1u << x)) {
        Emit(EncodeIType(Op::kLw, kAt, map[x], static_cast<uint16_t>(kBkShadow0 + 4 * StolenIndex(x))));
      }
    }
    EmitSubstituted(index, map);
    for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
      if (writes & (1u << x)) {
        Emit(EncodeIType(Op::kSw, kAt, map[x], static_cast<uint16_t>(kBkShadow0 + 4 * StolenIndex(x))));
      }
    }
    ++result_.scavenged_windows;
  }

  // Refreshes SAVED_RA after an instruction that wrote ra mid-block.
  void EmitSavedRaRefresh() {
    EmitLoadBk();
    Emit(EncodeIType(Op::kSw, kAt, kRa, static_cast<uint16_t>(kBkSavedRa)));
  }

  // ---- The per-instruction rewriting rules ----

  // Instruments memory instruction `index` (not in a delay slot).
  void InstrumentMemory(uint32_t index) {
    const Inst& inst = insts_[index];
    uint32_t touched = (RegsRead(inst) | RegsWritten(inst)) & kStolenMask;
    bool reads_ra = (RegsRead(inst) & kRaMask) != 0;
    bool writes_ra = (RegsWritten(inst) & kRaMask) != 0;
    bool base_stolen = IsStolenReg(inst.rs);
    // A load that overwrites its own base register (lw t0, 0(t0)) cannot
    // ride in the delay slot: the load executes before memtrace, which
    // would then decode a clobbered base value.
    bool self_clobbering = IsLoad(inst.op) && inst.rt == inst.rs;
    bool pack_in_slot = config_.mode == InstrumentMode::kEpoxie && touched == 0 && !reads_ra &&
                        !writes_ra && !self_clobbering;
    // A base of $at is fine in the packed form: memtrace never touches $at
    // before its register-dispatch table reads it.  A base of $ra is NOT —
    // the jal clobbers ra before memtrace runs — so reads_ra forces the
    // surrogate path, and memtrace's dispatch entry for ra reads SAVED_RA.
    if (pack_in_slot) {
      // The common case of Figure 2: jal memtrace with the real memory
      // instruction in the delay slot.
      EmitJalTo(kMemtraceSymbol);
      EmitOriginal(index);
      return;
    }
    if (base_stolen) {
      std::optional<RegMap> map = FindScavengeMap(index, touched);
      if (map.has_value()) {
        // Scavenged form: load every stolen shadow the instruction reads
        // (the base among them) into its scratch, announce through a
        // surrogate based on the scratch — memtrace preserves everything
        // but $ra and the stolen registers, so the scratch survives the
        // call — then run the instruction renamed.
        EmitLoadBk();
        uint32_t reads = RegsRead(inst) & touched;
        for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
          if (reads & (1u << x)) {
            Emit(EncodeIType(Op::kLw, kAt, (*map)[x],
                             static_cast<uint16_t>(kBkShadow0 + 4 * StolenIndex(x))));
          }
        }
        EmitJalTo(kMemtraceSymbol);
        Emit(MakeSurrogate(inst, (*map)[inst.rs]));
        EmitSubstituted(index, *map);
        uint32_t writes = RegsWritten(inst) & touched;
        for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
          if (writes & (1u << x)) {
            Emit(EncodeIType(Op::kSw, kAt, (*map)[x],
                             static_cast<uint16_t>(kBkShadow0 + 4 * StolenIndex(x))));
          }
        }
        ++result_.scavenged_windows;
        if (writes_ra) {
          EmitSavedRaRefresh();
        }
        return;
      }
      // Materialize the shadow base into $at, hand memtrace a surrogate
      // based on $at, then execute the real instruction in a window.
      EmitLoadBk();
      Emit(EncodeIType(Op::kLw, kAt, kAt,
                       static_cast<uint16_t>(kBkShadow0 + 4 * StolenIndex(inst.rs))));
      EmitJalTo(kMemtraceSymbol);
      Emit(MakeSurrogate(inst, kAt));
      EmitWindow(index, touched);
      if (writes_ra) {
        EmitSavedRaRefresh();
      }
      return;
    }
    // Surrogate form: jal memtrace; addiu zero, base, off; then the real
    // instruction (optionally in a window).
    EmitJalTo(kMemtraceSymbol);
    Emit(MakeSurrogate(inst));
    if (touched != 0) {
      std::optional<RegMap> map = FindScavengeMap(index, touched);
      if (map.has_value()) {
        EmitScavWindow(index, touched, *map);
      } else {
        EmitWindow(index, touched);
      }
    } else {
      EmitOriginal(index);
    }
    if (writes_ra) {
      EmitSavedRaRefresh();
    }
  }

  // Instruments a non-memory, non-CTI instruction.
  void InstrumentPlain(uint32_t index) {
    const Inst& inst = insts_[index];
    uint32_t touched = (RegsRead(inst) | RegsWritten(inst)) & kStolenMask;
    if (touched != 0) {
      std::optional<RegMap> map = FindScavengeMap(index, touched);
      if (map.has_value()) {
        EmitScavWindow(index, touched, *map);
      } else {
        EmitWindow(index, touched);
      }
    } else {
      EmitOriginal(index);
    }
    if ((RegsWritten(inst) & kRaMask) != 0) {
      EmitSavedRaRefresh();
    }
  }

  // Emits the CTI at `index` and its delay slot at `index + 1`.
  // `traced` controls whether a memory op in the slot gets a memtrace call.
  void EmitCtiPair(uint32_t index, bool traced) {
    const Inst& cti = insts_[index];
    if (index + 1 >= n_words_) {
      Fail(index, "control transfer at end of text has no delay slot");
    }
    const Inst& slot = insts_[index + 1];
    uint32_t cti_touched = (RegsRead(cti) | (RegsWritten(cti) & ~kRaMask)) & kStolenMask;
    if (cti_touched != 0) {
      Fail(index, "control transfer touches a stolen register");
    }
    if (IsIndirectJump(cti.op) && IsStolenReg(cti.rs)) {
      Fail(index, "indirect jump through a stolen register");
    }
    uint32_t slot_touched = (RegsRead(slot) | RegsWritten(slot)) & kStolenMask;
    if (slot_touched != 0) {
      Fail(index + 1, "delay-slot instruction touches a stolen register");
    }
    bool slot_is_mem = MemAccessBytes(slot.op) != 0;
    if (traced && slot_is_mem) {
      // The trace call is hoisted above the CTI, so the announcement reads
      // the slot's registers *before* the CTI's link write takes effect.
      // Any overlap (ra for jal/bltzal, an arbitrary rd for jalr) would
      // make memtrace record a stale address: reject rather than silently
      // mis-rewrite.
      uint32_t stale = RegsWritten(cti) & RegsRead(slot);
      if (stale != 0) {
        Fail(index + 1,
             StrFormat("delay-slot memory op reads $%s, which the jump writes; the "
                       "hoisted memtrace call cannot legally announce it",
                       RegName(static_cast<uint8_t>(std::countr_zero(stale)))));
      }
      if (IsStolenReg(slot.rs)) {
        Fail(index + 1, "delay-slot memory op based on a stolen register");
      }
      // Hoist the trace call above the CTI; the slot keeps the real op.
      EmitJalTo(kMemtraceSymbol);
      Emit(MakeSurrogate(slot));
    }
    EmitOriginal(index);
    EmitOriginal(index + 1);
  }

  // ---- Block and object-level passes ----

  struct BlockRange {
    uint32_t start;
    uint32_t end;  // One past the last word.
    uint32_t flags;
  };

  std::vector<BlockRange> ComputeBlocks() const {
    std::vector<BlockRange> blocks;
    std::vector<uint32_t> sorted(leaders_.begin(), leaders_.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
      uint32_t start = sorted[i];
      uint32_t end = (i + 1 < sorted.size()) ? sorted[i + 1] : n_words_;
      if (start >= end) {
        continue;
      }
      uint32_t flags = 0;
      auto it = flags_.find(start);
      if (it != flags_.end()) {
        flags = it->second;
      }
      blocks.push_back({start, end, flags});
    }
    return blocks;
  }

  std::vector<MemOpStatic> BlockMemOps(const BlockRange& block) const {
    std::vector<MemOpStatic> ops;
    for (uint32_t i = block.start; i < block.end; ++i) {
      unsigned bytes = MemAccessBytes(insts_[i].op);
      if (bytes != 0) {
        ops.push_back({static_cast<uint16_t>(i - block.start), IsStore(insts_[i].op),
                       static_cast<uint8_t>(bytes)});
      }
    }
    return ops;
  }

  // The Figure 2 header.  When liveness proves $ra dead at the block leader
  // the `sw ra` save is elided: bbtrace still restores $ra from SAVED_RA in
  // its return slot, but the (stale) value it restores is never read before
  // the next $ra write, so the save is pure overhead.
  void EmitEpoxieHeader(uint32_t n_trace_words, bool elide_save) {
    if (!elide_save) {
      Emit(EncodeIType(Op::kSw, kXreg3, kRa, static_cast<uint16_t>(kBkSavedRa)));
    } else {
      ++result_.elided_ra_saves;
    }
    EmitJalTo(kBbtraceSymbol);
    Emit(EncodeIType(Op::kOri, kZero, kZero, static_cast<uint16_t>(n_trace_words)));
  }

  void EmitPixieHeader(const BlockRange& block, uint32_t n_trace_words, uint32_t block_index) {
    Emit(EncodeIType(Op::kSw, kXreg3, kRa, static_cast<uint16_t>(kBkSavedRa)));
    // Runtime translation-table lookup (the dynamic address correction that
    // epoxie does statically).
    Relocation hi;
    hi.offset = static_cast<uint32_t>(out_.size()) * 4;
    hi.section = SectionId::kText;
    hi.type = RelocType::kHi16;
    hi.symbol = kPixieTableSymbol;
    hi.addend = static_cast<int32_t>(block_index * 4);
    new_relocs_.push_back(hi);
    Emit(EncodeIType(Op::kLui, 0, kAt, 0));
    Relocation lo = hi;
    lo.offset = static_cast<uint32_t>(out_.size()) * 4;
    lo.type = RelocType::kLo16;
    new_relocs_.push_back(lo);
    Emit(EncodeIType(Op::kOri, kAt, kAt, 0));
    Emit(EncodeIType(Op::kLw, kAt, kAt, 0));
    // Dynamic instruction counter (pixie counted instructions too).
    EmitLoadBk();
    Emit(EncodeIType(Op::kLw, kAt, kXreg2, static_cast<uint16_t>(kBkInstCount)));
    Emit(EncodeIType(Op::kAddiu, kXreg2, kXreg2, static_cast<uint16_t>(block.end - block.start)));
    Emit(EncodeIType(Op::kSw, kAt, kXreg2, static_cast<uint16_t>(kBkInstCount)));
    EmitJalTo(kBbtraceSymbol);
    Emit(EncodeIType(Op::kOri, kZero, kZero, static_cast<uint16_t>(n_trace_words)));
  }

  void EmitAll() {
    std::vector<BlockRange> blocks = ComputeBlocks();
    uint32_t block_index = 0;
    for (const BlockRange& block : blocks) {
      bool traced = (block.flags & (kBlockNoTrace | kBlockHandTraced)) == 0;
      uint32_t header_pos = static_cast<uint32_t>(out_.size());
      std::vector<MemOpStatic> mem_ops = BlockMemOps(block);
      if (traced) {
        uint32_t n_trace_words = 1 + static_cast<uint32_t>(mem_ops.size());
        WRL_CHECK_MSG(n_trace_words < 0x8000, "basic block generates too much trace");
        if (config_.mode == InstrumentMode::kEpoxie) {
          bool elide_save = RaDeadAt(block.start);
          EmitEpoxieHeader(n_trace_words, elide_save);
          // Key = return address of the header's jal: two words past it.
          BlockStatic bs;
          bs.key_offset = (header_pos + (elide_save ? 2 : 3)) * 4;
          bs.orig_offset = block.start * 4;
          bs.num_insts = block.end - block.start;
          bs.flags = block.flags;
          bs.mem_ops = std::move(mem_ops);
          result_.blocks.push_back(std::move(bs));
        } else {
          EmitPixieHeader(block, 1 + static_cast<uint32_t>(mem_ops.size()), block_index);
          // Pixie key: jal is the second-to-last header word.
          BlockStatic bs;
          bs.key_offset = static_cast<uint32_t>(out_.size()) * 4;
          bs.orig_offset = block.start * 4;
          bs.num_insts = block.end - block.start;
          bs.flags = block.flags;
          bs.mem_ops = std::move(mem_ops);
          result_.blocks.push_back(std::move(bs));
        }
      }
      // Control transfers land on the header when the block is traced.
      target_new_pos_[block.start] = traced ? header_pos : static_cast<uint32_t>(out_.size());

      for (uint32_t i = block.start; i < block.end; ++i) {
        const Inst& inst = insts_[i];
        if (HasDelaySlot(inst.op)) {
          if (i + 1 >= block.end) {
            Fail(i, "delay slot crosses a block boundary");
          }
          EmitCtiPair(i, traced);
          ++i;  // Skip the slot.
          continue;
        }
        if (!traced) {
          EmitOriginal(i);
          continue;
        }
        if (MemAccessBytes(inst.op) != 0) {
          InstrumentMemory(i);
        } else {
          InstrumentPlain(i);
        }
      }
      if (traced) {
        result_.blocks.back().instr_words =
            static_cast<uint32_t>(out_.size()) - header_pos;
      }
      ++block_index;
    }
    target_new_pos_[n_words_] = static_cast<uint32_t>(out_.size());
    // Fill target positions for non-leader instructions (used by symbol
    // remapping as a fallback).
    for (uint32_t i = 0; i < n_words_; ++i) {
      if (target_new_pos_[i] == UINT32_MAX) {
        target_new_pos_[i] = inst_new_pos_[i];
      }
    }
    n_blocks_ = block_index;
  }

  void FixBranches() {
    for (const auto& [new_pos, old_target] : branch_fixups_) {
      uint32_t target_pos = target_new_pos_[old_target];
      WRL_CHECK(target_pos != UINT32_MAX);
      int64_t delta = static_cast<int64_t>(target_pos) - (static_cast<int64_t>(new_pos) + 1);
      if (delta < -32768 || delta > 32767) {
        throw Error(StrFormat("epoxie: branch out of range after expansion in '%s'",
                              input_.source_name.c_str()));
      }
      out_[new_pos] = (out_[new_pos] & 0xffff0000u) | (static_cast<uint32_t>(delta) & 0xffffu);
    }
  }

  void BuildOutputObject() {
    ObjectFile& obj = result_.object;
    obj.source_name = input_.source_name + " (instrumented)";
    obj.text.resize(out_.size() * 4);
    for (size_t i = 0; i < out_.size(); ++i) {
      obj.SetTextWord(static_cast<uint32_t>(i * 4), out_[i]);
    }
    obj.data = input_.data;
    obj.bss_size = input_.bss_size;

    // Move the original relocations.
    for (const Relocation& r : input_.relocations) {
      Relocation moved = r;
      if (r.section == SectionId::kText) {
        WRL_CHECK(r.offset % 4 == 0 && r.offset / 4 < n_words_);
        uint32_t new_pos = inst_new_pos_[r.offset / 4];
        WRL_CHECK_MSG(new_pos != UINT32_MAX, "relocation on an unemitted instruction");
        moved.offset = new_pos * 4;
      }
      obj.relocations.push_back(std::move(moved));
    }
    for (Relocation& r : new_relocs_) {
      obj.relocations.push_back(std::move(r));
    }

    // Remap symbols.
    for (const Symbol& s : input_.symbols) {
      Symbol moved = s;
      if (s.section == SectionId::kText) {
        uint32_t index = s.value / 4;
        WRL_CHECK(index <= n_words_);
        moved.value = target_new_pos_[index] * 4;
      }
      obj.symbols.push_back(std::move(moved));
    }

    // Pixie mode: append the translation table to the data segment and
    // define its (local) symbol.
    if (config_.mode == InstrumentMode::kPixie) {
      uint32_t table_offset = static_cast<uint32_t>(obj.data.size());
      while (table_offset % 4 != 0) {
        obj.data.push_back(0);
        ++table_offset;
      }
      for (uint32_t i = 0; i < n_blocks_; ++i) {
        for (int b = 0; b < 4; ++b) {
          obj.data.push_back(0);
        }
      }
      Symbol table;
      table.name = kPixieTableSymbol;
      table.value = table_offset;
      table.section = SectionId::kData;
      table.global = false;
      obj.symbols.push_back(std::move(table));
      result_.added_data_bytes = n_blocks_ * 4;
    }

    // Block annotations at their new positions.
    for (const BlockAnnotation& b : input_.blocks) {
      uint32_t index = b.offset / 4;
      if (index < n_words_ && target_new_pos_[index] != UINT32_MAX) {
        obj.blocks.push_back({target_new_pos_[index] * 4, b.flags});
      }
    }
  }

  static constexpr const char* kPixieTableSymbol = "$pixie_translation_table";

  const ObjectFile& input_;
  const EpoxieConfig& config_;

  uint32_t n_words_ = 0;
  uint32_t n_blocks_ = 0;
  // Interprocedural liveness over the input (engaged only when scavenging).
  std::optional<LivenessInfo> live_;
  std::vector<Inst> insts_;
  std::set<uint32_t> leaders_;
  std::map<uint32_t, uint32_t> flags_;

  std::vector<uint32_t> out_;
  std::vector<Relocation> new_relocs_;
  std::vector<uint32_t> inst_new_pos_;
  std::vector<uint32_t> target_new_pos_;
  std::vector<std::pair<uint32_t, uint32_t>> branch_fixups_;  // (new word pos, old target index)

  InstrumentResult result_;
};

}  // namespace

InstrumentResult Instrument(const ObjectFile& input, const EpoxieConfig& config) {
  return Instrumenter(input, config).Run();
}

}  // namespace wrl
