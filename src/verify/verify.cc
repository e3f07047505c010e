#include "verify/verify.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "isa/isa.h"
#include "support/json.h"
#include "support/strings.h"
#include "trace/abi.h"

namespace wrl {

const char* VerifySeverityName(VerifySeverity severity) {
  switch (severity) {
    case VerifySeverity::kInfo: return "info";
    case VerifySeverity::kWarning: return "warning";
    case VerifySeverity::kError: return "error";
  }
  return "?";
}

const char* VerifyPassName(VerifyPass pass) {
  switch (pass) {
    case VerifyPass::kCfg: return "cfg";
    case VerifyPass::kShape: return "shape";
    case VerifyPass::kLiveness: return "liveness";
    case VerifyPass::kRelocation: return "relocation";
    case VerifyPass::kTraceTable: return "tracetable";
    case VerifyPass::kScavenge: return "scavenge";
  }
  return "?";
}

size_t VerifyReport::CountForPass(VerifyPass pass) const {
  size_t n = 0;
  for (const VerifyFinding& f : findings) {
    if (f.pass == pass) {
      ++n;
    }
  }
  return n;
}

const VerifyFinding* VerifyReport::FirstForPass(VerifyPass pass) const {
  for (const VerifyFinding& f : findings) {
    if (f.pass == pass) {
      return &f;
    }
  }
  return nullptr;
}

void VerifyReport::Merge(const VerifyReport& other) {
  findings.insert(findings.end(), other.findings.begin(), other.findings.end());
  stats.blocks += other.stats.blocks;
  stats.traced_blocks += other.stats.traced_blocks;
  stats.instructions += other.stats.instructions;
  stats.mem_ops += other.stats.mem_ops;
  stats.relocations += other.stats.relocations;
  stats.errors += other.stats.errors;
  stats.warnings += other.stats.warnings;
}

void VerifyReport::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "blocks", &stats.blocks);
  registry.AddCounter(prefix + "traced_blocks", &stats.traced_blocks);
  registry.AddCounter(prefix + "instructions", &stats.instructions);
  registry.AddCounter(prefix + "mem_ops", &stats.mem_ops);
  registry.AddCounter(prefix + "relocations", &stats.relocations);
  registry.AddCounter(prefix + "errors", &stats.errors);
  registry.AddCounter(prefix + "warnings", &stats.warnings);
}

void VerifyReport::WriteJson(JsonWriter& writer) const {
  writer.BeginObject();
  writer.Key("stats");
  writer.BeginObject();
  writer.KV("blocks", stats.blocks);
  writer.KV("traced_blocks", stats.traced_blocks);
  writer.KV("instructions", stats.instructions);
  writer.KV("mem_ops", stats.mem_ops);
  writer.KV("relocations", stats.relocations);
  writer.KV("errors", stats.errors);
  writer.KV("warnings", stats.warnings);
  writer.EndObject();
  writer.Key("findings");
  writer.BeginArray();
  for (const VerifyFinding& f : findings) {
    writer.BeginObject();
    writer.KV("severity", VerifySeverityName(f.severity));
    writer.KV("pass", VerifyPassName(f.pass));
    writer.KV("pc", StrFormat("0x%08x", f.pc));
    writer.KV("block", static_cast<int64_t>(f.block));
    writer.KV("symbol", f.symbol);
    writer.KV("message", f.message);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
}

namespace {

// Syntactic role of one instrumented word, decided from the decoded
// instruction and its relocations alone (no walk context).
enum class WordClass : uint8_t {
  kProgram,            // Not recognizably synthesized.
  kTraceCall,          // jal bbtrace / jal memtrace (by relocation symbol).
  kBkLui,              // lui at, %hi(bk_area)
  kBkOri,              // ori at, at, %lo(bk_area)
  kSpillSave,          // sw xN, SPILL_N($at)
  kSpillReload,        // lw xN, SPILL_N($at)
  kShadowLoad,         // lw xN, SHADOW_N($at)
  kShadowStore,        // sw xN, SHADOW_N($at)
  kShadowMaterialize,  // lw at, SHADOW_N($at)  (stolen base for memtrace)
  kRefreshStore,       // sw ra, SAVED_RA($at)  (SAVED_RA refresh tail)
  kScavShadowLoad,     // lw rD, SHADOW_N($at), rD a scavenged scratch
  kScavShadowStore,    // sw rD, SHADOW_N($at), rD a scavenged scratch
};

bool IsSpillOffset(int16_t imm, unsigned* index) {
  for (unsigned i = 0; i < 3; ++i) {
    if (imm == static_cast<int16_t>(kBkSpill0 + 4 * i)) {
      *index = i;
      return true;
    }
  }
  return false;
}

bool IsShadowOffset(int16_t imm, unsigned* index) {
  for (unsigned i = 0; i < 3; ++i) {
    if (imm == static_cast<int16_t>(kBkShadow0 + 4 * i)) {
      *index = i;
      return true;
    }
  }
  return false;
}

uint8_t StolenByIndex(unsigned index) {
  return index == 0 ? kXreg1 : index == 1 ? kXreg2 : kXreg3;
}

constexpr uint32_t kStolenMask = (1u << kXreg1) | (1u << kXreg2) | (1u << kXreg3);
constexpr uint32_t kRaMask = 1u << kRa;

// Registers a scavenged window must never borrow: the constant/assembler
// registers, the kernel scratch pair, stack/global conventions, $ra, and
// the stolen set itself.  (Independent restatement of the rewriter's rule.)
constexpr uint32_t kScratchForbidden = (1u << kZero) | (1u << kAt) | (1u << kK0) |
                                       (1u << kK1) | (1u << kGp) | (1u << kSp) |
                                       (1u << kRa) | kStolenMask;

// Independent recomputation of the interprocedural register liveness that
// justifies epoxie's scavenging rewrites.  This is deliberately NOT the
// src/dataflow solver: it re-derives the same abstract semantics (the
// contract pinned in dataflow/dataflow.h's file comment) by round-robin
// sweeps directly over the instruction array, sharing no analysis code with
// the optimizer.  Both compute the unique least fixpoint of the same
// equation system, so a legitimate rewrite verifies cleanly and any
// disagreement is a genuine finding.
class RefLiveness {
 public:
  explicit RefLiveness(const ObjectFile& obj) : n_(obj.NumTextWords()) {
    insts_.reserve(n_);
    for (uint32_t i = 0; i < n_; ++i) {
      insts_.push_back(Decode(obj.TextWord(i * 4)));
    }
    slot_.assign(n_, false);
    for (uint32_t i = 0; i + 1 < n_; ++i) {
      if (!slot_[i] && HasDelaySlot(insts_[i].op)) {
        slot_[i + 1] = true;
      }
    }
    std::map<std::string, uint32_t> text_syms;
    for (const Symbol& s : obj.symbols) {
      if (s.section == SectionId::kText && s.value % 4 == 0 && s.value / 4 < n_) {
        text_syms.emplace(s.name, s.value / 4);
      }
    }
    for (const Relocation& r : obj.relocations) {
      if (r.section != SectionId::kText || r.type != RelocType::kJump26 ||
          r.offset % 4 != 0 || r.addend != 0) {
        continue;
      }
      auto it = text_syms.find(r.symbol);
      if (it != text_syms.end() && !slot_[it->second]) {
        target_of_.emplace(r.offset / 4, it->second);
      }
    }
    // Local callees: resolvable jal sites outside delay slots.
    std::map<uint32_t, Summary> sums;
    for (const auto& [w, entry] : target_of_) {
      if (insts_[w].op == Op::kJal && !slot_[w]) {
        sums.emplace(entry, Summary{0, kAll});
      }
    }
    std::vector<uint32_t> in_all;
    // The outer summary iteration is monotone and bounded (each of ≤32 bits
    // per summary side flips at most once); the cap is a defensive backstop
    // that degrades to "everything live" (sound: it can only over-report).
    for (int round = 0; round < 4096; ++round) {
      std::vector<uint32_t> in_none = Sweep(0, sums);
      in_all = Sweep(kAll, sums);
      bool changed = false;
      for (auto& [entry, sum] : sums) {
        const Summary next{in_none[entry], ~in_all[entry]};
        if (next.use != sum.use || next.def != sum.def) {
          sum = next;
          changed = true;
        }
      }
      if (!changed) {
        in_ = std::move(in_all);
        return;
      }
    }
    in_.assign(n_, kAll);
  }

  uint32_t LiveIn(uint32_t word) const { return word < in_.size() ? in_[word] : kAll; }

 private:
  static constexpr uint32_t kAll = 0xffffffffu;
  struct Summary {
    uint32_t use;  // May be read before written on some path.
    uint32_t def;  // Written on every path before any read or return.
  };

  static bool Opaque(const Inst& a) {
    return a.op == Op::kInvalid || a.op == Op::kSyscall || a.op == Op::kBreak;
  }

  // in[] at an edge to word `t`; edges off-text or onto a delay-slot word
  // degrade to top.
  uint32_t Edge(const std::vector<uint32_t>& in, int64_t t) const {
    if (t < 0 || t >= static_cast<int64_t>(n_) || slot_[static_cast<uint32_t>(t)]) {
      return kAll;
    }
    return in[static_cast<uint32_t>(t)];
  }

  // Value live immediately after the CTI+slot pair at `i` (between the
  // slot's execution and the transfer's destination side effects).
  uint32_t OutAfterPair(uint32_t i, const std::vector<uint32_t>& in, uint32_t return_top,
                        const std::map<uint32_t, Summary>& sums) const {
    const Inst& a = insts_[i];
    if (IsBranch(a.op)) {
      return Edge(in, static_cast<int64_t>(i) + 1 + a.imm) | Edge(in, static_cast<int64_t>(i) + 2);
    }
    if (a.op == Op::kJ) {
      auto it = target_of_.find(i);
      return it == target_of_.end() ? kAll : Edge(in, it->second);
    }
    if (a.op == Op::kJr) {
      return a.rs == kRa ? return_top : kAll;
    }
    // jal / jalr: callee transfer U ∪ (continuation ∖ D); unknown callees
    // use the conservative (ALL, ∅).
    uint32_t use = kAll;
    uint32_t def = 0;
    if (a.op == Op::kJal) {
      auto it = target_of_.find(i);
      if (it != target_of_.end()) {
        auto sit = sums.find(it->second);
        if (sit != sums.end()) {
          use = sit->second.use;
          def = sit->second.def;
        }
      }
    }
    return use | (Edge(in, static_cast<int64_t>(i) + 2) & ~def);
  }

  // One full solve of the equation system for a fixed `jr $ra` out-value,
  // by repeated descending sweeps to the least fixpoint.
  std::vector<uint32_t> Sweep(uint32_t return_top, const std::map<uint32_t, Summary>& sums) const {
    std::vector<uint32_t> in(n_, 0);
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t i = n_; i-- > 0;) {
        if (slot_[i]) {
          continue;  // Written when its CTI is evaluated.
        }
        const Inst& a = insts_[i];
        uint32_t v;
        if (Opaque(a)) {
          v = kAll;  // Exception entry / undecodable: everything live.
        } else if (HasDelaySlot(a.op)) {
          if (i + 1 >= n_ || HasDelaySlot(insts_[i + 1].op)) {
            v = kAll;  // Truncated pair or CTI in the slot: give up.
          } else {
            const Inst& s = insts_[i + 1];
            const uint32_t after = OutAfterPair(i, in, return_top, sums);
            const uint32_t slot_in =
                Opaque(s) ? kAll : (RegsRead(s) | (after & ~RegsWritten(s)));
            if (slot_in != in[i + 1]) {
              in[i + 1] = slot_in;
              changed = true;
            }
            v = RegsRead(a) | (slot_in & ~RegsWritten(a));
          }
        } else {
          v = RegsRead(a) | (Edge(in, static_cast<int64_t>(i) + 1) & ~RegsWritten(a));
        }
        if (v != in[i]) {
          in[i] = v;
          changed = true;
        }
      }
    }
    return in;
  }

  uint32_t n_;
  std::vector<Inst> insts_;
  std::vector<bool> slot_;
  std::map<uint32_t, uint32_t> target_of_;  // j/jal word -> local entry word.
  std::vector<uint32_t> in_;
};

// Abstract state of one stolen register inside a block (liveness pass).
enum class StolenState : uint8_t {
  kTrace,    // Holds live tracing state; original code must not touch it.
  kSpilled,  // Tracing state saved to the spill slot; register untouched.
  kShadow,   // Holds the program's (shadow) value; tracing state in spill.
};

class ObjectVerifier {
 public:
  ObjectVerifier(const ObjectFile& original, const InstrumentResult& result,
                 const VerifyOptions& options)
      : orig_(original), res_(result), opt_(options),
        pixie_(options.epoxie.mode == InstrumentMode::kPixie) {}

  VerifyReport Run() {
    Setup();
    if (setup_ok_) {
      Walk();
      LivenessPass();
      RelocationPass();
      TraceTablePass();
      ScavengePass();
    }
    return std::move(report_);
  }

 private:
  // Header length in words for the current mode (full, non-elided form).
  unsigned HeaderWords() const { return pixie_ ? 11 : 3; }
  // Raw encoding of the header 'sw ra, SAVED_RA(xreg3)' save word.
  static uint32_t HeaderSaveRaw() {
    return EncodeIType(Op::kSw, kXreg3, kRa, static_cast<uint16_t>(kBkSavedRa));
  }

  void Add(VerifySeverity severity, VerifyPass pass, uint32_t word_pos, int32_t block,
           std::string message) {
    VerifyFinding f;
    f.severity = severity;
    f.pass = pass;
    f.pc = opt_.text_base + word_pos * 4;
    f.block = block;
    if (block >= 0 && static_cast<size_t>(block) < blocks_.size()) {
      f.symbol = SymbolForOrig(blocks_[block].start);
    }
    f.message = std::move(message);
    if (severity == VerifySeverity::kError) {
      ++report_.stats.errors;
    } else if (severity == VerifySeverity::kWarning) {
      ++report_.stats.warnings;
    }
    report_.findings.push_back(std::move(f));
  }
  void Err(VerifyPass pass, uint32_t word_pos, int32_t block, std::string message) {
    Add(VerifySeverity::kError, pass, word_pos, block, std::move(message));
  }
  void Warn(VerifyPass pass, uint32_t word_pos, int32_t block, std::string message) {
    Add(VerifySeverity::kWarning, pass, word_pos, block, std::move(message));
  }

  // ---- Setup: decode both texts, index relocations, derive blocks ----

  void Setup() {
    if (orig_.text.size() % 4 != 0 || res_.object.text.size() % 4 != 0) {
      Err(VerifyPass::kCfg, 0, -1, "text section size is not word-aligned");
      return;
    }
    n_orig_ = orig_.NumTextWords();
    n_inst_ = res_.object.NumTextWords();
    if (res_.original_text_words != n_orig_) {
      Err(VerifyPass::kCfg, 0, -1,
          StrFormat("InstrumentResult claims %u original text words, object has %u",
                    res_.original_text_words, n_orig_));
    }
    oinsts_.reserve(n_orig_);
    for (uint32_t i = 0; i < n_orig_; ++i) {
      oinsts_.push_back(Decode(orig_.TextWord(i * 4)));
    }
    iinsts_.reserve(n_inst_);
    for (uint32_t i = 0; i < n_inst_; ++i) {
      iinsts_.push_back(Decode(res_.object.TextWord(i * 4)));
    }
    for (const Relocation& r : res_.object.relocations) {
      if (r.section == SectionId::kText && r.offset % 4 == 0) {
        irelocs_[r.offset / 4].push_back(&r);
      }
    }

    // Blocks: leaders are the annotation offsets plus offset 0, exactly the
    // rule epoxie applies.
    std::set<uint32_t> leaders;
    std::map<uint32_t, uint32_t> flags;
    for (const BlockAnnotation& b : orig_.blocks) {
      if (b.offset % 4 != 0 || b.offset / 4 > n_orig_) {
        Err(VerifyPass::kCfg, b.offset / 4, -1, "block annotation outside the text section");
        continue;
      }
      leaders.insert(b.offset / 4);
      flags[b.offset / 4] = b.flags;
    }
    if (n_orig_ > 0) {
      leaders.insert(0);
    }
    for (uint32_t i = 0; i + 1 < n_orig_; ++i) {
      if (HasDelaySlot(oinsts_[i].op) && leaders.count(i + 1) != 0) {
        Err(VerifyPass::kCfg, i + 1, -1, "basic-block leader on a delay slot");
      }
    }
    std::vector<uint32_t> sorted(leaders.begin(), leaders.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
      uint32_t start = sorted[i];
      uint32_t end = (i + 1 < sorted.size()) ? sorted[i + 1] : n_orig_;
      if (start >= end) {
        continue;
      }
      Block b;
      b.start = start;
      b.end = end;
      auto it = flags.find(start);
      b.flags = it == flags.end() ? 0 : it->second;
      b.traced = (b.flags & (kBlockNoTrace | kBlockHandTraced)) == 0;
      blocks_.push_back(b);
    }
    report_.stats.blocks = blocks_.size();

    // Static block map, keyed by original offset.
    for (const BlockStatic& bs : res_.blocks) {
      if (!info_by_orig_.emplace(bs.orig_offset, &bs).second) {
        Err(VerifyPass::kTraceTable, bs.key_offset / 4, -1,
            StrFormat("duplicate block-map entry for original offset 0x%x", bs.orig_offset));
      }
    }
    for (size_t bi = 0; bi < blocks_.size(); ++bi) {
      auto it = info_by_orig_.find(blocks_[bi].start * 4);
      blocks_[bi].info = it == info_by_orig_.end() ? nullptr : it->second;
    }

    // Global text symbols of the original object, for attributing findings
    // to their owning procedure (the way wrlprof symbolizes blocks).
    for (const Symbol& s : orig_.symbols) {
      if (s.global && s.section == SectionId::kText && s.value % 4 == 0) {
        syms_.emplace_back(s.value / 4, s.name);
      }
    }
    std::sort(syms_.begin(), syms_.end());

    orig_pos_.assign(n_orig_, UINT32_MAX);
    lifts_.assign(blocks_.size(), BlockLift{});
    setup_ok_ = true;
  }

  // Owning procedure of original word `w`: the last global text symbol at
  // or below it; "" when none precedes.
  std::string SymbolForOrig(uint32_t w) const {
    auto it = std::upper_bound(syms_.begin(), syms_.end(),
                               std::make_pair(w, std::string("\x7f")));
    return it == syms_.begin() ? std::string() : std::prev(it)->second;
  }

  const Relocation* SoleReloc(uint32_t q, RelocType type) const {
    auto it = irelocs_.find(q);
    if (it == irelocs_.end() || it->second.size() != 1 || it->second[0]->type != type) {
      return nullptr;
    }
    return it->second[0];
  }
  bool HasReloc(uint32_t q) const { return irelocs_.count(q) != 0; }

  // Purely syntactic classification of instrumented word `q`.  `stolen`
  // receives the stolen-register number for the spill/shadow classes.
  WordClass Classify(uint32_t q, uint8_t* stolen) const {
    const Inst& in = iinsts_[q];
    unsigned index = 0;
    if (in.op == Op::kJal) {
      const Relocation* r = SoleReloc(q, RelocType::kJump26);
      if (r != nullptr &&
          (r->symbol == kBbtraceSymbol || r->symbol == kMemtraceSymbol)) {
        return WordClass::kTraceCall;
      }
      return WordClass::kProgram;
    }
    if (in.op == Op::kLui && in.rt == kAt) {
      const Relocation* r = SoleReloc(q, RelocType::kHi16);
      if (r != nullptr && r->symbol == kBookkeepingSymbol) {
        return WordClass::kBkLui;
      }
      return WordClass::kProgram;
    }
    if (in.op == Op::kOri && in.rt == kAt && in.rs == kAt) {
      const Relocation* r = SoleReloc(q, RelocType::kLo16);
      if (r != nullptr && r->symbol == kBookkeepingSymbol) {
        return WordClass::kBkOri;
      }
      return WordClass::kProgram;
    }
    if (HasReloc(q)) {
      return WordClass::kProgram;
    }
    if (in.op == Op::kSw && in.rs == kAt) {
      if (in.rt == kRa && in.imm == static_cast<int16_t>(kBkSavedRa)) {
        return WordClass::kRefreshStore;
      }
      if (IsStolenReg(in.rt) && IsSpillOffset(in.imm, &index) &&
          StolenByIndex(index) == in.rt) {
        *stolen = in.rt;
        return WordClass::kSpillSave;
      }
      if (IsStolenReg(in.rt) && IsShadowOffset(in.imm, &index) &&
          StolenByIndex(index) == in.rt) {
        *stolen = in.rt;
        return WordClass::kShadowStore;
      }
      if (!IsStolenReg(in.rt) && in.rt != kRa && in.rt != kAt && in.rt != kZero &&
          IsShadowOffset(in.imm, &index)) {
        *stolen = StolenByIndex(index);
        return WordClass::kScavShadowStore;
      }
    }
    if (in.op == Op::kLw && in.rs == kAt) {
      if (IsStolenReg(in.rt) && IsSpillOffset(in.imm, &index) &&
          StolenByIndex(index) == in.rt) {
        *stolen = in.rt;
        return WordClass::kSpillReload;
      }
      if (IsStolenReg(in.rt) && IsShadowOffset(in.imm, &index) &&
          StolenByIndex(index) == in.rt) {
        *stolen = in.rt;
        return WordClass::kShadowLoad;
      }
      if (in.rt == kAt && IsShadowOffset(in.imm, &index)) {
        *stolen = StolenByIndex(index);
        return WordClass::kShadowMaterialize;
      }
      if (!IsStolenReg(in.rt) && in.rt != kRa && in.rt != kZero &&
          IsShadowOffset(in.imm, &index)) {
        *stolen = StolenByIndex(index);
        return WordClass::kScavShadowLoad;
      }
    }
    return WordClass::kProgram;
  }

  // The symbol a trace-call jal targets ("" when not a trace call).
  const std::string& TraceCallSymbol(uint32_t q) const {
    static const std::string kEmpty;
    const Relocation* r = SoleReloc(q, RelocType::kJump26);
    return r == nullptr ? kEmpty : r->symbol;
  }

  // ---- The shape walk ----

  struct Block {
    uint32_t start = 0;
    uint32_t end = 0;
    uint32_t flags = 0;
    bool traced = false;
    const BlockStatic* info = nullptr;
  };

  struct BlockLift {
    uint32_t header_pos = UINT32_MAX;  // First instrumented word of the block.
    uint32_t body_pos = UINT32_MAX;    // First word after the header.
    uint32_t end_pos = UINT32_MAX;     // One past the block's last word.
    uint32_t header_n = 0;             // Trace-word count in the header.
    uint32_t actual_mem_ops = 0;       // Memory ops seen in the walk.
    bool walked = false;               // Lift completed without divergence.
    bool save_elided = false;          // Header lacks the 'sw ra' save word.
  };

  // Actual header length of one lifted block.
  unsigned HeaderWordsFor(const BlockLift& lift) const {
    return pixie_ ? 11u : (lift.save_elided ? 2u : 3u);
  }

  // Matches instrumented word `q` against original instruction `i`.
  // Branches compare everything but the (retargeted) immediate.
  bool MatchesOriginal(uint32_t q, uint32_t i) const {
    const Inst& o = oinsts_[i];
    const Inst& w = iinsts_[q];
    if (IsBranch(o.op)) {
      return (w.raw & 0xffff0000u) == (o.raw & 0xffff0000u);
    }
    return w.raw == o.raw;
  }

  void RecordOriginal(uint32_t q, uint32_t i) {
    orig_pos_[i] = q;
    ++report_.stats.instructions;
    if (IsBranch(oinsts_[i].op)) {
      branch_audits_.push_back({q, i});
    }
  }

  // A memtrace announcement waiting for its memory instruction.
  struct Announce {
    uint32_t pc = 0;         // Word position of the delay-slot word.
    uint8_t base = 0;        // Base register in the announced decode.
    int16_t imm = 0;         // Announced offset.
    int shadow_reg = -1;     // Stolen register materialized into $at, or -1.
  };

  // Legality of a memory op riding in the memtrace delay slot (the
  // Figure-2 hazard rules).  Returns an explanation when illegal.
  std::string PackedHazard(const Inst& mem) const {
    if (pixie_) {
      return "pixie mode never packs the memory instruction in the delay slot";
    }
    uint32_t touched = (RegsRead(mem) | RegsWritten(mem)) & kStolenMask;
    if (touched != 0) {
      return "packed memory instruction touches a stolen register";
    }
    if (RegsRead(mem) & kRaMask) {
      return "packed memory instruction reads ra, which the jal clobbers first "
             "(the Figure-2 sw-ra hazard requires the surrogate form)";
    }
    if (RegsWritten(mem) & kRaMask) {
      return "packed memory instruction writes ra";
    }
    if (IsLoad(mem.op) && mem.rt == mem.rs) {
      return "packed self-clobbering load would be decoded after it executes";
    }
    return "";
  }

  // Consumes the pending announcement for memory instruction `i` at `q`.
  // `scav` (when non-null) maps StolenIndex -> scavenged scratch register
  // (-1 = unmapped) for a substituted instruction, whose stolen base is
  // announced through the scratch rather than a $at materialization.
  void ConsumeAnnounce(std::optional<Announce>& pending, uint32_t q, uint32_t i, int32_t bi,
                       const int* scav = nullptr) {
    ++report_.stats.mem_ops;
    const Inst& mem = oinsts_[i];
    if (!pending.has_value()) {
      Err(VerifyPass::kShape, q, bi,
          StrFormat("memory instruction '%s' is not covered by a memtrace announcement",
                    Disassemble(mem, q * 4).c_str()));
      return;
    }
    const Announce& a = *pending;
    bool base_ok = false;
    if (IsStolenReg(mem.rs)) {
      const int scratch = scav == nullptr ? -1 : scav[StolenIndex(mem.rs)];
      base_ok = (a.base == kAt && a.shadow_reg == mem.rs) ||
                (scratch >= 0 && a.base == scratch);
      if (!base_ok && a.base == kAt && a.shadow_reg != mem.rs) {
        Err(VerifyPass::kShape, a.pc, bi,
            StrFormat("surrogate materializes the shadow of $%s but the memory instruction "
                      "is based on $%s",
                      a.shadow_reg >= 0 ? RegName(static_cast<uint8_t>(a.shadow_reg)) : "?",
                      RegName(mem.rs)));
        pending.reset();
        return;
      }
    } else {
      base_ok = a.base == mem.rs;
    }
    if (!base_ok || a.imm != mem.imm) {
      Err(VerifyPass::kShape, a.pc, bi,
          StrFormat("memtrace announcement decodes %d($%s) but the memory instruction "
                    "accesses %d($%s)",
                    a.imm, RegName(a.base), mem.imm, RegName(mem.rs)));
    }
    pending.reset();
  }

  // Matches the epoxie (3-word) or pixie (11-word) block header at q_ for
  // block `bi`.  Returns false on divergence (finding already recorded).
  bool MatchHeader(size_t bi) {
    const Block& b = blocks_[bi];
    BlockLift& lift = lifts_[bi];
    if (q_ >= n_inst_) {
      Err(VerifyPass::kShape, q_, static_cast<int32_t>(bi),
          "instrumented text ends inside a block header");
      return false;
    }
    uint32_t p = q_;
    if (iinsts_[p].raw == HeaderSaveRaw()) {
      ++p;
    } else if (pixie_) {
      Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
          StrFormat("block header word 0 is '%s', expected 'sw ra, SAVED_RA(xreg3)'",
                    DisassembleWord(iinsts_[p].raw, p * 4).c_str()));
      return false;
    } else {
      // Scavenged (elided-save) header: the word must then be the jal
      // itself; the scavenge pass proves $ra dead at this leader.
      lift.save_elided = true;
    }
    const unsigned need = HeaderWordsFor(lift);
    if (q_ + need > n_inst_) {
      Err(VerifyPass::kShape, q_, static_cast<int32_t>(bi),
          "instrumented text ends inside a block header");
      return false;
    }
    if (pixie_) {
      // lui/ori $at against the translation table, lw $at, 0($at).
      const Relocation* hi = SoleReloc(p, RelocType::kHi16);
      if (iinsts_[p].op != Op::kLui || iinsts_[p].rt != kAt || hi == nullptr) {
        Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
            "pixie header: missing translation-table lui");
        return false;
      }
      ++p;
      const Relocation* lo = SoleReloc(p, RelocType::kLo16);
      if (iinsts_[p].op != Op::kOri || iinsts_[p].rt != kAt || lo == nullptr ||
          lo->symbol != hi->symbol) {
        Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
            "pixie header: missing translation-table ori");
        return false;
      }
      ++p;
      if (iinsts_[p].raw != EncodeIType(Op::kLw, kAt, kAt, 0)) {
        Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
            "pixie header: missing translation-table load");
        return false;
      }
      ++p;
      uint8_t stolen = 0;
      if (Classify(p, &stolen) != WordClass::kBkLui ||
          Classify(p + 1, &stolen) != WordClass::kBkOri) {
        Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
            "pixie header: missing bookkeeping-area load");
        return false;
      }
      p += 2;
      if (iinsts_[p].raw !=
          EncodeIType(Op::kLw, kAt, kXreg2, static_cast<uint16_t>(kBkInstCount))) {
        Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
            "pixie header: missing instruction-counter load");
        return false;
      }
      ++p;
      if (iinsts_[p].op != Op::kAddiu || iinsts_[p].rt != kXreg2 || iinsts_[p].rs != kXreg2 ||
          iinsts_[p].imm != static_cast<int16_t>(b.end - b.start)) {
        Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
            StrFormat("pixie header: instruction-counter increment is %d, block has %u "
                      "instructions",
                      iinsts_[p].op == Op::kAddiu ? iinsts_[p].imm : 0, b.end - b.start));
        return false;
      }
      ++p;
      if (iinsts_[p].raw !=
          EncodeIType(Op::kSw, kAt, kXreg2, static_cast<uint16_t>(kBkInstCount))) {
        Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
            "pixie header: missing instruction-counter store");
        return false;
      }
      ++p;
    }
    const Relocation* jal = SoleReloc(p, RelocType::kJump26);
    if (iinsts_[p].op != Op::kJal || jal == nullptr ||
        jal->symbol != kBbtraceSymbol) {
      Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
          StrFormat("block header word %u is not 'jal %s'", p - q_,
                    kBbtraceSymbol));
      return false;
    }
    ++p;
    if (iinsts_[p].op != Op::kOri || iinsts_[p].rt != kZero || iinsts_[p].rs != kZero) {
      Err(VerifyPass::kShape, p, static_cast<int32_t>(bi),
          "bbtrace delay slot is not the 'li zero, N' trace-length word");
      return false;
    }
    lift.header_n = static_cast<uint16_t>(iinsts_[p].imm);
    ++p;
    q_ = p;
    lift.body_pos = q_;
    return true;
  }

  // Re-encodes original instruction `o` with its stolen register fields
  // renamed through `m` (indexed by StolenIndex, -1 = identity).  Written
  // against the shared ISA encoders only — deliberately independent of the
  // rewriter's own substitution code.
  static uint32_t RenameStolen(const Inst& o, const int m[3]) {
    auto ren = [&](uint8_t r) -> uint8_t {
      if (IsStolenReg(r) && m[StolenIndex(r)] >= 0) {
        return static_cast<uint8_t>(m[StolenIndex(r)]);
      }
      return r;
    };
    switch (o.op) {
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
        return EncodeRType(o.op, ren(o.rs), ren(o.rt), ren(o.rd), o.shamt);
      case Op::kMfc0:
      case Op::kMtc0:
        return EncodeCop0(o.op, ren(o.rt), o.rd);
      case Op::kLui:
        return EncodeIType(o.op, 0, ren(o.rt), static_cast<uint16_t>(o.imm));
      default:
        return EncodeIType(o.op, ren(o.rs), ren(o.rt), static_cast<uint16_t>(o.imm));
    }
  }

  // True when instrumented word `q` is exactly original instruction `i`
  // with stolen register fields renamed onto scratches; fills `subst`
  // (indexed by StolenIndex, -1 = untouched).  The map is inferred from
  // the differing register fields and then validated by re-encoding.
  bool TryMatchSubstituted(uint32_t q, uint32_t i, int subst[3]) const {
    const Inst& o = oinsts_[i];
    const Inst& w = iinsts_[q];
    subst[0] = subst[1] = subst[2] = -1;
    if (o.op != w.op || o.op == Op::kInvalid || HasDelaySlot(o.op) || IsBranch(o.op)) {
      return false;
    }
    if (((RegsRead(o) | RegsWritten(o)) & kStolenMask) == 0) {
      return false;  // Nothing to scavenge; the verbatim match already failed.
    }
    auto field = [&](uint8_t oreg, uint8_t wreg) {
      if (oreg == wreg) {
        return true;
      }
      if (!IsStolenReg(oreg)) {
        return false;
      }
      int& slot = subst[StolenIndex(oreg)];
      if (slot < 0) {
        slot = wreg;
      }
      return slot == wreg;
    };
    if (!field(o.rs, w.rs) || !field(o.rt, w.rt) || !field(o.rd, w.rd)) {
      return false;
    }
    if (subst[0] < 0 && subst[1] < 0 && subst[2] < 0) {
      return false;
    }
    return RenameStolen(o, subst) == w.raw;
  }

  // One substituted (register-scavenged) instruction seen in the walk; the
  // scavenge pass proves each scratch dead from independent liveness.
  struct ScavUse {
    uint32_t inst_pos;    // Instrumented word of the substituted instruction.
    uint32_t orig_index;  // Original word index.
    int32_t block;
    int subst[3];         // StolenIndex -> scratch register, -1 = untouched.
  };

  // Walks one block; returns false on divergence (the caller resyncs).
  bool WalkBlock(size_t bi) {
    const Block& b = blocks_[bi];
    BlockLift& lift = lifts_[bi];
    lift.header_pos = q_;
    const int32_t bn = static_cast<int32_t>(bi);

    if (!b.traced) {
      lift.body_pos = q_;
      for (uint32_t i = b.start; i < b.end; ++i, ++q_) {
        if (q_ >= n_inst_ || !MatchesOriginal(q_, i)) {
          Err(VerifyPass::kShape, q_, bn,
              "untraced block is not copied verbatim into the instrumented text");
          return false;
        }
        RecordOriginal(q_, i);
      }
      lift.end_pos = q_;
      lift.walked = true;
      return true;
    }

    ++report_.stats.traced_blocks;
    if (!MatchHeader(bi)) {
      return false;
    }

    uint32_t i = b.start;
    std::optional<Announce> pending;
    int last_at_shadow = -1;       // Stolen register whose shadow sits in $at.
    uint32_t ra_write_pc = UINT32_MAX;  // Original inst that wrote ra, awaiting refresh.
    int scav_map[3] = {-1, -1, -1};  // StolenIndex -> scratch loaded this window.
    uint32_t scav_store_due = 0;     // StolenIndex bits awaiting a shadow write-back.
    uint32_t scav_store_q = 0;       // Where the write-back obligation arose.

    auto scav_window_reset = [&](uint32_t at_q) {
      if (scav_store_due != 0) {
        Err(VerifyPass::kScavenge, scav_store_q == 0 ? at_q : scav_store_q, bn,
            "scavenged write was not stored back to its shadow slot before the "
            "window closed");
        scav_store_due = 0;
      }
      scav_map[0] = scav_map[1] = scav_map[2] = -1;
    };

    auto refresh_due = [&](uint32_t at_q) {
      if (ra_write_pc != UINT32_MAX) {
        Err(VerifyPass::kShape, at_q, bn,
            "ra written mid-block without a SAVED_RA refresh before the next instruction");
        ra_write_pc = UINT32_MAX;
      }
    };

    while (i < b.end) {
      if (q_ >= n_inst_) {
        Err(VerifyPass::kShape, q_, bn, "instrumented text ends mid-block");
        return false;
      }
      // Trace calls take precedence (their raw bits can look like program
      // jals); everything else tries the in-order original match first.
      uint8_t stolen = 0;
      WordClass cls = Classify(q_, &stolen);
      if (cls == WordClass::kTraceCall) {
        const std::string& sym = TraceCallSymbol(q_);
        if (sym == kBbtraceSymbol) {
          Err(VerifyPass::kShape, q_, bn, "bbtrace call outside a block header");
          return false;
        }
        if (q_ + 1 >= n_inst_) {
          Err(VerifyPass::kShape, q_, bn, "memtrace call has no delay slot");
          return false;
        }
        const Inst& delay = iinsts_[q_ + 1];
        bool is_packed_op = i < b.end && MemAccessBytes(oinsts_[i].op) != 0 &&
                            !HasDelaySlot(oinsts_[i].op) && MatchesOriginal(q_ + 1, i);
        if (is_packed_op) {
          refresh_due(q_);
          std::string hazard = PackedHazard(oinsts_[i]);
          if (!hazard.empty()) {
            Err(VerifyPass::kShape, q_ + 1, bn, hazard);
          }
          if (pending.has_value()) {
            Err(VerifyPass::kShape, pending->pc, bn,
                "memtrace announcement not followed by its memory instruction");
            pending.reset();
          }
          RecordOriginal(q_ + 1, i);
          ++report_.stats.mem_ops;
          if (RegsWritten(oinsts_[i]) & kRaMask) {
            ra_write_pc = q_ + 1;
          }
          ++i;
          q_ += 2;
          continue;
        }
        if (delay.op == Op::kAddiu && delay.rt == kZero && !HasReloc(q_ + 1)) {
          if (pending.has_value()) {
            Err(VerifyPass::kShape, pending->pc, bn,
                "memtrace announcement not followed by its memory instruction");
          }
          Announce a;
          a.pc = q_ + 1;
          a.base = delay.rs;
          a.imm = delay.imm;
          if (delay.rs == kAt) {
            if (last_at_shadow < 0) {
              Err(VerifyPass::kShape, q_ + 1, bn,
                  "surrogate based on $at without a preceding shadow materialization");
            }
            a.shadow_reg = last_at_shadow;
          }
          pending = a;
          q_ += 2;
          continue;
        }
        Err(VerifyPass::kShape, q_ + 1, bn,
            StrFormat("memtrace delay slot holds '%s', neither the block's next memory "
                      "instruction nor an addiu-to-$zero surrogate",
                      DisassembleWord(delay.raw, (q_ + 1) * 4).c_str()));
        return false;
      }

      if (MatchesOriginal(q_, i)) {
        const Inst& o = oinsts_[i];
        refresh_due(q_);
        if (HasDelaySlot(o.op)) {
          if (i + 1 >= b.end) {
            Err(VerifyPass::kCfg, q_, bn, "delay slot crosses the block boundary");
            return false;
          }
          if (q_ + 1 >= n_inst_ || !MatchesOriginal(q_ + 1, i + 1)) {
            Err(VerifyPass::kShape, q_ + 1, bn,
                "control transfer is not followed by its original delay-slot instruction");
            return false;
          }
          const Inst& slot = oinsts_[i + 1];
          RecordOriginal(q_, i);
          RecordOriginal(q_ + 1, i + 1);
          if (MemAccessBytes(slot.op) != 0) {
            if (RegsWritten(o) & RegsRead(slot)) {
              Err(VerifyPass::kShape, q_ + 1, bn,
                  "delay-slot memory op reads a register its jump writes; the hoisted "
                  "memtrace call records a stale value");
            }
            ConsumeAnnounce(pending, q_ + 1, i + 1, bn);
          } else if (pending.has_value()) {
            Err(VerifyPass::kShape, pending->pc, bn,
                "memtrace announcement not followed by its memory instruction");
            pending.reset();
          }
          i += 2;
          q_ += 2;
          continue;
        }
        RecordOriginal(q_, i);
        if (MemAccessBytes(o.op) != 0) {
          ConsumeAnnounce(pending, q_, i, bn);
        } else if (pending.has_value()) {
          Err(VerifyPass::kShape, pending->pc, bn,
              "memtrace announcement not followed by its memory instruction");
          pending.reset();
        }
        if (RegsWritten(o) & kRaMask) {
          ra_write_pc = q_;
        }
        ++i;
        ++q_;
        continue;
      }

      switch (cls) {
        case WordClass::kBkLui:
        case WordClass::kBkOri:
          last_at_shadow = -1;
          scav_window_reset(q_);
          ++q_;
          continue;
        case WordClass::kShadowMaterialize:
          last_at_shadow = stolen;
          ++q_;
          continue;
        case WordClass::kSpillSave:
        case WordClass::kSpillReload:
        case WordClass::kShadowLoad:
        case WordClass::kShadowStore:
          // Protocol order is the liveness pass's business.
          ++q_;
          continue;
        case WordClass::kScavShadowLoad:
          scav_map[StolenIndex(stolen)] = iinsts_[q_].rt;
          ++q_;
          continue;
        case WordClass::kScavShadowStore: {
          const unsigned x = StolenIndex(stolen);
          if ((scav_store_due & (1u << x)) == 0 || scav_map[x] != iinsts_[q_].rt) {
            Err(VerifyPass::kScavenge, q_, bn,
                StrFormat("shadow write-back of $%s through $%s matches no scavenged "
                          "write in this window",
                          RegName(stolen), RegName(iinsts_[q_].rt)));
          }
          scav_store_due &= ~(1u << x);
          ++q_;
          continue;
        }
        case WordClass::kRefreshStore:
          ra_write_pc = UINT32_MAX;
          ++q_;
          continue;
        default: {
          int subst[3];
          if (TryMatchSubstituted(q_, i, subst)) {
            refresh_due(q_);
            const Inst& o = oinsts_[i];
            for (unsigned x = 0; x < 3; ++x) {
              if (subst[x] < 0) {
                continue;
              }
              const uint8_t sreg = StolenByIndex(x);
              if ((RegsRead(o) & (1u << sreg)) && scav_map[x] != subst[x]) {
                Err(VerifyPass::kScavenge, q_, bn,
                    StrFormat("scavenged read of $%s through $%s without a shadow load "
                              "into it",
                              RegName(sreg), RegName(static_cast<uint8_t>(subst[x]))));
              }
              if (RegsWritten(o) & (1u << sreg)) {
                scav_map[x] = subst[x];
                scav_store_due |= 1u << x;
                scav_store_q = q_;
              }
            }
            scav_uses_.push_back(ScavUse{q_, i, bn, {subst[0], subst[1], subst[2]}});
            RecordOriginal(q_, i);
            if (MemAccessBytes(o.op) != 0) {
              ConsumeAnnounce(pending, q_, i, bn, subst);
            } else if (pending.has_value()) {
              Err(VerifyPass::kShape, pending->pc, bn,
                  "memtrace announcement not followed by its memory instruction");
              pending.reset();
            }
            if (RegsWritten(o) & kRaMask) {
              ra_write_pc = q_;
            }
            ++i;
            ++q_;
            continue;
          }
          Err(VerifyPass::kShape, q_, bn,
              StrFormat("instrumented text diverges from the original block: found '%s', "
                        "expected '%s'",
                        DisassembleWord(iinsts_[q_].raw, q_ * 4).c_str(),
                        Disassemble(oinsts_[i], i * 4).c_str()));
          return false;
        }
      }
    }

    // Trailing synthesized words (the window tail / SAVED_RA refresh of the
    // block's last instruction) belong to this block: consume until the
    // next word stops looking synthesized.
    while (q_ < n_inst_) {
      uint8_t stolen = 0;
      WordClass cls = Classify(q_, &stolen);
      if (cls == WordClass::kProgram || cls == WordClass::kTraceCall) {
        break;
      }
      if (cls == WordClass::kRefreshStore) {
        ra_write_pc = UINT32_MAX;
      }
      if (cls == WordClass::kScavShadowStore) {
        const unsigned x = StolenIndex(stolen);
        if ((scav_store_due & (1u << x)) == 0 || scav_map[x] != iinsts_[q_].rt) {
          Err(VerifyPass::kScavenge, q_, bn,
              StrFormat("shadow write-back of $%s through $%s matches no scavenged "
                        "write in this window",
                        RegName(stolen), RegName(iinsts_[q_].rt)));
        }
        scav_store_due &= ~(1u << x);
      }
      // A bare 'sw ra, SAVED_RA(xreg3)' here is the next block's header.
      if (iinsts_[q_].raw == HeaderSaveRaw()) {
        break;
      }
      ++q_;
    }
    scav_window_reset(q_ == 0 ? 0 : q_ - 1);
    if (pending.has_value()) {
      Err(VerifyPass::kShape, pending->pc, bn,
          "memtrace announcement not followed by its memory instruction");
    }
    if (ra_write_pc != UINT32_MAX) {
      Err(VerifyPass::kShape, ra_write_pc, bn,
          "ra written at the end of a block without a SAVED_RA refresh");
    }
    lift.end_pos = q_;
    lift.walked = true;
    return true;
  }

  void Walk() {
    q_ = 0;
    size_t bi = 0;
    bool complete = true;
    while (bi < blocks_.size()) {
      size_t mem_before = report_.stats.mem_ops;
      bool ok = WalkBlock(bi);
      lifts_[bi].actual_mem_ops = static_cast<uint32_t>(report_.stats.mem_ops - mem_before);
      if (ok && blocks_[bi].traced &&
          lifts_[bi].header_n != 1 + lifts_[bi].actual_mem_ops) {
        Err(VerifyPass::kShape, lifts_[bi].header_pos, static_cast<int32_t>(bi),
            StrFormat("header reserves %u trace words but the block generates %u "
                      "(1 bb word + %u memory ops)",
                      lifts_[bi].header_n, 1 + lifts_[bi].actual_mem_ops,
                      lifts_[bi].actual_mem_ops));
      }
      if (!ok) {
        complete = false;
        // Resync at the next block whose header position the static map
        // pins down.
        size_t bj = bi + 1;
        bool found = false;
        for (; bj < blocks_.size(); ++bj) {
          const BlockStatic* info = blocks_[bj].info;
          if (info == nullptr || info->key_offset % 4 != 0) {
            continue;
          }
          const uint32_t j = info->key_offset / 4;
          // The key points two words past the jal; the header starts one
          // word earlier still when the 'sw ra' save is present (epoxie) or
          // at j-11 (pixie).
          if (pixie_) {
            if (j >= 11 && j - 11 < n_inst_) {
              q_ = j - 11;
              found = true;
              break;
            }
          } else if (j >= 3 && j - 3 < n_inst_ && iinsts_[j - 3].raw == HeaderSaveRaw()) {
            q_ = j - 3;
            found = true;
            break;
          } else if (j >= 2 && j - 2 < n_inst_) {
            q_ = j - 2;
            found = true;
            break;
          }
        }
        if (!found) {
          return;
        }
        bi = bj;
        continue;
      }
      ++bi;
    }
    if (complete && q_ != n_inst_) {
      Err(VerifyPass::kShape, q_, -1,
          StrFormat("%u trailing instrumented words after the last block", n_inst_ - q_));
    }
  }

  // ---- Liveness: abstract interpretation of the stolen registers ----

  void LivenessPass() {
    for (size_t bi = 0; bi < blocks_.size(); ++bi) {
      const Block& b = blocks_[bi];
      const BlockLift& lift = lifts_[bi];
      if (!b.traced || !lift.walked) {
        continue;
      }
      StolenState state[3] = {StolenState::kTrace, StolenState::kTrace, StolenState::kTrace};
      bool spill_saved[3] = {false, false, false};
      const int32_t bn = static_cast<int32_t>(bi);
      auto idx = [](uint8_t reg) { return StolenIndex(reg); };

      for (uint32_t q = lift.body_pos; q < lift.end_pos; ++q) {
        uint8_t stolen = 0;
        WordClass cls = Classify(q, &stolen);
        switch (cls) {
          case WordClass::kTraceCall:
            for (unsigned x = 0; x < 3; ++x) {
              if (state[x] == StolenState::kShadow) {
                Err(VerifyPass::kLiveness, q, bn,
                    StrFormat("support call while $%s holds a shadow value instead of "
                              "tracing state",
                              RegName(StolenByIndex(x))));
                state[x] = StolenState::kTrace;
              }
            }
            break;
          case WordClass::kSpillSave:
            if (state[idx(stolen)] == StolenState::kShadow) {
              Err(VerifyPass::kLiveness, q, bn,
                  StrFormat("spill save of $%s captures a shadow value, not tracing state",
                            RegName(stolen)));
            }
            spill_saved[idx(stolen)] = true;
            if (state[idx(stolen)] == StolenState::kTrace) {
              state[idx(stolen)] = StolenState::kSpilled;
            }
            break;
          case WordClass::kShadowLoad:
            if (!spill_saved[idx(stolen)]) {
              Err(VerifyPass::kLiveness, q, bn,
                  StrFormat("steal of $%s is not dominated by a spill-slot save",
                            RegName(stolen)));
            }
            state[idx(stolen)] = StolenState::kShadow;
            break;
          case WordClass::kShadowStore:
            if (state[idx(stolen)] != StolenState::kShadow) {
              Err(VerifyPass::kLiveness, q, bn,
                  StrFormat("shadow write-back of $%s stores tracing state into the "
                            "shadow slot",
                            RegName(stolen)));
            }
            break;
          case WordClass::kSpillReload:
            if (!spill_saved[idx(stolen)]) {
              Err(VerifyPass::kLiveness, q, bn,
                  StrFormat("spill reload of $%s without a preceding save", RegName(stolen)));
            }
            state[idx(stolen)] = StolenState::kTrace;
            break;
          case WordClass::kBkLui:
          case WordClass::kBkOri:
          case WordClass::kShadowMaterialize:
          case WordClass::kRefreshStore:
          case WordClass::kScavShadowLoad:
          case WordClass::kScavShadowStore:
            // Scavenged windows never move the tracing state out of the
            // stolen registers; the scavenge pass owns their protocol.
            break;
          case WordClass::kProgram: {
            const Inst& in = iinsts_[q];
            uint32_t reads = RegsRead(in) & kStolenMask;
            uint32_t writes = RegsWritten(in) & kStolenMask;
            for (uint8_t x : {kXreg1, kXreg2, kXreg3}) {
              if ((reads & (1u << x)) && state[idx(x)] != StolenState::kShadow) {
                Err(VerifyPass::kLiveness, q, bn,
                    StrFormat("original code reads $%s while it holds tracing state "
                              "(no shadow reload in effect)",
                              RegName(x)));
              }
              if (writes & (1u << x)) {
                if (state[idx(x)] == StolenState::kTrace) {
                  Err(VerifyPass::kLiveness, q, bn,
                      StrFormat("original code clobbers tracing state in $%s without a "
                                "spill save",
                                RegName(x)));
                } else {
                  state[idx(x)] = StolenState::kShadow;
                }
              }
            }
            break;
          }
        }
      }
      for (unsigned x = 0; x < 3; ++x) {
        if (state[x] == StolenState::kShadow) {
          Err(VerifyPass::kLiveness, lift.end_pos == 0 ? 0 : lift.end_pos - 1, bn,
              StrFormat("shadow window for $%s still open at block end",
                        RegName(StolenByIndex(x))));
        }
      }
    }
  }

  // ---- Relocation / address-correction audit ----

  void RelocationPass() {
    // Type/instruction agreement on the instrumented object.
    for (const Relocation& r : res_.object.relocations) {
      ++report_.stats.relocations;
      if (r.section != SectionId::kText) {
        continue;
      }
      if (r.offset % 4 != 0 || r.offset / 4 >= n_inst_) {
        Err(VerifyPass::kRelocation, r.offset / 4, -1,
            StrFormat("text relocation at 0x%x is outside the text section", r.offset));
        continue;
      }
      const Inst& in = iinsts_[r.offset / 4];
      bool ok = true;
      switch (r.type) {
        case RelocType::kJump26:
          ok = in.op == Op::kJ || in.op == Op::kJal;
          break;
        case RelocType::kHi16:
          ok = in.op == Op::kLui;
          break;
        case RelocType::kLo16:
          ok = in.op == Op::kOri || in.op == Op::kAddiu || MemAccessBytes(in.op) != 0;
          break;
        case RelocType::kWord32:
          Warn(VerifyPass::kRelocation, r.offset / 4, -1,
               "raw 32-bit word relocation inside the text section");
          break;
      }
      if (!ok) {
        Err(VerifyPass::kRelocation, r.offset / 4, -1,
            StrFormat("%s relocation patches '%s', which has no such field",
                      r.type == RelocType::kJump26 ? "jump26"
                      : r.type == RelocType::kHi16 ? "hi16"
                                                   : "lo16",
                      DisassembleWord(in.raw, r.offset).c_str()));
      }
    }

    // Every j/jal must be statically correctable: exactly one Jump26 record.
    for (uint32_t q = 0; q < n_inst_; ++q) {
      if (iinsts_[q].op != Op::kJ && iinsts_[q].op != Op::kJal) {
        continue;
      }
      auto it = irelocs_.find(q);
      size_t jumps = 0;
      if (it != irelocs_.end()) {
        for (const Relocation* r : it->second) {
          if (r->type == RelocType::kJump26) {
            ++jumps;
          }
        }
      }
      if (jumps != 1) {
        Err(VerifyPass::kRelocation, q, -1,
            jumps == 0 ? "j/jal without a jump26 relocation cannot be statically corrected"
                       : "j/jal with multiple jump26 relocations");
      }
    }

    // The original object's relocations must survive at their moved
    // offsets with the same symbol/type/addend.
    for (const Relocation& r : orig_.relocations) {
      if (r.section == SectionId::kText) {
        if (r.offset % 4 != 0 || r.offset / 4 >= n_orig_) {
          continue;  // Malformed input object; not this tool's finding.
        }
        uint32_t moved = orig_pos_[r.offset / 4];
        if (moved == UINT32_MAX) {
          continue;  // Instruction never matched (walk diverged there).
        }
        if (!HasMatchingReloc(res_.object.relocations, SectionId::kText, moved * 4, r)) {
          Err(VerifyPass::kRelocation, moved, -1,
              StrFormat("original %s relocation against '%s' was lost or altered by "
                        "instrumentation",
                        r.type == RelocType::kJump26  ? "jump26"
                        : r.type == RelocType::kHi16  ? "hi16"
                        : r.type == RelocType::kLo16  ? "lo16"
                                                      : "word32",
                        r.symbol.c_str()));
        }
      } else {
        if (!HasMatchingReloc(res_.object.relocations, r.section, r.offset, r)) {
          Err(VerifyPass::kRelocation, 0, -1,
              StrFormat("original data relocation against '%s' at 0x%x missing from the "
                        "instrumented object",
                        r.symbol.c_str(), r.offset));
        }
      }
    }

    // Data must be byte-identical (pixie appends its table after the
    // original bytes; epoxie copies).
    if (res_.object.data.size() < orig_.data.size() ||
        !std::equal(orig_.data.begin(), orig_.data.end(), res_.object.data.begin())) {
      Err(VerifyPass::kRelocation, 0, -1, "instrumentation altered the data segment image");
    }
    if (res_.object.bss_size != orig_.bss_size) {
      Err(VerifyPass::kRelocation, 0, -1,
          StrFormat("instrumentation changed bss from %u to %u bytes; traced data "
                    "addresses would not match the original binary",
                    orig_.bss_size, res_.object.bss_size));
    }

    // Branch retargeting: every surviving branch must land exactly on the
    // instrumented position of its original target.
    for (const BranchAudit& a : branch_audits_) {
      const Inst& o = oinsts_[a.orig_index];
      int64_t t = static_cast<int64_t>(a.orig_index) + 1 + o.imm;
      if (t < 0 || t > n_orig_) {
        Err(VerifyPass::kRelocation, a.inst_pos, -1, "original branch target outside the object");
        continue;
      }
      uint32_t expected = LandingPos(static_cast<uint32_t>(t));
      if (expected == UINT32_MAX) {
        continue;  // Target block never lifted; the walk already reported.
      }
      const Inst& w = iinsts_[a.inst_pos];
      int64_t actual = static_cast<int64_t>(a.inst_pos) + 1 + w.imm;
      if (actual != expected) {
        Err(VerifyPass::kRelocation, a.inst_pos, -1,
            StrFormat("branch retargeting is wrong: jumps to word %lld, original target "
                      "0x%x now lives at word %u",
                      static_cast<long long>(actual), static_cast<uint32_t>(t) * 4, expected));
      }
    }
  }

  static bool HasMatchingReloc(const std::vector<Relocation>& relocs, SectionId section,
                               uint32_t offset, const Relocation& want) {
    for (const Relocation& r : relocs) {
      if (r.section == section && r.offset == offset && r.type == want.type &&
          r.symbol == want.symbol && r.addend == want.addend) {
        return true;
      }
    }
    return false;
  }

  // Instrumented word index where a jump/branch to original word `t` lands.
  uint32_t LandingPos(uint32_t t) const {
    if (t == n_orig_) {
      // Branch to the end of text: only meaningful when the walk completed.
      return lifts_.empty() || !lifts_.back().walked ? UINT32_MAX : lifts_.back().end_pos;
    }
    for (size_t bi = 0; bi < blocks_.size(); ++bi) {
      if (blocks_[bi].start == t) {
        return lifts_[bi].header_pos;
      }
    }
    return orig_pos_[t];
  }

  // ---- Trace-table cross-check ----

  void TraceTablePass() {
    std::set<uint32_t> keys;
    for (const BlockStatic& bs : res_.blocks) {
      if (!keys.insert(bs.key_offset).second) {
        Err(VerifyPass::kTraceTable, bs.key_offset / 4, -1,
            StrFormat("duplicate block key 0x%x: two blocks would be indistinguishable "
                      "in the trace",
                      bs.key_offset));
      }
      if (bs.key_offset % 4 != 0 || bs.key_offset / 4 > n_inst_) {
        Err(VerifyPass::kTraceTable, bs.key_offset / 4, -1,
            StrFormat("block key 0x%x lies outside the instrumented text", bs.key_offset));
      }
    }

    std::set<uint32_t> traced_leaders;
    for (size_t bi = 0; bi < blocks_.size(); ++bi) {
      const Block& b = blocks_[bi];
      const BlockLift& lift = lifts_[bi];
      const int32_t bn = static_cast<int32_t>(bi);
      if (!b.traced) {
        if (b.info != nullptr) {
          Err(VerifyPass::kTraceTable, lift.header_pos == UINT32_MAX ? 0 : lift.header_pos, bn,
              "static block map describes an untraced block; the parser would expect "
              "trace that never comes");
        }
        continue;
      }
      traced_leaders.insert(b.start * 4);
      const BlockStatic* info = b.info;
      if (info == nullptr) {
        Err(VerifyPass::kTraceTable, lift.header_pos == UINT32_MAX ? 0 : lift.header_pos, bn,
            StrFormat("traced block at original offset 0x%x is missing from the static "
                      "block map",
                      b.start * 4));
        continue;
      }
      if (info->num_insts != b.end - b.start) {
        Err(VerifyPass::kTraceTable, lift.header_pos, bn,
            StrFormat("block map claims %u instructions, block has %u", info->num_insts,
                      b.end - b.start));
      }
      if (info->flags != b.flags) {
        Err(VerifyPass::kTraceTable, lift.header_pos, bn,
            StrFormat("block map flags 0x%x disagree with annotation flags 0x%x", info->flags,
                      b.flags));
      }
      if (lift.walked && info->key_offset != (lift.header_pos + HeaderWordsFor(lift)) * 4) {
        Err(VerifyPass::kTraceTable, lift.header_pos, bn,
            StrFormat("block key 0x%x does not point at the bbtrace return slot 0x%x",
                      info->key_offset, (lift.header_pos + HeaderWordsFor(lift)) * 4));
      }
      // The load/store map must match the instructions actually present.
      std::vector<MemOpStatic> actual;
      for (uint32_t i = b.start; i < b.end; ++i) {
        unsigned bytes = MemAccessBytes(oinsts_[i].op);
        if (bytes != 0) {
          actual.push_back({static_cast<uint16_t>(i - b.start), IsStore(oinsts_[i].op),
                            static_cast<uint8_t>(bytes)});
        }
      }
      if (info->mem_ops.size() != actual.size()) {
        Err(VerifyPass::kTraceTable, lift.header_pos, bn,
            StrFormat("block map lists %zu memory ops, block text contains %zu",
                      info->mem_ops.size(), actual.size()));
      } else {
        for (size_t k = 0; k < actual.size(); ++k) {
          const MemOpStatic& want = actual[k];
          const MemOpStatic& got = info->mem_ops[k];
          if (got.index != want.index || got.is_store != want.is_store ||
              got.bytes != want.bytes) {
            Err(VerifyPass::kTraceTable,
                orig_pos_[b.start + want.index] == UINT32_MAX ? lift.header_pos
                                                             : orig_pos_[b.start + want.index],
                bn,
                StrFormat("block map memory op %zu (%s, %u bytes, inst %u) disagrees with "
                          "the text (%s, %u bytes, inst %u)",
                          k, got.is_store ? "store" : "load", got.bytes, got.index,
                          want.is_store ? "store" : "load", want.bytes, want.index));
            break;
          }
        }
      }
      if (lift.walked && info->mem_ops.size() == actual.size() &&
          lift.header_n != 1 + info->mem_ops.size()) {
        Err(VerifyPass::kTraceTable, lift.header_pos, bn,
            StrFormat("header reserves %u trace words but the block map implies %zu",
                      lift.header_n, 1 + info->mem_ops.size()));
      }
    }

    for (const BlockStatic& bs : res_.blocks) {
      if (traced_leaders.count(bs.orig_offset) == 0) {
        Err(VerifyPass::kTraceTable, bs.key_offset / 4, -1,
            StrFormat("block map entry for original offset 0x%x matches no traced block",
                      bs.orig_offset));
      }
    }
  }

  // ---- Scavenge proof: independent liveness justifying every rewrite ----

  // Recomputes interprocedural liveness from the *original* object with the
  // self-contained RefLiveness implementation (no code shared with the
  // rewriter's src/dataflow analysis) and proves every elided header save
  // and every scavenged window safe.
  void ScavengePass() {
    bool any_elided = false;
    for (const BlockLift& lift : lifts_) {
      any_elided |= lift.save_elided;
    }
    if (!any_elided && scav_uses_.empty()) {
      return;  // Nothing was rewritten; nothing to prove.
    }
    RefLiveness live(orig_);
    for (size_t bi = 0; bi < blocks_.size(); ++bi) {
      if (!lifts_[bi].save_elided) {
        continue;
      }
      if (live.LiveIn(blocks_[bi].start) & kRaMask) {
        Err(VerifyPass::kScavenge, lifts_[bi].header_pos, static_cast<int32_t>(bi),
            StrFormat("header 'sw ra' save elided but $ra is live at block leader 0x%x",
                      blocks_[bi].start * 4));
      }
    }
    for (const ScavUse& u : scav_uses_) {
      const uint32_t in_live = live.LiveIn(u.orig_index);
      for (unsigned x = 0; x < 3; ++x) {
        if (u.subst[x] < 0) {
          continue;
        }
        const uint8_t d = static_cast<uint8_t>(u.subst[x]);
        if (kScratchForbidden & (1u << d)) {
          Err(VerifyPass::kScavenge, u.inst_pos, u.block,
              StrFormat("scavenged window for $%s borrows reserved register $%s",
                        RegName(StolenByIndex(x)), RegName(d)));
          continue;
        }
        if (in_live & (1u << d)) {
          Err(VerifyPass::kScavenge, u.inst_pos, u.block,
              StrFormat("scavenged scratch $%s is live across the window at original "
                        "pc 0x%x",
                        RegName(d), u.orig_index * 4));
        }
      }
    }
  }

  struct BranchAudit {
    uint32_t inst_pos;    // Instrumented word index of the branch.
    uint32_t orig_index;  // Original word index of the branch.
  };

  const ObjectFile& orig_;
  const InstrumentResult& res_;
  const VerifyOptions& opt_;
  const bool pixie_;

  bool setup_ok_ = false;
  uint32_t n_orig_ = 0;
  uint32_t n_inst_ = 0;
  std::vector<Inst> oinsts_;
  std::vector<Inst> iinsts_;
  std::unordered_map<uint32_t, std::vector<const Relocation*>> irelocs_;
  std::vector<Block> blocks_;
  std::vector<BlockLift> lifts_;
  std::unordered_map<uint32_t, const BlockStatic*> info_by_orig_;
  std::vector<uint32_t> orig_pos_;
  std::vector<BranchAudit> branch_audits_;
  std::vector<ScavUse> scav_uses_;
  std::vector<std::pair<uint32_t, std::string>> syms_;  // (orig word, name), sorted.
  uint32_t q_ = 0;

  VerifyReport report_;
};

}  // namespace

VerifyReport VerifyInstrumentedObject(const ObjectFile& original, const InstrumentResult& result,
                                      const VerifyOptions& options) {
  return ObjectVerifier(original, result, options).Run();
}

VerifyReport VerifyImage(const Executable& exe) {
  VerifyReport report;
  // Symbols by ascending address inside the text segment, for attributing
  // findings to their owning procedure.
  std::vector<std::pair<uint32_t, std::string>> syms;
  for (const auto& [name, addr] : exe.symbols) {
    if (addr >= exe.text_base && addr < exe.TextEnd()) {
      syms.emplace_back(addr, name);
    }
  }
  std::sort(syms.begin(), syms.end());
  auto symbol_for = [&](uint32_t pc) -> std::string {
    if (pc < exe.text_base || pc >= exe.TextEnd()) {
      return "";
    }
    auto it = std::upper_bound(syms.begin(), syms.end(),
                               std::make_pair(pc, std::string("\x7f")));
    return it == syms.begin() ? std::string() : std::prev(it)->second;
  };
  auto add = [&](VerifySeverity severity, uint32_t pc, std::string message) {
    VerifyFinding f;
    f.severity = severity;
    f.pass = VerifyPass::kCfg;
    f.pc = pc;
    f.block = -1;
    f.symbol = symbol_for(pc);
    f.message = std::move(message);
    if (severity == VerifySeverity::kError) {
      ++report.stats.errors;
    } else {
      ++report.stats.warnings;
    }
    report.findings.push_back(std::move(f));
  };

  const uint32_t text_end = exe.TextEnd();
  if (exe.entry < exe.text_base || exe.entry >= text_end || exe.entry % 4 != 0) {
    add(VerifySeverity::kError, exe.entry, "entry point outside the text segment");
  }
  // Segment overlap: text vs data (bss follows data by construction).
  if (exe.data_base < text_end && exe.data_base + exe.data.size() > exe.text_base &&
      !exe.data.empty()) {
    add(VerifySeverity::kError, exe.data_base, "data segment overlaps the text segment");
  }

  const uint32_t n_words = static_cast<uint32_t>(exe.text.size() / 4);
  bool prev_has_slot = false;
  for (uint32_t w = 0; w < n_words; ++w) {
    uint32_t raw = 0;
    std::memcpy(&raw, exe.text.data() + w * 4, 4);
    Inst in = Decode(raw);
    uint32_t pc = exe.text_base + w * 4;
    ++report.stats.instructions;
    if (in.op == Op::kInvalid) {
      add(VerifySeverity::kWarning, pc, "undecodable word in the text segment");
      prev_has_slot = false;
      continue;
    }
    if (HasDelaySlot(in.op)) {
      if (prev_has_slot) {
        add(VerifySeverity::kError, pc,
            "control transfer in the delay slot of another control transfer");
      }
      if (IsBranch(in.op)) {
        uint32_t target = BranchTarget(pc, in.imm);
        if (target < exe.text_base || target >= text_end) {
          add(VerifySeverity::kError, pc,
              StrFormat("branch target 0x%08x outside the text segment", target));
        }
      } else if (IsJump(in.op)) {
        uint32_t target = JumpTarget(pc, in.target);
        if (target < exe.text_base || target >= text_end) {
          add(VerifySeverity::kError, pc,
              StrFormat("jump target 0x%08x outside the text segment", target));
        }
      }
      prev_has_slot = true;
    } else {
      prev_has_slot = false;
    }
  }
  if (prev_has_slot) {
    add(VerifySeverity::kError, exe.text_base + (n_words - 1) * 4,
        "control transfer at the end of text has no delay slot");
  }

  uint32_t last_offset = 0;
  bool first = true;
  for (const BlockAnnotation& b : exe.blocks) {
    if (b.offset < exe.text_base || b.offset >= text_end || b.offset % 4 != 0) {
      add(VerifySeverity::kError, b.offset, "block annotation outside the text segment");
    }
    if (!first && b.offset <= last_offset) {
      add(VerifySeverity::kError, b.offset, "block annotations out of order");
    }
    last_offset = b.offset;
    first = false;
    ++report.stats.blocks;
  }
  return report;
}

}  // namespace wrl
