// wrlverify static-analysis tests: clean instrumented objects produce zero
// findings, and each seeded corruption (the ISSUE's mutation table) is
// caught by the specific pass that owns the invariant, with a pc-accurate
// diagnostic.
#include "verify/verify.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "asm/assembler.h"
#include "epoxie/epoxie.h"
#include "isa/isa.h"
#include "kernel/kernel_asm.h"
#include "stats/stats.h"
#include "support/json.h"
#include "trace/abi.h"

namespace wrl {
namespace {

struct Built {
  EpoxieConfig config;
  ObjectFile orig;
  InstrumentResult res;
};

Built Build(const char* src, InstrumentMode mode = InstrumentMode::kEpoxie) {
  Built b;
  b.config.mode = mode;
  b.orig = Assemble("body.s", src);
  b.res = Instrument(b.orig, b.config);
  return b;
}

VerifyReport Verify(const Built& b) {
  VerifyOptions options;
  options.epoxie = b.config;
  return VerifyInstrumentedObject(b.orig, b.res, options);
}

// Byte offset of the first jal-to-`symbol` call at/after `from`.
uint32_t FindCall(const Built& b, const std::string& symbol, uint32_t from = 0) {
  uint32_t best = UINT32_MAX;
  for (const Relocation& r : b.res.object.relocations) {
    if (r.section == SectionId::kText && r.type == RelocType::kJump26 && r.symbol == symbol &&
        r.offset >= from && r.offset < best) {
      best = r.offset;
    }
  }
  EXPECT_NE(best, UINT32_MAX) << "no call to " << symbol;
  return best;
}

// Byte offset of the first instrumented word equal to `raw`.
uint32_t FindRaw(const Built& b, uint32_t raw) {
  for (uint32_t q = 0; q < b.res.object.NumTextWords(); ++q) {
    if (b.res.object.TextWord(q * 4) == raw) {
      return q * 4;
    }
  }
  ADD_FAILURE() << "word not found: " << DisassembleWord(raw, 0);
  return 0;
}

bool HasMessage(const VerifyReport& report, VerifyPass pass, const std::string& needle) {
  for (const VerifyFinding& f : report.findings) {
    if (f.pass == pass && f.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// A body exercising every rewriting rule: packed and surrogate memory ops,
// the Figure-2 sw-ra hazard, an ra-writing load (SAVED_RA refresh), a CTI
// pair with a delay-slot store, a loop branch, and stolen-register windows.
constexpr const char* kFullBody = R"(
        .globl main
main:   addiu $sp, $sp, -24
        sw   $ra, 20($sp)
        la   $t0, buf
        li   $t1, 3
loop:   sw   $t1, 0($t0)
        lw   $t2, 0($t0)
        addiu $t1, $t1, -1
        bne  $t1, $zero, loop
        nop
        jal  helper
        sw   $t2, 4($t0)
        li   $t8, 7
        addu $t9, $t8, $t1
        sw   $t9, 8($t0)
        lw   $ra, 20($sp)
        jr   $ra
        addiu $sp, $sp, 24

helper: lb   $t3, 12($t0)
        jr   $ra
        sb   $t3, 13($t0)
        .data
buf:    .space 32
)";

// ---- Clean runs -----------------------------------------------------------

TEST(VerifyClean, EpoxieFullBodyNoFindings) {
  Built b = Build(kFullBody);
  VerifyReport report = Verify(b);
  for (const VerifyFinding& f : report.findings) {
    ADD_FAILURE() << VerifySeverityName(f.severity) << " " << VerifyPassName(f.pass) << " pc=0x"
                  << std::hex << f.pc << ": " << f.message;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.findings.empty());
  // Every original instruction is accounted for by the lift.
  EXPECT_EQ(report.stats.instructions, b.orig.NumTextWords());
  EXPECT_GT(report.stats.traced_blocks, 0u);
  EXPECT_GT(report.stats.mem_ops, 0u);
}

TEST(VerifyClean, PixieFullBodyNoFindings) {
  Built b = Build(kFullBody, InstrumentMode::kPixie);
  VerifyReport report = Verify(b);
  for (const VerifyFinding& f : report.findings) {
    ADD_FAILURE() << VerifyPassName(f.pass) << " pc=0x" << std::hex << f.pc << ": " << f.message;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.stats.instructions, b.orig.NumTextWords());
}

TEST(VerifyClean, InstrumentedKernelNoFindings) {
  Built b;
  b.orig = Assemble("kernel.s", KernelAsm());
  b.res = Instrument(b.orig, b.config);
  VerifyReport report = Verify(b);
  for (const VerifyFinding& f : report.findings) {
    ADD_FAILURE() << VerifyPassName(f.pass) << " pc=0x" << std::hex << f.pc << ": " << f.message;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.stats.traced_blocks, 100u);
}

TEST(VerifyClean, UntracedBlocksCopiedVerbatim) {
  Built b = Build(R"(
        .globl main
        .notrace_on
main:   la   $t0, buf
        sw   $zero, 0($t0)
        jr   $ra
        nop
        .data
buf:    .word 0
)");
  VerifyReport report = Verify(b);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.stats.traced_blocks, 0u);
}

// ---- Mutation table: shape pass ------------------------------------------

TEST(VerifyMutation, MissingBlockHeaderCaughtByShape) {
  Built b = Build(kFullBody);
  // Clobber the first word of block 0's header (sw ra, SAVED_RA(xreg3)).
  b.res.object.SetTextWord(0, 0);  // nop
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kShape);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pc, 0u);
  EXPECT_NE(f->message.find("block header word 0"), std::string::npos);
  // The walk resyncs via the static block map: later blocks still verify,
  // so the corruption yields a targeted diagnostic, not a cascade.
  EXPECT_LT(report.stats.errors, 4u);
}

TEST(VerifyMutation, WrongDelaySlotOpCaughtByShape) {
  Built b = Build(R"(
        .globl main
main:   la   $t0, buf
        sw   $zero, 0($t0)
        jr   $ra
        nop
        .data
buf:    .word 0
)");
  // The store packs into the memtrace delay slot; corrupt its offset so the
  // slot no longer holds the block's next memory instruction.
  uint32_t call = FindCall(b, kMemtraceSymbol);
  uint32_t delay = call + 4;
  ASSERT_EQ(b.res.object.TextWord(delay), EncodeIType(Op::kSw, kT0, kZero, 0));
  b.res.object.SetTextWord(delay, EncodeIType(Op::kSw, kT0, kZero, 8));
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kShape);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pc, delay);
  EXPECT_NE(f->message.find("memtrace delay slot"), std::string::npos);
}

TEST(VerifyMutation, WrongSurrogateBaseCaughtByShape) {
  Built b = Build(R"(
        .globl main
main:   addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
)");
  // sw ra, 4(sp) reads ra — the Figure-2 hazard — so its announcement is a
  // surrogate (addiu zero, sp, 4).  Point the surrogate at the wrong base.
  uint32_t surrogate = FindRaw(b, EncodeIType(Op::kAddiu, kSp, kZero, 4));
  b.res.object.SetTextWord(surrogate, EncodeIType(Op::kAddiu, kT0, kZero, 4));
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kShape);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pc, surrogate);
  EXPECT_NE(f->message.find("announcement decodes"), std::string::npos);
}

TEST(VerifyMutation, IllegallyPackedRaStoreCaughtByShape) {
  Built b = Build(R"(
        .globl main
main:   addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
)");
  // Rewrite the legal surrogate form into the illegal packed form: put the
  // ra-reading store itself in the memtrace delay slot.
  uint32_t surrogate = FindRaw(b, EncodeIType(Op::kAddiu, kSp, kZero, 4));
  b.res.object.SetTextWord(surrogate, EncodeIType(Op::kSw, kSp, kRa, 4));
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasMessage(report, VerifyPass::kShape, "Figure-2"));
}

// ---- Mutation table: relocation pass -------------------------------------

TEST(VerifyMutation, BadBranchRetargetCaughtByRelocation) {
  Built b = Build(kFullBody);
  // Find the retargeted bne and push its offset one word off.
  Inst orig_bne;
  for (uint32_t i = 0; i < b.orig.NumTextWords(); ++i) {
    Inst in = Decode(b.orig.TextWord(i * 4));
    if (in.op == Op::kBne) {
      orig_bne = in;
      break;
    }
  }
  ASSERT_EQ(orig_bne.op, Op::kBne);
  uint32_t pos = UINT32_MAX;
  for (uint32_t q = 0; q < b.res.object.NumTextWords(); ++q) {
    uint32_t w = b.res.object.TextWord(q * 4);
    if ((w & 0xffff0000u) == (orig_bne.raw & 0xffff0000u)) {
      pos = q * 4;
      break;
    }
  }
  ASSERT_NE(pos, UINT32_MAX);
  b.res.object.SetTextWord(pos, b.res.object.TextWord(pos) + 1);
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kRelocation);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pc, pos);
  EXPECT_NE(f->message.find("branch retargeting is wrong"), std::string::npos);
}

TEST(VerifyMutation, AlteredRelocationCaughtByRelocation) {
  Built b = Build(kFullBody);
  // Corrupt the addend of a moved data-address relocation (the la buf pair):
  // the address correction no longer agrees with the original object.
  bool mutated = false;
  uint32_t offset = 0;
  for (Relocation& r : b.res.object.relocations) {
    if (r.section == SectionId::kText && r.symbol == "buf" && r.type == RelocType::kLo16) {
      r.addend += 4;
      offset = r.offset;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kRelocation);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pc, offset);
  EXPECT_NE(f->message.find("lost or altered"), std::string::npos);
}

TEST(VerifyMutation, DroppedJumpRelocationCaughtByRelocation) {
  Built b = Build(kFullBody);
  // Delete the jal helper relocation: the jump can no longer be statically
  // corrected at link time.
  uint32_t offset = FindCall(b, "helper");
  auto& relocs = b.res.object.relocations;
  for (size_t i = 0; i < relocs.size(); ++i) {
    if (relocs[i].section == SectionId::kText && relocs[i].offset == offset &&
        relocs[i].type == RelocType::kJump26) {
      relocs.erase(relocs.begin() + i);
      break;
    }
  }
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasMessage(report, VerifyPass::kRelocation, "without a jump26 relocation"));
}

// ---- Mutation table: trace-table pass ------------------------------------

TEST(VerifyMutation, FlippedStoreInBlockMapCaughtByTraceTable) {
  Built b = Build(kFullBody);
  ASSERT_FALSE(b.res.blocks.empty());
  ASSERT_FALSE(b.res.blocks[0].mem_ops.empty());
  b.res.blocks[0].mem_ops[0].is_store = !b.res.blocks[0].mem_ops[0].is_store;
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kTraceTable);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("disagrees with the text"), std::string::npos);
}

TEST(VerifyMutation, DroppedMemOpInBlockMapCaughtByTraceTable) {
  Built b = Build(kFullBody);
  ASSERT_FALSE(b.res.blocks.empty());
  ASSERT_FALSE(b.res.blocks[0].mem_ops.empty());
  b.res.blocks[0].mem_ops.pop_back();
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasMessage(report, VerifyPass::kTraceTable, "memory ops"));
}

TEST(VerifyMutation, BadKeyOffsetCaughtByTraceTable) {
  Built b = Build(kFullBody);
  ASSERT_FALSE(b.res.blocks.empty());
  b.res.blocks[0].key_offset += 4;
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kTraceTable);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pc, 0u);  // Reported against the block header.
  EXPECT_NE(f->message.find("bbtrace return slot"), std::string::npos);
}

TEST(VerifyMutation, DuplicateKeysCaughtByTraceTable) {
  Built b = Build(kFullBody);
  ASSERT_GE(b.res.blocks.size(), 2u);
  b.res.blocks[1].key_offset = b.res.blocks[0].key_offset;
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasMessage(report, VerifyPass::kTraceTable, "duplicate block key"));
}

// ---- Mutation table: liveness pass ---------------------------------------

TEST(VerifyMutation, ShadowLoadSwappedForSpillReloadCaughtByLiveness) {
  Built b = Build(R"(
        .globl main
main:   li   $t8, 7
        addu $t0, $t8, $t8
        jr   $ra
        nop
)");
  // The read window for t8 loads its shadow value (lw t8, SHADOW1($at)).
  // Swap it for a spill reload: the original addu then reads tracing state.
  uint32_t shadow_load = FindRaw(b, EncodeIType(Op::kLw, kAt, kXreg1, kBkShadow0));
  b.res.object.SetTextWord(shadow_load, EncodeIType(Op::kLw, kAt, kXreg1, kBkSpill0));
  uint32_t orig_addu = FindRaw(b, EncodeRType(Op::kAddu, kXreg1, kXreg1, kT0, 0));
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kLiveness);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pc, orig_addu);
  EXPECT_NE(f->message.find("holds tracing state"), std::string::npos);
  // The shape walk stays clean: only the liveness property is violated.
  EXPECT_EQ(report.CountForPass(VerifyPass::kShape), 0u);
}

TEST(VerifyMutation, SpillSaveRemovedCaughtByLiveness) {
  Built b = Build(R"(
        .globl main
main:   li   $t8, 7
        jr   $ra
        nop
)");
  // The write window spills t8's tracing state before the li clobbers it.
  // Turn the spill save into a shadow write-back: the steal is no longer
  // dominated by a save.
  uint32_t spill_save = FindRaw(b, EncodeIType(Op::kSw, kAt, kXreg1, kBkSpill0));
  b.res.object.SetTextWord(spill_save, EncodeIType(Op::kSw, kAt, kXreg1, kBkShadow0));
  VerifyReport report = Verify(b);
  EXPECT_FALSE(report.ok());
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kLiveness);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pc, spill_save);
  EXPECT_EQ(report.CountForPass(VerifyPass::kShape), 0u);
}

// ---- Image-level audit ----------------------------------------------------

Executable MakeImage(const std::vector<uint32_t>& words) {
  Executable exe;
  exe.text_base = 0x1000;
  exe.entry = 0x1000;
  exe.text.resize(words.size() * 4);
  std::memcpy(exe.text.data(), words.data(), exe.text.size());
  return exe;
}

TEST(VerifyImageAudit, CleanImage) {
  Executable exe = MakeImage({
      EncodeIType(Op::kBeq, kZero, kZero, 1),  // beq +1 (to jr)
      0,                                       // nop
      EncodeRType(Op::kJr, kRa, 0, 0, 0),      // jr ra
      0,                                       // nop
  });
  VerifyReport report = VerifyImage(exe);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.findings.empty());
}

TEST(VerifyImageAudit, BranchTargetOutsideText) {
  Executable exe = MakeImage({
      EncodeIType(Op::kBeq, kZero, kZero, 100),
      0,
      EncodeRType(Op::kJr, kRa, 0, 0, 0),
      0,
  });
  VerifyReport report = VerifyImage(exe);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings[0].pc, 0x1000u);
  EXPECT_NE(report.findings[0].message.find("branch target"), std::string::npos);
}

TEST(VerifyImageAudit, CtiInDelaySlot) {
  Executable exe = MakeImage({
      EncodeIType(Op::kBeq, kZero, kZero, 1),
      EncodeIType(Op::kBeq, kZero, kZero, 0),  // CTI in the delay slot
      EncodeRType(Op::kJr, kRa, 0, 0, 0),
      0,
  });
  VerifyReport report = VerifyImage(exe);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.findings[0].pc, 0x1004u);
  EXPECT_NE(report.findings[0].message.find("delay slot"), std::string::npos);
}

TEST(VerifyImageAudit, EntryOutsideText) {
  Executable exe = MakeImage({EncodeRType(Op::kJr, kRa, 0, 0, 0), 0});
  exe.entry = 0x9000;
  VerifyReport report = VerifyImage(exe);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.findings[0].message.find("entry point"), std::string::npos);
}

// ---- Report plumbing ------------------------------------------------------

TEST(VerifyReportTest, StatsBindIntoRegistry) {
  Built b = Build(kFullBody);
  VerifyReport report = Verify(b);
  StatsRegistry registry;
  report.RegisterStats(registry);
  EXPECT_EQ(registry.CounterValue("verify.blocks"), report.stats.blocks);
  EXPECT_EQ(registry.CounterValue("verify.instructions"), report.stats.instructions);
  EXPECT_EQ(registry.CounterValue("verify.errors"), 0u);
}

TEST(VerifyReportTest, JsonRoundTrip) {
  Built b = Build(kFullBody);
  b.res.object.SetTextWord(0, 0);  // Seed one finding.
  VerifyReport report = Verify(b);
  ASSERT_FALSE(report.findings.empty());
  JsonWriter writer;
  report.WriteJson(writer);
  JsonValue doc = ParseJson(writer.TakeString());
  ASSERT_TRUE(doc.IsObject());
  EXPECT_EQ(doc.At("stats").At("errors").number, static_cast<double>(report.stats.errors));
  const JsonValue& findings = doc.At("findings");
  ASSERT_TRUE(findings.IsArray());
  ASSERT_EQ(findings.array.size(), report.findings.size());
  EXPECT_EQ(findings.array[0].At("pass").string, VerifyPassName(report.findings[0].pass));
  EXPECT_EQ(findings.array[0].At("severity").string, "error");
  EXPECT_FALSE(findings.array[0].At("message").string.empty());
}

TEST(VerifyReportTest, MergeAccumulates) {
  Built b = Build(kFullBody);
  VerifyReport a = Verify(b);
  VerifyReport total;
  total.Merge(a);
  total.Merge(a);
  EXPECT_EQ(total.stats.blocks, 2 * a.stats.blocks);
  EXPECT_EQ(total.findings.size(), 2 * a.findings.size());
}

}  // namespace
}  // namespace wrl
