// Register-scavenging tests: the liveness-driven rewriter shrinks the
// instrumented text without changing a single reconstructed reference, the
// wrlverify scavenge pass proves every elision/window safe and catches
// seeded unsafe mutations with pc-accurate diagnostics, and the static
// dilation prediction reconciles exactly with wrlprof's dynamic
// OverheadInsts/TraceWords accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "dataflow/dilation.h"
#include "epoxie/epoxie.h"
#include "harness/bare_runtime.h"
#include "harness/experiment.h"
#include "isa/isa.h"
#include "prof/prof.h"
#include "trace/abi.h"
#include "trace/parser.h"
#include "verify/verify.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

// A body with one provable header-save elision (main's continuation block
// writes $ra before the return reads it) and scavenged shadow windows
// (leaf steals $t8/$t9 while $v0/$v1 are provably dead), runnable bare.
constexpr const char* kScavBody = R"(
        .globl main
        .globl leaf
main:   addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        jal  leaf
        nop
        addu $t1, $zero, $zero
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
leaf:   la   $t0, buf
        li   $t8, 7
        addu $t9, $t8, $t8
        sw   $t9, 0($t0)
        addu $v1, $zero, $zero
        lw   $v0, 0($t0)
        jr   $ra
        nop
        .data
buf:    .space 16
)";

struct Built {
  EpoxieConfig config;
  ObjectFile orig;
  InstrumentResult res;
};

Built Build(bool scavenge, const char* src = kScavBody) {
  Built b;
  b.config.scavenge = scavenge;
  b.orig = Assemble("body.s", src);
  b.res = Instrument(b.orig, b.config);
  return b;
}

VerifyReport Verify(const Built& b) {
  VerifyOptions options;
  options.epoxie = b.config;
  return VerifyInstrumentedObject(b.orig, b.res, options);
}

// Byte offset of the first text word equal to `raw` (must exist).
uint32_t FindWord(const ObjectFile& obj, uint32_t raw) {
  for (uint32_t off = 0; off < obj.NumTextWords() * 4; off += 4) {
    if (obj.TextWord(off) == raw) {
      return off;
    }
  }
  ADD_FAILURE() << "word not found: " << DisassembleWord(raw, 0);
  return 0;
}

// Patches the unique original word `raw` to `patched` in BOTH the original
// and the instrumented text — the instrumentation stays internally
// consistent, but decisions the rewriter proved against the old original
// become retroactively unsafe.
void PatchBoth(Built& b, uint32_t raw, uint32_t patched) {
  b.orig.SetTextWord(FindWord(b.orig, raw), patched);
  b.res.object.SetTextWord(FindWord(b.res.object, raw), patched);
}

// The scratch register some scavenged window borrowed, recovered from the
// instrumented text (a shadow-slot load/store through a non-stolen
// register).
int FindScavScratch(const ObjectFile& iobj) {
  for (uint32_t off = 0; off < iobj.NumTextWords() * 4; off += 4) {
    Inst in = Decode(iobj.TextWord(off));
    if ((in.op == Op::kLw || in.op == Op::kSw) && in.rs == kAt && !IsStolenReg(in.rt) &&
        in.rt != kRa && in.rt != kZero && in.imm >= static_cast<int16_t>(kBkShadow0) &&
        in.imm < static_cast<int16_t>(kBkShadow0 + 12)) {
      return in.rt;
    }
  }
  return -1;
}

// ---- The rewrite itself --------------------------------------------------

TEST(Scavenge, ShrinksTextAndPredictedDilation) {
  Built on = Build(true);
  Built off = Build(false);

  EXPECT_EQ(on.res.elided_ra_saves, 1u);  // Exactly main's continuation block.
  EXPECT_GE(on.res.scavenged_windows, 2u);
  EXPECT_EQ(off.res.elided_ra_saves, 0u);
  EXPECT_EQ(off.res.scavenged_windows, 0u);
  EXPECT_LT(on.res.instrumented_text_words, off.res.instrumented_text_words);
  EXPECT_EQ(on.res.original_text_words, off.res.original_text_words);

  // The static block maps describe the same original shape — only the
  // per-block instrumented size shrinks.
  ASSERT_EQ(on.res.blocks.size(), off.res.blocks.size());
  for (size_t i = 0; i < on.res.blocks.size(); ++i) {
    EXPECT_EQ(on.res.blocks[i].orig_offset, off.res.blocks[i].orig_offset);
    EXPECT_EQ(on.res.blocks[i].num_insts, off.res.blocks[i].num_insts);
    EXPECT_EQ(on.res.blocks[i].mem_ops.size(), off.res.blocks[i].mem_ops.size());
    EXPECT_LE(on.res.blocks[i].instr_words, off.res.blocks[i].instr_words);
  }

  DilationPrediction pon = PredictDilation(on.orig, on.res);
  DilationPrediction poff = PredictDilation(off.orig, off.res);
  EXPECT_LT(pon.Growth(), poff.Growth());
  EXPECT_EQ(pon.trace_words_per_visit, poff.trace_words_per_visit);
  EXPECT_GT(pon.ra_dead_leaders, 0u);
}

TEST(Scavenge, VerifyProvesTheScavengedObject) {
  Built b = Build(true);
  ASSERT_GT(b.res.elided_ra_saves + b.res.scavenged_windows, 0u);
  VerifyReport report = Verify(b);
  for (const VerifyFinding& f : report.findings) {
    ADD_FAILURE() << VerifySeverityName(f.severity) << " " << VerifyPassName(f.pass) << " pc=0x"
                  << std::hex << f.pc << ": " << f.message;
  }
  EXPECT_TRUE(report.ok());
}

// ---- Seeded unsafe mutations --------------------------------------------

TEST(ScavengeMutation, RaLiveAtElidedLeaderCaught) {
  Built b = Build(true);
  ASSERT_EQ(b.res.elided_ra_saves, 1u);
  // The elided block's leader: `addu $t1, $zero, $zero` at original word 4.
  // Flipped to read $ra, the block now consumes $ra before the `lw $ra`
  // kill — the elision the rewriter proved is retroactively unsafe.
  PatchBoth(b, EncodeRType(Op::kAddu, kZero, kZero, kT1, 0),
            EncodeRType(Op::kAddu, kRa, kZero, kT1, 0));

  VerifyReport report = Verify(b);
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kScavenge);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, VerifySeverity::kError);
  EXPECT_NE(f->message.find("save elided but $ra is live"), std::string::npos) << f->message;
  EXPECT_EQ(f->symbol, "main");
  // pc-accurate: the finding points at the elided block's header.  With the
  // save gone the block key sits two words after the header, so the header
  // is at key_offset - 8 in the instrumented text.
  const BlockStatic* elided = nullptr;
  for (const BlockStatic& bs : b.res.blocks) {
    if (bs.orig_offset == 16) elided = &bs;
  }
  ASSERT_NE(elided, nullptr);
  EXPECT_EQ(f->pc, elided->key_offset - 8);
}

TEST(ScavengeMutation, ScratchLiveAcrossWindowCaught) {
  Built b = Build(true);
  ASSERT_GE(b.res.scavenged_windows, 1u);
  int scratch = FindScavScratch(b.res.object);
  ASSERT_GE(scratch, 0) << "no scavenged shadow window in the instrumented text";
  // `addu $v1, $zero, $zero` sits right after leaf's stolen-register
  // window.  Flipped to read the borrowed scratch, the scratch is live
  // across the window it was borrowed for.
  PatchBoth(b, EncodeRType(Op::kAddu, kZero, kZero, kV1, 0),
            EncodeRType(Op::kAddu, static_cast<uint8_t>(scratch), kZero, kV1, 0));

  VerifyReport report = Verify(b);
  const VerifyFinding* f = report.FirstForPass(VerifyPass::kScavenge);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, VerifySeverity::kError);
  EXPECT_NE(f->message.find("live across the window"), std::string::npos) << f->message;
  EXPECT_EQ(f->symbol, "leaf");
  // The diagnostic names the original pc of a window inside leaf (original
  // words 8..12 → byte offsets 0x20..0x30).
  EXPECT_NE(f->message.find("original pc 0x"), std::string::npos) << f->message;
}

// ---- Dynamic bit-identity ------------------------------------------------

TEST(Scavenge, BareReferenceStreamBitIdentical) {
  BareBuildOptions on_opts;
  on_opts.scavenge = true;
  BareBuildOptions off_opts;
  off_opts.scavenge = false;
  BareBuild on = BuildBareTraced(kScavBody, on_opts);
  BareBuild off = BuildBareTraced(kScavBody, off_opts);
  EXPECT_LT(on.instrument_result.instrumented_text_words,
            off.instrument_result.instrumented_text_words);

  BareComparison con = CompareBareTrace(on);
  BareComparison coff = CompareBareTrace(off);
  ASSERT_TRUE(con.parser_errors.empty()) << con.parser_errors.front();
  ASSERT_TRUE(coff.parser_errors.empty()) << coff.parser_errors.front();
  ASSERT_FALSE(con.parsed.empty());

  // The reconstructed reference stream does not change by one bit.
  ASSERT_EQ(con.parsed.size(), coff.parsed.size());
  for (size_t i = 0; i < con.parsed.size(); ++i) {
    const TraceRef& a = con.parsed[i];
    const TraceRef& b = coff.parsed[i];
    ASSERT_EQ(a.kind, b.kind) << "ref " << i;
    ASSERT_EQ(a.addr, b.addr) << "ref " << i;
    ASSERT_EQ(a.bytes, b.bytes) << "ref " << i;
    ASSERT_EQ(a.pid, b.pid) << "ref " << i;
  }
}

// ---- Static prediction vs wrlprof's dynamic accounting -------------------

TEST(Scavenge, StaticDilationMatchesProfiledRun) {
  BareBuild build = BuildBareTraced(kScavBody);
  BareTraceRun run = RunBareTraced(build);
  ASSERT_FALSE(run.trace_words.empty());

  TraceProfiler prof;
  prof.AddTable(kKernelPid, &build.table);
  TraceParser parser(&build.table);
  parser.SetInitialContext(kKernelPid);
  parser.SetBatchSink(&prof);
  parser.Feed(run.trace_words.data(), run.trace_words.size());
  parser.Finish();
  ASSERT_TRUE(parser.errors().empty()) << parser.errors().front();
  Profile profile = prof.Finish();
  ASSERT_GT(profile.totals.block_entries, 0u);
  EXPECT_EQ(profile.totals.unattributed_insts, 0u);
  EXPECT_EQ(profile.totals.unattributed_data, 0u);

  // Weight the purely static per-block prediction with the dynamic entry
  // counts: it must land exactly on wrlprof's trace-volume and overhead
  // reconciliation.
  DilationPrediction pred =
      PredictDilation(Assemble("body.s", kScavBody), build.instrument_result);
  uint64_t want_words = 0;
  uint64_t want_overhead = 0;
  for (const BlockProfile& b : profile.blocks) {
    const BlockDilation* bd = nullptr;
    for (const BlockDilation& cand : pred.blocks) {
      if (build.body_text_begin + cand.orig_offset == b.addr) bd = &cand;
    }
    ASSERT_NE(bd, nullptr) << "no static prediction for block 0x" << std::hex << b.addr;
    EXPECT_EQ(bd->num_insts, b.num_insts);
    EXPECT_EQ(bd->instr_words, b.instr_words);
    want_words += b.entries * bd->TraceWordsPerEntry();
    want_overhead += b.entries * bd->OverheadInstsPerEntry();
  }
  EXPECT_EQ(want_words, profile.totals.trace_words);
  EXPECT_EQ(want_overhead, profile.totals.overhead_insts);
}

// ---- Whole-system modes --------------------------------------------------

TEST(ScavengeSystem, UserStreamBitIdenticalAndDilationShrinks) {
  WorkloadSpec workload = PaperWorkload("sed", 0.05);
  ExperimentOptions on;
  on.profile = true;
  on.scavenge = true;
  ExperimentOptions off = on;
  off.scavenge = false;

  ExperimentResult ron = RunExperiment(workload, on);
  ExperimentResult roff = RunExperiment(workload, off);

  // The workload computes the same result either way, and both traces
  // parse without a single defense tripping.
  EXPECT_EQ(ron.exit_code, roff.exit_code);
  EXPECT_EQ(ron.parser_errors, 0u);
  EXPECT_EQ(roff.parser_errors, 0u);
  // The measured (untraced) half is untouched by an instrumentation knob.
  EXPECT_EQ(ron.measured_cycles, roff.measured_cycles);

  // The *user-space* reference stream is bit-identical: scavenging changes
  // how much inserted code the traced machine executes — which moves the
  // dilated kernel's interrupt/drain timing — but never what the workload's
  // reconstructed references are.  (Full-stream identity at the object
  // level is pinned by BareReferenceStreamBitIdentical.)
  struct UserTally {
    uint64_t entries = 0, insts = 0, loads = 0, stores = 0, overhead = 0;
  };
  auto user = [](const Profile& p) {
    UserTally t;
    for (const BlockProfile& b : p.blocks) {
      if (b.pid == kKernelPid) continue;
      t.entries += b.entries;
      t.insts += b.insts;
      t.loads += b.loads;
      t.stores += b.stores;
      t.overhead += b.OverheadInsts();
    }
    return t;
  };
  UserTally uon = user(ron.profile);
  UserTally uoff = user(roff.profile);
  ASSERT_GT(uon.entries, 0u);
  EXPECT_EQ(uon.entries, uoff.entries);
  EXPECT_EQ(uon.insts, uoff.insts);
  EXPECT_EQ(uon.loads, uoff.loads);
  EXPECT_EQ(uon.stores, uoff.stores);
  // Identical stream, smaller instrumented bodies: the dilation charged to
  // the workload strictly shrinks.
  EXPECT_LT(uon.overhead, uoff.overhead);

  // wrlstats: text growth measurably lower, and the scavenge counters
  // account for why.
  EXPECT_LT(ron.stats.GaugeValue("traced.epoxie.workload_text_growth"),
            roff.stats.GaugeValue("traced.epoxie.workload_text_growth"));
  EXPECT_LT(ron.stats.GaugeValue("traced.epoxie.kernel_text_growth"),
            roff.stats.GaugeValue("traced.epoxie.kernel_text_growth"));
  EXPECT_GT(ron.stats.CounterValue("traced.epoxie.elided_ra_saves"), 0u);
  EXPECT_EQ(roff.stats.CounterValue("traced.epoxie.elided_ra_saves"), 0u);
  EXPECT_EQ(roff.stats.CounterValue("traced.epoxie.scavenged_windows"), 0u);
}

// The scavenged system under both transports: the pipelined run matches
// the synchronous one.
TEST(ScavengeSystem, CaptureReplayAndPipelineMatchLive) {
  WorkloadSpec workload = PaperWorkload("sed", 0.05);
  ExperimentOptions live;
  live.profile = true;
  live.scavenge = true;
  live.pipeline = false;
  ExperimentResult rlive = RunExperiment(workload, live);
  ASSERT_GT(rlive.profile.totals.refs, 0u);

  ExperimentOptions piped = live;
  piped.pipeline = true;
  ExperimentResult rpipe = RunExperiment(workload, piped);

  EXPECT_EQ(rlive.profile.CanonicalJson(), rpipe.profile.CanonicalJson());
  EXPECT_EQ(rlive.prediction.PredictedCycles(), rpipe.prediction.PredictedCycles());
}

}  // namespace
}  // namespace wrl
