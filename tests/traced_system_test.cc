// Full-system tracing tests: the instrumented kernel and workload run
// together, the per-process buffers drain into the in-kernel buffer on
// every kernel entry, the analysis program consumes it through the host
// port, and the trace-parsing library reconstructs the complete interleaved
// reference stream — validated with the paper's defensive checks (§4.3)
// and against the uninstrumented system's counters.
#include <gtest/gtest.h>

#include "kernel/system_build.h"
#include "support/strings.h"
#include "trace/parser.h"

namespace wrl {
namespace {

constexpr uint64_t kBudget = 400'000'000;

struct TracedRun {
  std::unique_ptr<SystemInstance> sys;
  TraceParserStats stats;
  std::vector<std::string> errors;
  uint64_t user_loads = 0;
  uint64_t user_stores = 0;
  uint64_t kernel_refs = 0;
};

SystemConfig BaseConfig(const std::string& program, Personality personality,
                        std::vector<DiskFile> files) {
  SystemConfig config;
  config.personality = personality;
  config.program_source = program;
  config.files = std::move(files);
  if (personality == Personality::kMach) {
    config.policy = PagePolicy::kScrambled;
  }
  return config;
}

TracedRun RunTraced(const std::string& program,
                    Personality personality = Personality::kUltrix,
                    std::vector<DiskFile> files = {}, uint32_t trace_buf_bytes = 8u << 20) {
  TracedRun run;
  SystemConfig config = BaseConfig(program, personality, std::move(files));
  config.tracing = true;
  config.clock_period = 200000 * 15;  // 1/15th rate: time-dilation scaling.
  config.trace_buf_bytes = trace_buf_bytes;
  run.sys = BuildSystem(config);

  TraceParser parser(&run.sys->kernel_table());
  for (const SystemInstance::UserSpace& space : run.sys->user_spaces()) {
    parser.SetUserTable(space.pid, space.table);
  }
  parser.SetInitialContext(kKernelPid);
  RefFnSink tally([&](const TraceRef& ref) {
    if (ref.kernel) {
      ++run.kernel_refs;
    } else if (ref.kind == TraceRef::kLoad) {
      ++run.user_loads;
    } else if (ref.kind == TraceRef::kStore) {
      ++run.user_stores;
    }
  });
  parser.SetBatchSink(&tally);
  run.sys->SetTraceSink([&parser](const uint32_t* words, size_t count) {
    parser.Feed(words, count);
  });
  RunResult r = run.sys->Run(kBudget);
  EXPECT_TRUE(r.halted) << "traced system did not halt; pc=" << Hex32(run.sys->machine().pc());
  EXPECT_EQ(run.sys->machine().halt_code(), 0u);
  parser.Finish();
  run.stats = parser.stats();
  run.errors = parser.errors();
  return run;
}

const char* kComputeProgram = R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        la   $t0, table
        li   $t1, 0
        li   $t2, 64
fill:   sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        sw   $t1, 0($t3)
        addiu $t1, $t1, 1
        bne  $t1, $t2, fill
        nop
        li   $t1, 0
        li   $v0, 0
sum:    sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        lw   $t4, 0($t3)
        addu $v0, $v0, $t4
        addiu $t1, $t1, 1
        bne  $t1, $t2, sum
        nop
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
table:  .space 256
)";

TEST(TracedSystem, UltrixParsesCleanly) {
  TracedRun run = RunTraced(kComputeProgram);
  ASSERT_TRUE(run.errors.empty()) << run.errors.front();
  EXPECT_EQ(run.stats.validation_errors, 0u);
  EXPECT_EQ(run.sys->ProcessExitCode(1), 64u * 63u / 2u);
  EXPECT_GT(run.stats.user_ifetches, 500u);
  // Kernel trace here is just the exit syscall path: the UTLB handler — the
  // dominant kernel activity for this workload — is deliberately untraced.
  EXPECT_GT(run.stats.kernel_ifetches, 40u);
  EXPECT_EQ(run.user_stores, 64u + 1u);  // fill loop + prologue sw ra
  EXPECT_GE(run.stats.markers, 1u);
}

TEST(TracedSystem, UserInstructionCountMatchesUntracedRun) {
  // The reconstructed user instruction stream (in original addresses) must
  // have exactly as many instructions as the uninstrumented system executes
  // in user mode — the trace represents the *original* binary.
  TracedRun traced = RunTraced(kComputeProgram);
  ASSERT_TRUE(traced.errors.empty()) << traced.errors.front();

  SystemConfig config = BaseConfig(kComputeProgram, Personality::kUltrix, {});
  config.tracing = false;
  auto untraced = BuildSystem(config);
  RunResult r = untraced->Run(kBudget);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(traced.stats.user_ifetches, untraced->machine().user_instructions());
}

TEST(TracedSystem, TimeDilationInPaperBand) {
  // The traced system executes an order of magnitude more instructions for
  // the same work (paper: about fifteen).
  TracedRun traced = RunTraced(kComputeProgram);
  SystemConfig config = BaseConfig(kComputeProgram, Personality::kUltrix, {});
  config.tracing = false;
  auto untraced = BuildSystem(config);
  untraced->Run(kBudget);
  // Compare the workload's own lifetime (boot is untraced in both builds
  // and would otherwise dominate this tiny program).
  double dilation = static_cast<double>(traced.sys->ProcessCycles(1)) /
                    static_cast<double>(untraced->ProcessCycles(1));
  EXPECT_GT(dilation, 4.0);
  EXPECT_LT(dilation, 30.0);
}

TEST(TracedSystem, FileWorkloadWithDiskTracesCleanly) {
  std::vector<uint8_t> content(12000);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i * 7);
  }
  TracedRun run = RunTraced(R"(
        .globl main
main:
        addiu $sp, $sp, -12
        sw   $ra, 8($sp)
        la   $a0, fname
        jal  open
        nop
        move $a0, $v0
        la   $a1, buf
        li   $a2, 12000
        jal  read
        nop
        move $v0, $zero
        lw   $ra, 8($sp)
        jr   $ra
        addiu $sp, $sp, 12
        .data
fname:  .asciiz "data.in"
        .bss
buf:    .space 12288
)",
                            Personality::kUltrix, {{"data.in", content, 0}});
  ASSERT_TRUE(run.errors.empty()) << run.errors.front();
  EXPECT_EQ(run.stats.validation_errors, 0u);
  // Kernel trace dominates here: copy loops and the idle loop during disk
  // waits all appear.
  EXPECT_GT(run.stats.kernel_ifetches, run.stats.user_ifetches);
  EXPECT_GT(run.stats.idle_instructions, 0u);
}

TEST(TracedSystem, MachParsesCleanly) {
  std::vector<uint8_t> content(6000, 'm');
  TracedRun run = RunTraced(R"(
        .globl main
main:
        addiu $sp, $sp, -12
        sw   $ra, 8($sp)
        la   $a0, fname
        jal  open
        nop
        move $a0, $v0
        la   $a1, buf
        li   $a2, 6000
        jal  read
        nop
        move $v0, $zero
        lw   $ra, 8($sp)
        jr   $ra
        addiu $sp, $sp, 12
        .data
fname:  .asciiz "data.in"
        .bss
buf:    .space 8192
)",
                            Personality::kMach, {{"data.in", content, 0}});
  ASSERT_TRUE(run.errors.empty()) << run.errors.front();
  EXPECT_EQ(run.stats.validation_errors, 0u);
  // Two user address spaces contribute trace.
  EXPECT_GT(run.stats.user_ifetches, 0u);
  EXPECT_GT(run.sys->ContextSwitches(), 2u);
}

TEST(TracedSystem, SmallBufferForcesAnalysisModeSwitches) {
  // A small in-kernel buffer forces generation/analysis mode switches; the
  // trace must still parse cleanly across them (paper §4.3's "dirt" is
  // discarded, not corrupted).  The workload loops enough to fill several
  // buffers' worth of trace.
  const char* big_loop = R"(
        .globl main
main:
        la   $t0, cell
        li   $t1, 20000
        li   $v0, 0
bl_loop:
        sw   $t1, 0($t0)
        lw   $t2, 0($t0)
        addu $v0, $v0, $t2
        addiu $t1, $t1, -1
        bgtz $t1, bl_loop
        nop
        li   $v0, 42
        jr   $ra
        nop
        .data
cell:   .word 0
)";
  TracedRun run = RunTraced(big_loop, Personality::kUltrix, {}, 192 * 1024);
  ASSERT_TRUE(run.errors.empty()) << run.errors.front();
  EXPECT_GT(run.sys->AnalysisSwitches(), 0u);
  EXPECT_EQ(run.sys->ProcessExitCode(1), 42u);
}

TEST(TracedSystem, DefensiveChecksCatchCorruption) {
  // Corrupt one word of the drained stream: the redundancy in the format
  // (known block lengths, table membership) must flag it.
  SystemConfig config = BaseConfig(kComputeProgram, Personality::kUltrix, {});
  config.tracing = true;
  config.clock_period = 200000 * 15;
  auto sys = BuildSystem(config);
  std::vector<uint32_t> words;
  sys->SetTraceSink([&](const uint32_t* w, size_t n) { words.insert(words.end(), w, w + n); });
  RunResult r = sys->Run(kBudget);
  ASSERT_TRUE(r.halted);
  ASSERT_GT(words.size(), 100u);

  auto parse = [&](const std::vector<uint32_t>& stream) {
    TraceParser parser(&sys->kernel_table());
    parser.SetUserTable(1, &sys->user_table());
    parser.SetInitialContext(kKernelPid);
    parser.Feed(stream);
    parser.Finish();
    return parser.stats().validation_errors;
  };
  EXPECT_EQ(parse(words), 0u);

  // Find a user data word (follows a key whose block has memory ops) and a
  // key word to corrupt.  Dropping a *data* word desynchronizes the stream;
  // flipping a *key* fails the address-space membership check.  (A dropped
  // key of a dataless block is the one corruption the redundancy cannot
  // see — the paper promises "very high probability", not certainty.)
  size_t data_index = 0;
  size_t key_index = 0;
  for (size_t i = 0; i + 1 < words.size(); ++i) {
    const TraceBlockInfo* info = sys->user_table().Find(words[i]);
    if (info != nullptr) {
      key_index = i;
      if (!info->mem_ops.empty() && data_index == 0) {
        data_index = i + 1;
      }
    }
  }
  ASSERT_GT(data_index, 0u);
  ASSERT_GT(key_index, 0u);

  std::vector<uint32_t> dropped = words;
  dropped.erase(dropped.begin() + static_cast<long>(data_index));
  EXPECT_GT(parse(dropped), 0u);

  std::vector<uint32_t> flipped = words;
  flipped[key_index] ^= 0x00300000;  // No longer a valid key.
  EXPECT_GT(parse(flipped), 0u);
}

TEST(TracedSystem, ConsoleOutputIdenticalToUntraced) {
  const char* program = R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        li   $a0, 1
        la   $a1, msg
        li   $a2, 26
        jal  write
        nop
        li   $v0, 0
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
msg:    .asciiz "abcdefghijklmnopqrstuvwxyz"
)";
  TracedRun traced = RunTraced(program);
  SystemConfig config = BaseConfig(program, Personality::kUltrix, {});
  config.tracing = false;
  auto untraced = BuildSystem(config);
  untraced->Run(kBudget);
  EXPECT_EQ(traced.sys->ConsoleOutput(), untraced->ConsoleOutput());
  EXPECT_EQ(traced.sys->ConsoleOutput(), "abcdefghijklmnopqrstuvwxyz");
}

}  // namespace
}  // namespace wrl
