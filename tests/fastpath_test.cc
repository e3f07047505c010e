// The fast-path contract (mach/machine.h MachineConfig::fastpath): predecode
// (with its page-at-a-time run loop and the trace-routine host steps),
// micro-TLB, and event-driven devices are one pure optimization.  On or
// off, the machine must produce byte-identical architectural results —
// every trace word, cycle count, and counter.  These tests hold it to that,
// on every paper workload, and poke the edges where each cache or run could
// go stale: self-modifying code,
// DMA into predecoded text, TLB rewrites, ASID switches, micro-TLB slot
// conflicts, stores to clean pages, and the events that must end a page
// run (a store into the run's own page, an interrupt enabled mid-run, a
// budget that ends mid-run, a misaligned jump within the page).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.h"
#include "kernel/system_build.h"
#include "stats/stats.h"
#include "support/json.h"
#include "tests/test_util.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

// ---------------------------------------------------------------------------
// Whole-system determinism: a traced workload run with the fast path on
// must be byte-identical — trace words, cycles, and the full counter
// registry — to the slow path.

struct TracedCapture {
  std::vector<uint32_t> trace_words;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t utlb_misses = 0;
  std::string counters_json;
  TraceRoutineCounts routines;
};

TracedCapture RunCapture(const SystemConfig& config, uint64_t max_instructions) {
  auto sys = BuildSystem(config);

  TracedCapture capture;
  sys->SetTraceSink([&](const uint32_t* words, size_t count) {
    capture.trace_words.insert(capture.trace_words.end(), words, words + count);
  });
  RunResult r = sys->Run(max_instructions);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(sys->machine().halt_code(), 0u);
  capture.cycles = sys->machine().cycles();
  capture.instructions = sys->machine().instructions();
  capture.utlb_misses = sys->machine().utlb_miss_exceptions();
  capture.routines = sys->machine().trace_routine_counts();

  StatsRegistry registry;
  sys->RegisterStats(registry, "sys.");
  JsonWriter writer;
  registry.Snapshot().WriteJson(writer);
  capture.counters_json = writer.TakeString();
  return capture;
}

TracedCapture RunTracedWith(bool fastpath) {
  SystemConfig config;
  config.tracing = true;
  config.clock_period = 200000 * 15;
  config.fastpath = fastpath;
  config.program_source = R"(
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
  return RunCapture(config, 400'000'000);
}

TEST(FastPath, TracedSystemByteIdenticalToSlowPath) {
  TracedCapture fast = RunTracedWith(true);
  TracedCapture slow = RunTracedWith(false);
  EXPECT_EQ(fast.cycles, slow.cycles);
  EXPECT_EQ(fast.instructions, slow.instructions);
  ASSERT_EQ(fast.trace_words.size(), slow.trace_words.size());
  EXPECT_EQ(fast.trace_words, slow.trace_words);
  EXPECT_EQ(fast.counters_json, slow.counters_json);
}

// The same contract on every paper workload, under both personalities,
// for both systems of an experiment — measured and traced — built by the
// harness's own rules, with the traced system's bbtrace and memtrace run
// as host intrinsics (trace_routine_test pokes their edges).  These stress what the loop above never does: under
// Mach two address spaces share the TLB, tlbwr refills evict entries the
// micro-TLB may still hold, pages collide in micro-TLB slots; under tracing
// every memory reference alternates with a store into the trace buffer, so
// page runs end on every call to memtrace; the disk DMAs file data and
// program text, and clock interrupts land inside runs.
class PaperWorkloadFastPath
    : public ::testing::TestWithParam<std::tuple<std::string, Personality>> {};

TEST_P(PaperWorkloadFastPath, ByteIdenticalToSlowPath) {
  const auto& [name, personality] = GetParam();
  const WorkloadSpec workload = PaperWorkload(name, 0.01);
  ExperimentOptions options;
  options.personality = personality;
  // Far above what any of these runs retires, far below the harness's
  // 3e9: a run loop that misses an event (say, a device deadline, so the
  // idle loop never sees its disk interrupt) fails here in seconds rather
  // than spinning for minutes.
  constexpr uint64_t kBudget = 100'000'000;
  for (bool tracing : {false, true}) {
    SCOPED_TRACE(tracing ? "traced system" : "measured system");
    SystemConfig config = ExperimentSystemConfig(workload, options, tracing);
    TracedCapture fast = RunCapture(config, kBudget);
    config.fastpath = false;
    TracedCapture slow = RunCapture(config, kBudget);
    EXPECT_GT(slow.utlb_misses, 0u);
    EXPECT_EQ(tracing, !slow.trace_words.empty());
    EXPECT_EQ(fast.cycles, slow.cycles);
    EXPECT_EQ(fast.instructions, slow.instructions);
    ASSERT_EQ(fast.trace_words.size(), slow.trace_words.size());
    EXPECT_TRUE(fast.trace_words == slow.trace_words) << "same length, different words";
    EXPECT_EQ(fast.counters_json, slow.counters_json);
    if (tracing) {
      // Not vacuous: the host step ran nearly every bbtrace and memtrace,
      // and the entries it saw account for nearly every trace word (each
      // call writes one; markers and the suspended kernel's scratch words
      // are the difference).
      const TraceRoutineCounts& r = fast.routines;
      for (int kind = 0; kind < 2; ++kind) {
        SCOPED_TRACE(kind == 0 ? "bbtrace" : "memtrace");
        EXPECT_GT(r.entries[kind], 0u);
        EXPECT_GE(static_cast<double>(r.host[kind]), 0.99 * static_cast<double>(r.entries[kind]));
      }
      EXPECT_GE(static_cast<double>(r.entries[0] + r.entries[1]),
                0.95 * static_cast<double>(fast.trace_words.size()));
    }
  }
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : PaperWorkloads(0.01)) {
    names.push_back(w.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PaperWorkloadFastPath,
    ::testing::Combine(::testing::ValuesIn(WorkloadNames()),
                       ::testing::Values(Personality::kUltrix, Personality::kMach)),
    [](const ::testing::TestParamInfo<PaperWorkloadFastPath::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == Personality::kMach ? "_mach" : "_ultrix");
    });

// ---------------------------------------------------------------------------
// Invalidation edges, run under both configurations.

std::unique_ptr<Machine> RunWithFastpath(const std::string& source, bool on,
                                         MachineConfig config = {}) {
  config.fastpath = on;
  return RunBareProgram(source, 1'000'000, config);
}

// For programs that lay out their own exception vectors (linked at kseg0
// base so the UTLB/general handlers land at 0x80000000/0x80000080).
Executable LinkVectored(const std::string& source) {
  ObjectFile obj = Assemble("t.s", source);
  LinkOptions options;
  options.text_base = kKseg0;
  return Link({obj}, options);
}

std::unique_ptr<Machine> LoadVectored(const std::string& source, bool on) {
  MachineConfig config;
  config.timing = true;
  config.fastpath = on;
  auto m = std::make_unique<Machine>(config);
  LoadBare(*m, LinkVectored(source));
  return m;
}

std::unique_ptr<Machine> RunVectored(const std::string& source, bool on) {
  auto m = LoadVectored(source, on);
  m->Run(1'000'000);
  EXPECT_TRUE(m->halted());
  return m;
}

// A store into an already-executed (and therefore predecoded) text page
// must be visible to the next fetch of that instruction.
constexpr const char* kSelfModifyingProgram = R"(
        .globl _start
_start: li   $v0, 0
        li   $t5, 2
pass:
patch:  addiu $v0, $v0, 1        # pass 2 executes the patched version
        la   $t0, patch
        li   $t1, 0x24420064     # addiu $v0, $v0, 100
        sw   $t1, 0($t0)
        addiu $t5, $t5, -1
        bne  $t5, $zero, pass
        nop
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)         # halt(v0)
        nop
spin:   b    spin
        nop
)";

TEST(FastPath, SelfModifyingCodeRedecodes) {
  // Pass 1 adds 1, pass 2 executes the patched add of 100.
  EXPECT_EQ(RunWithFastpath(kSelfModifyingProgram, true)->halt_code(), 101u);
  EXPECT_EQ(RunWithFastpath(kSelfModifyingProgram, false)->halt_code(), 101u);
}

// Disk DMA into a predecoded text page must invalidate the cached decode.
uint32_t RunDmaOverwrite(bool fastpath_on) {
  MachineConfig config;
  config.fastpath = fastpath_on;
  config.disk.seek_cycles = 500;
  config.disk.per_sector_cycles = 100;
  Machine m{config};
  // Sector 3 holds the replacement routine: li $v0, 42; jr $ra; nop.
  const uint32_t replacement[3] = {0x2402002a, 0x03e00008, 0x00000000};
  for (int w = 0; w < 3; ++w) {
    for (int b = 0; b < 4; ++b) {
      m.disk().image()[3 * 512 + w * 4 + b] =
          static_cast<uint8_t>(replacement[w] >> (8 * b));
    }
  }
  Executable exe = BuildBareProgram(R"(
        .globl _start
_start: # Plant routine A at phys 0x200000: li $v0, 7; jr $ra; nop.
        li   $t2, 0x80200000
        li   $t1, 0x24020007
        sw   $t1, 0($t2)
        li   $t1, 0x03e00008
        sw   $t1, 4($t2)
        sw   $zero, 8($t2)
        jalr $t2                 # v0 = 7 (page now predecoded)
        nop
        addu $s0, $v0, $zero
        # DMA sector 3 over the same page and wait for completion.
        li   $t9, 0xbfd00000
        li   $t0, 3
        sw   $t0, 0x20($t9)      # DISK_SECTOR
        li   $t0, 0x00200000
        sw   $t0, 0x24($t9)      # DISK_ADDR
        li   $t0, 1
        sw   $t0, 0x28($t9)      # DISK_COUNT
        sw   $t0, 0x2c($t9)      # DISK_CMD = read
poll:   lw   $t1, 0x30($t9)      # DISK_STATUS
        li   $t3, 2              # 2 = done
        bne  $t1, $t3, poll
        nop
        sw   $zero, 0x34($t9)    # DISK_ACK
        jalr $t2                 # must execute the DMA'd routine: v0 = 42
        nop
        li   $t4, 100
        mult $s0, $t4
        mflo $t5
        addu $v0, $t5, $v0       # halt(first * 100 + second)
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
spin:   b    spin
        nop
)");
  LoadBare(m, exe);
  m.Run(1'000'000);
  EXPECT_TRUE(m.halted());
  return m.halt_code();
}

TEST(FastPath, DmaInvalidatesPredecodedPage) {
  EXPECT_EQ(RunDmaOverwrite(true), 742u);
  EXPECT_EQ(RunDmaOverwrite(false), 742u);
}

// Rewriting a TLB entry with tlbwi must flush the whole micro-TLB: the next
// load through the rewritten page has to see the new frame, even though
// another page's slot was used since that page's slot was filled.
constexpr const char* kTlbRewriteProgram = R"(
        .globl _start
        .space 0x80              # UTLB vector unused (entry always present)
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $v0, $k0, 31
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
        .space 0x100
_start: # Distinct values in phys pages 0x100, 0x101 and 0x102.
        li   $t0, 0x80100000
        li   $t1, 1111
        sw   $t1, 0x10($t0)
        li   $t0, 0x80101000
        li   $t1, 2222
        sw   $t1, 0x10($t0)
        li   $t0, 0x80102000
        li   $t1, 3000
        sw   $t1, 0x10($t0)
        # Map user page 1 -> pfn 0x102 (index 1), then user page 0 ->
        # pfn 0x100 (index 0, dirty|valid); EntryHi is left naming page 0.
        li   $t1, 0x1000
        mtc0 $t1, $entryhi
        li   $t1, 0x00102600
        mtc0 $t1, $entrylo
        li   $t1, 0x100
        mtc0 $t1, $index
        tlbwi
        mtc0 $zero, $entryhi
        li   $t1, 0x00100600
        mtc0 $t1, $entrylo
        mtc0 $zero, $index
        tlbwi
        li   $t2, 0x10
        lw   $t3, 0($t2)         # 1111; primes page 0's micro-TLB slot
        lw   $t5, 0x1000($t2)    # 3000; page 1's slot is the one used last
        # Rewrite index 0 -> pfn 0x101.
        li   $t1, 0x00101600
        mtc0 $t1, $entrylo
        tlbwi
        lw   $t4, 0($t2)         # must read 2222, not a stale 1111
        addu $v0, $t3, $t4
        addu $v0, $v0, $t5       # halt(6333)
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
spin:   b    spin
        nop
)";

TEST(FastPath, TlbRewriteInvalidatesMicroTlb) {
  EXPECT_EQ(RunVectored(kTlbRewriteProgram, true)->halt_code(), 6333u);
  EXPECT_EQ(RunVectored(kTlbRewriteProgram, false)->halt_code(), 6333u);
}

// Switching the ASID in EntryHi must flush the micro-TLB: a non-global
// entry cached under the old ASID may not satisfy the new address space.
constexpr const char* kAsidSwitchProgram = R"(
        .globl _start
utlb:   li   $v0, 77             # UTLB miss is the expected outcome
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
        .align 128
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $v0, $k0, 31
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
        .space 0x100
_start: # Map user page 0 under asid 0 (non-global).
        mtc0 $zero, $entryhi
        li   $t1, 0x00100600
        mtc0 $t1, $entrylo
        mtc0 $zero, $index
        tlbwi
        li   $t2, 0x10
        lw   $t3, 0($t2)         # hit under asid 0; primes the micro-TLB
        li   $t1, 0x40           # EntryHi: asid 1
        mtc0 $t1, $entryhi
        lw   $t4, 0($t2)         # must MISS now -> UTLB vector -> halt(77)
        li   $v0, 1              # reached only if the stale entry hit
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
spin:   b    spin
        nop
)";

TEST(FastPath, AsidSwitchInvalidatesMicroTlb) {
  EXPECT_EQ(RunVectored(kAsidSwitchProgram, true)->halt_code(), 77u);
  EXPECT_EQ(RunVectored(kAsidSwitchProgram, false)->halt_code(), 77u);
}

// User pages 0 and 64 share a micro-TLB slot (VPN mod 64) but map to
// different frames: each load must read its own page, however the slot
// was last filled.
constexpr const char* kSlotAliasProgram = R"(
        .globl _start
        .space 0x80              # UTLB vector unused (entries always present)
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $v0, $k0, 31
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
        .space 0x100
_start: # 1 in phys page 0x100, 2 in phys page 0x101.
        li   $t0, 0x80100000
        li   $t1, 1
        sw   $t1, 0x10($t0)
        li   $t0, 0x80101000
        li   $t1, 2
        sw   $t1, 0x10($t0)
        # Map user page 64 -> pfn 0x101 (index 1), user page 0 -> pfn 0x100
        # (index 0).
        li   $t1, 0x00040000
        mtc0 $t1, $entryhi
        li   $t1, 0x00101600
        mtc0 $t1, $entrylo
        li   $t1, 0x100
        mtc0 $t1, $index
        tlbwi
        mtc0 $zero, $entryhi
        li   $t1, 0x00100600
        mtc0 $t1, $entrylo
        mtc0 $zero, $index
        tlbwi
        li   $t2, 0x10
        li   $t6, 0x40010
        lw   $t3, 0($t2)         # page 0: 1
        lw   $t4, 0($t6)         # page 64: 2
        lw   $t5, 0($t2)         # page 0 again: 1
        sll  $t3, $t3, 8
        sll  $t4, $t4, 4
        or   $v0, $t3, $t4
        or   $v0, $v0, $t5       # halt(0x121)
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
spin:   b    spin
        nop
)";

TEST(FastPath, MicroTlbSlotConflictKeepsPagesApart) {
  EXPECT_EQ(RunVectored(kSlotAliasProgram, true)->halt_code(), 0x121u);
  EXPECT_EQ(RunVectored(kSlotAliasProgram, false)->halt_code(), 0x121u);
}

// A load fills the data slot of a clean (valid, not dirty) page; a store
// to that page must not hit the slot, and still raises Mod.
constexpr const char* kCleanPageStoreProgram = R"(
        .globl _start
        .space 0x80              # UTLB vector unused (entry always present)
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $v0, $k0, 31
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)         # halt(ExcCode): Mod is 1
        nop
        .space 0x100
_start: mtc0 $zero, $entryhi
        li   $t1, 0x00100200     # valid only, not dirty
        mtc0 $t1, $entrylo
        mtc0 $zero, $index
        tlbwi
        li   $t2, 0x10
        lw   $t3, 0($t2)         # primes the slot with a clean translation
        sw   $zero, 0($t2)       # must raise Mod
        li   $v0, 99             # reached only if the store hit the slot
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
spin:   b    spin
        nop
)";

TEST(FastPath, StoreToCleanPageAfterLoadRaisesMod) {
  EXPECT_EQ(RunVectored(kCleanPageStoreProgram, true)->halt_code(), 1u);
  EXPECT_EQ(RunVectored(kCleanPageStoreProgram, false)->halt_code(), 1u);
}

// ---------------------------------------------------------------------------
// Page-run edges.  With the fast path on, Run executes a page at a time and
// skips Step's prologue inside a run; each program below puts one of the
// events that must end a run where skipping the prologue would show.  Every
// one runs in a single page (the vectors included) and in timing mode, and
// must match the per-instruction Step loop exactly.

void ExpectSameMachine(const Machine& fast, const Machine& slow) {
  EXPECT_EQ(fast.halted(), slow.halted());
  EXPECT_EQ(fast.halt_code(), slow.halt_code());
  EXPECT_EQ(fast.pc(), slow.pc());
  EXPECT_EQ(fast.cycles(), slow.cycles());
  EXPECT_EQ(fast.instructions(), slow.instructions());
  EXPECT_EQ(fast.interrupts_taken(), slow.interrupts_taken());
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(fast.gpr(r), slow.gpr(r)) << "gpr " << r;
  }
  for (unsigned c = 0; c < 16; ++c) {
    EXPECT_EQ(fast.cop0(c), slow.cop0(c)) << "cop0 " << c;
  }
}

// A store rewrites the very next instruction of the run executing it.  The
// store drops the page the run reads from, so the run must stop before its
// next fetch: reading on would execute the stale decode (or, under ASan,
// read a freed page).
constexpr const char* kPatchNextProgram = R"(
        .globl _start
_start: li   $v0, 0
        la   $t0, patch
        li   $t1, 0x24420064     # addiu $v0, $v0, 100
        sw   $t1, 0($t0)
patch:  addiu $v0, $v0, 1        # replaced by the store just before it
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)         # halt(v0)
        nop
spin:   b    spin
        nop
)";

TEST(FastPath, StoreIntoTheRunningPagePatchesTheNextInstruction) {
  auto fast = RunWithFastpath(kPatchNextProgram, true);
  auto slow = RunWithFastpath(kPatchNextProgram, false);
  EXPECT_EQ(slow->halt_code(), 100u);
  ExpectSameMachine(*fast, *slow);
}

// The clock ticks while interrupts are off, so its interrupt is already
// pending when an mtc0 to Status enables it.  The interrupt must be taken
// before the instruction after the mtc0, in the same page: EPC = `after`.
// The 1000-cycle period puts the only earlier deadline inside the wait
// loop, so nothing but the mtc0 can end the run there.
constexpr const char* kEnablePendingIrqProgram = R"(
        .globl _start
        .globl after
        .space 0x80
gen:    mfc0 $v0, $epc
        li   $t9, 0xbfd00000
        sw   $zero, 0x14($t9)    # CLOCK_ACK
        sw   $zero, 0x10($t9)    # stop the clock
        sw   $v0, 4($t9)         # halt(EPC)
        nop
        .space 0x100
_start: li   $t9, 0xbfd00000
        li   $t0, 1000
        sw   $t0, 0x10($t9)      # clock period; IEc is still 0
        li   $t3, 400
wait:   addiu $t3, $t3, -1       # the first tick goes pending here
        bne  $t3, $zero, wait
        nop
        mfc0 $t1, $status
        li   $t2, 0x8001         # IM7 | IEc
        or   $t1, $t1, $t2
        mtc0 $t1, $status        # enables the pending tick
after:  addiu $s0, $s0, 1        # must not run before the interrupt
        addiu $s0, $s0, 1
        li   $t9, 0xbfd00004
        sw   $s0, 0($t9)         # halt(2): reached only if no interrupt
        nop
spin:   b    spin
        nop
)";

TEST(FastPath, MtcStatusTakesAPendingInterruptBeforeTheNextInstruction) {
  auto fast = RunVectored(kEnablePendingIrqProgram, true);
  auto slow = RunVectored(kEnablePendingIrqProgram, false);
  const uint32_t after = LinkVectored(kEnablePendingIrqProgram).SymbolAddress("after");
  EXPECT_EQ(slow->halt_code(), after);
  EXPECT_EQ(slow->interrupts_taken(), 1u);
  EXPECT_EQ(slow->gpr(kS0), 0u);
  ExpectSameMachine(*fast, *slow);
}

// A loop with a syscall every iteration (the handler returns with jr+rfe)
// and clock ticks with interrupts off: runs end on exceptions, cop0 writes
// and device deadlines.  A budget that stops inside a run must stop on
// exactly the same instruction: Run(1) N times equals Run(N), both ways.
constexpr const char* kBudgetProgram = R"(
        .globl _start
        .space 0x80
gen:    mfc0 $k0, $epc
        addiu $k0, $k0, 4
        addiu $s1, $s1, 1        # syscalls taken
        jr   $k0
        rfe
        .space 0x100
_start: li   $t9, 0xbfd00000
        li   $t0, 37
        sw   $t0, 0x10($t9)      # clock period; interrupts stay off
        li   $s0, 0
        li   $t0, 50
loop:   addiu $s0, $s0, 3
        syscall
        addiu $t0, $t0, -1
        bne  $t0, $zero, loop
        nop
        addu $v0, $s0, $s1       # halt(150 + 50)
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
spin:   b    spin
        nop
)";

TEST(FastPath, BudgetEndingMidRunStopsOnTheSameInstruction) {
  for (uint64_t n : {1u, 2u, 7u, 13u, 64u, 301u, 100000u}) {
    SCOPED_TRACE(n);
    auto one_at_a_time = LoadVectored(kBudgetProgram, true);
    for (uint64_t i = 0; i < n; ++i) {
      one_at_a_time->Run(1);
    }
    auto fast = LoadVectored(kBudgetProgram, true);
    fast->Run(n);
    auto slow = LoadVectored(kBudgetProgram, false);
    slow->Run(n);
    ExpectSameMachine(*fast, *slow);
    ExpectSameMachine(*one_at_a_time, *slow);
    if (slow->halted()) {
      EXPECT_EQ(slow->halt_code(), 200u);
    } else {
      EXPECT_EQ(slow->instructions(), n);
    }
  }
}

// A jr to a misaligned address in the same page: the run must end at the
// pc change so the next fetch raises AdEL, as Step's prologue does, rather
// than executing the aligned word below it.
constexpr const char* kMisalignedJumpProgram = R"(
        .globl _start
        .globl target
        .space 0x80
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $v0, $k0, 31
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)         # halt(ExcCode): AdEL is 4
        nop
        .space 0x100
_start: la   $t0, target
        addiu $t0, $t0, 2
        jr   $t0
        nop
target: li   $v0, 99             # reached only if the fetch did not fault
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
spin:   b    spin
        nop
)";

TEST(FastPath, MisalignedJumpWithinThePageRaisesAdEL) {
  auto fast = RunVectored(kMisalignedJumpProgram, true);
  auto slow = RunVectored(kMisalignedJumpProgram, false);
  const uint32_t target = LinkVectored(kMisalignedJumpProgram).SymbolAddress("target");
  EXPECT_EQ(slow->halt_code(), 4u);
  EXPECT_EQ(slow->cop0(kCop0BadVAddr), target + 2);
  EXPECT_EQ(slow->cop0(kCop0Epc), target + 2);
  ExpectSameMachine(*fast, *slow);
}

}  // namespace
}  // namespace wrl
