// The fast-path contract (mach/machine.h FastPathConfig): predecode,
// micro-TLB, and event-driven devices are pure optimizations.  With any of
// them on or off, the machine must produce byte-identical architectural
// results — every trace word, cycle count, and counter.  These tests hold
// it to that, and poke the invalidation edges where each cache could go
// stale: self-modifying code, DMA into predecoded text, TLB rewrites, ASID
// switches, micro-TLB slot conflicts, and stores to clean pages.
#include <gtest/gtest.h>

#include <string>
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
// Whole-system determinism: a traced workload run with all fast paths on
// must be byte-identical — trace words, cycles, and the full counter
// registry — to the all-off slow path.

struct TracedCapture {
  std::vector<uint32_t> trace_words;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t utlb_misses = 0;
  std::string counters_json;
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

  StatsRegistry registry;
  sys->RegisterStats(registry, "sys.");
  JsonWriter writer;
  registry.Snapshot().WriteJson(writer);
  capture.counters_json = writer.TakeString();
  return capture;
}

TracedCapture RunTracedWith(const FastPathConfig& fastpath) {
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
  TracedCapture fast = RunTracedWith(FastPathConfig{});
  TracedCapture slow = RunTracedWith(FastPathConfig::AllOff());
  EXPECT_EQ(fast.cycles, slow.cycles);
  EXPECT_EQ(fast.instructions, slow.instructions);
  ASSERT_EQ(fast.trace_words.size(), slow.trace_words.size());
  EXPECT_EQ(fast.trace_words, slow.trace_words);
  EXPECT_EQ(fast.counters_json, slow.counters_json);
}

// Each layer individually must also be invisible.
TEST(FastPath, EachLayerAloneIsByteIdentical) {
  TracedCapture slow = RunTracedWith(FastPathConfig::AllOff());
  for (int layer = 0; layer < 3; ++layer) {
    FastPathConfig one = FastPathConfig::AllOff();
    one.predecode = layer == 0;
    one.micro_tlb = layer == 1;
    one.event_devices = layer == 2;
    TracedCapture run = RunTracedWith(one);
    EXPECT_EQ(run.cycles, slow.cycles) << "layer " << layer;
    EXPECT_EQ(run.trace_words, slow.trace_words) << "layer " << layer;
    EXPECT_EQ(run.counters_json, slow.counters_json) << "layer " << layer;
  }
}

// The same contract on a paper workload whose translations the loop above
// never stresses: under Mach two address spaces share the TLB, tlbwr
// refills evict entries the micro-TLB may still hold, pages collide in
// micro-TLB slots, and under tracing every memory reference alternates with
// a store into the trace buffer.  Both systems of an experiment — measured
// and traced — are built by the harness's own rules.
TEST(FastPath, PaperWorkloadByteIdenticalToSlowPath) {
  const WorkloadSpec workload = PaperWorkload("eqntott", 0.05);
  ExperimentOptions options;
  options.personality = Personality::kMach;
  for (bool tracing : {false, true}) {
    SystemConfig config = ExperimentSystemConfig(workload, options, tracing);
    config.fastpath = FastPathConfig{};
    TracedCapture fast = RunCapture(config, options.max_instructions);
    config.fastpath = FastPathConfig::AllOff();
    TracedCapture slow = RunCapture(config, options.max_instructions);
    EXPECT_GT(slow.utlb_misses, 0u) << "tracing " << tracing;
    EXPECT_EQ(tracing, !slow.trace_words.empty());
    EXPECT_EQ(fast.cycles, slow.cycles) << "tracing " << tracing;
    EXPECT_EQ(fast.instructions, slow.instructions) << "tracing " << tracing;
    ASSERT_EQ(fast.trace_words.size(), slow.trace_words.size()) << "tracing " << tracing;
    EXPECT_EQ(fast.trace_words, slow.trace_words) << "tracing " << tracing;
    EXPECT_EQ(fast.counters_json, slow.counters_json) << "tracing " << tracing;
  }
}

// ---------------------------------------------------------------------------
// Invalidation edges, run under both configurations.

std::unique_ptr<Machine> RunWithFastpath(const std::string& source, bool on,
                                         MachineConfig config = {}) {
  config.fastpath = on ? FastPathConfig{} : FastPathConfig::AllOff();
  return RunBareProgram(source, 1'000'000, config);
}

// For programs that lay out their own exception vectors (linked at kseg0
// base so the UTLB/general handlers land at 0x80000000/0x80000080).
std::unique_ptr<Machine> RunVectored(const std::string& source, bool on) {
  MachineConfig config;
  config.fastpath = on ? FastPathConfig{} : FastPathConfig::AllOff();
  ObjectFile obj = Assemble("t.s", source);
  LinkOptions options;
  options.text_base = kKseg0;
  Executable exe = Link({obj}, options);
  auto m = std::make_unique<Machine>(config);
  LoadBare(*m, exe);
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
  config.fastpath = fastpath_on ? FastPathConfig{} : FastPathConfig::AllOff();
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

}  // namespace
}  // namespace wrl
