#include "mach/machine.h"

#include <gtest/gtest.h>

#include "support/error.h"
#include "tests/test_util.h"

namespace wrl {
namespace {

// All test programs run in kernel mode out of kseg0 unless they set up the
// TLB and drop to user mode themselves.

constexpr const char* kHaltEpilogue = R"(
halt:   li   $t9, 0xbfd00004     # HALT register
        sw   $v0, 0($t9)
spin:   b    spin
        nop
)";

std::string Program(const std::string& body) {
  // Re-enter .text before the epilogue: test bodies may end in .data.
  return std::string("        .globl _start\n_start:\n") + body + "\n        .text\n" +
         kHaltEpilogue;
}

TEST(Machine, ArithmeticAndHalt) {
  auto m = RunBareProgram(Program(R"(
        li   $t0, 21
        addu $v0, $t0, $t0       # 42
        b    halt
        nop
)"));
  EXPECT_TRUE(m->halted());
  EXPECT_EQ(m->halt_code(), 42u);
}

TEST(Machine, BranchDelaySlotExecutes) {
  auto m = RunBareProgram(Program(R"(
        li   $v0, 0
        b    over
        addiu $v0, $v0, 5        # delay slot must execute
        addiu $v0, $v0, 100      # skipped
over:   b    halt
        nop
)"));
  EXPECT_EQ(m->halt_code(), 5u);
}

TEST(Machine, JalLinksPastDelaySlot) {
  auto m = RunBareProgram(Program(R"(
        li   $v0, 1
        jal  sub
        addiu $v0, $v0, 10       # delay slot
        b    halt                # return point: ra = this address
        nop
sub:    jr   $ra
        addiu $v0, $v0, 100      # delay slot of jr
)"));
  EXPECT_EQ(m->halt_code(), 111u);
}

TEST(Machine, LoadStoreRoundTrip) {
  auto m = RunBareProgram(Program(R"(
        la   $t0, buf
        li   $t1, 0x12345678
        sw   $t1, 0($t0)
        lw   $v0, 0($t0)
        lbu  $t2, 0($t0)         # little-endian low byte
        lbu  $t3, 3($t0)
        sb   $t3, 4($t0)
        lb   $t4, 4($t0)
        b    halt
        nop
        .data
buf:    .space 16
)"));
  EXPECT_EQ(m->halt_code(), 0x12345678u);
}

TEST(Machine, SignExtensionOnLbLh) {
  auto m = RunBareProgram(Program(R"(
        la   $t0, buf
        li   $t1, 0x80ff
        sh   $t1, 0($t0)
        lh   $t2, 0($t0)         # sign-extends to 0xffff80ff
        srl  $v0, $t2, 16        # 0xffff
        b    halt
        nop
        .data
buf:    .space 8
)"));
  EXPECT_EQ(m->halt_code(), 0xffffu);
}

TEST(Machine, MultDivAndHiLo) {
  auto m = RunBareProgram(Program(R"(
        li   $t0, 1000
        li   $t1, 3
        mult $t0, $t1
        mflo $t2                 # 3000
        div  $t0, $t1
        mflo $t3                 # 333
        mfhi $t4                 # 1
        addu $v0, $t2, $t3
        addu $v0, $v0, $t4       # 3334
        b    halt
        nop
)"));
  EXPECT_EQ(m->halt_code(), 3334u);
  EXPECT_GT(m->arith_stall_cycles(), 0u);
}

TEST(Machine, ConsoleOutput) {
  auto m = RunBareProgram(Program(R"(
        li   $t9, 0xbfd00000
        li   $t0, 72             # 'H'
        sw   $t0, 0($t9)
        li   $t0, 105            # 'i'
        sw   $t0, 0($t9)
        li   $t0, 1234
        sw   $t0, 0x44($t9)      # decimal debug port
        li   $v0, 0
        b    halt
        nop
)"));
  EXPECT_EQ(m->console().output(), "Hi1234");
}

TEST(Machine, CycleCounterMonotonic) {
  auto m = RunBareProgram(Program(R"(
        li   $t9, 0xbfd00000
        lw   $t0, 8($t9)         # CYCLE_LO
        nop
        nop
        nop
        lw   $t1, 8($t9)
        subu $v0, $t1, $t0       # elapsed cycles > 0
        b    halt
        nop
)"));
  EXPECT_GT(m->halt_code(), 0u);
  EXPECT_LT(m->halt_code(), 100u);
}

TEST(Machine, SyscallVectorsToGeneralHandler) {
  // Link at the vector base so the general handler is at +0x80.
  ObjectFile obj = Assemble("t.s", R"(
        .globl _start
        .space 0x80              # UTLB vector (unused here)
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $v0, $k0, 31        # ExcCode == 8 (Sys)
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
        .space 0x100
_start: syscall 5
        nop
spin:   b    spin
        nop
)");
  LinkOptions options;
  options.text_base = kKseg0;
  Executable exe = Link({obj}, options);
  Machine m{MachineConfig{}};
  LoadBare(m, exe);
  m.Run(1000);
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.halt_code(), 8u);  // Exc::kSys
  EXPECT_EQ(m.exception_count(Exc::kSys), 1u);
}

TEST(Machine, EpcPointsAtSyscall) {
  ObjectFile obj = Assemble("t.s", R"(
        .globl _start
        .globl the_syscall
        .space 0x80
gen:    mfc0 $v0, $epc
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
        .space 0x100
_start: nop
the_syscall: syscall
        nop
spin:   b spin
        nop
)");
  LinkOptions options;
  options.text_base = kKseg0;
  Executable exe = Link({obj}, options);
  Machine m{MachineConfig{}};
  LoadBare(m, exe);
  m.Run(1000);
  EXPECT_EQ(m.halt_code(), exe.SymbolAddress("the_syscall"));
}

TEST(Machine, UtlbMissVectorAndRefill) {
  // A full software TLB refill: linear page table in kseg0, Context-based
  // 9-instruction handler at the UTLB vector, then a user-segment load.
  ObjectFile obj = Assemble("t.s", R"(
        .globl _start
# --- UTLB refill handler at 0x80000000 ---
utlb:   mfc0 $k0, $context
        lw   $k0, 0($k0)         # PTE (EntryLo format)
        mtc0 $k0, $entrylo
        tlbwr
        mfc0 $k0, $epc
        jr   $k0
        rfe
        .align 128
# --- general handler: record the exception code and halt ---
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $v0, $k0, 31
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
        .space 0x100
_start:
        # Linear page table at a 2MB-aligned kseg0 address (the Context
        # register composes PTEBase | BadVPN<<2, so PTEBase must be
        # 2MB-aligned).  Map user page 0 -> phys page 0x100:
        # EntryLo = PFN(31:12) | D(10) | V(9) = 0x100<<12 | 0x400 | 0x200.
        li   $t0, 0x80400000
        li   $t1, 0x00100600
        sw   $t1, 0($t0)
        mtc0 $t0, $context       # PTEBase
        # Store a value at phys 0x100010 via kseg0 so the user load sees it.
        li   $t3, 0x80100000
        li   $t4, 7777
        sw   $t4, 16($t3)
        # Touch user address 0x10 -> UTLB miss -> refill -> load works.
        li   $t5, 0x10
        lw   $v0, 0($t5)
        lw   $v0, 0($t5)         # second access: TLB hit, no new miss
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
spin:   b spin
        nop
)");
  LinkOptions options;
  options.text_base = kKseg0;
  Executable exe = Link({obj}, options);
  Machine m{MachineConfig{}};
  LoadBare(m, exe);
  m.Run(10000);
  ASSERT_TRUE(m.halted());
  EXPECT_EQ(m.halt_code(), 7777u);
  EXPECT_EQ(m.utlb_miss_exceptions(), 1u);  // Second access hits the TLB.
}

TEST(Machine, ClockInterrupt) {
  ObjectFile obj = Assemble("t.s", R"(
        .globl _start
        .space 0x80
gen:    li   $t9, 0xbfd00000
        sw   $zero, 0x14($t9)    # CLOCK_ACK
        sw   $zero, 0x10($t9)    # period = 0: stop the clock
        li   $v0, 99
        sw   $v0, 4($t9)         # halt(99)
        nop
        .space 0x100
_start: li   $t9, 0xbfd00000
        li   $t0, 100
        sw   $t0, 0x10($t9)      # clock period = 100 cycles
        mfc0 $t1, $status
        li   $t2, 0x8001         # IM7 | IEc
        or   $t1, $t1, $t2
        mtc0 $t1, $status
wait:   b    wait
        nop
)");
  LinkOptions options;
  options.text_base = kKseg0;
  Executable exe = Link({obj}, options);
  Machine m{MachineConfig{}};
  LoadBare(m, exe);
  m.Run(100000);
  ASSERT_TRUE(m.halted());
  EXPECT_EQ(m.halt_code(), 99u);
  EXPECT_GE(m.clock().ticks(), 1u);
}

TEST(Machine, DiskReadDmaAndInterrupt) {
  MachineConfig config;
  config.disk.seek_cycles = 500;
  config.disk.per_sector_cycles = 100;
  Machine m{config};
  // Put recognizable data in sector 3.
  for (int i = 0; i < 512; ++i) {
    m.disk().image()[3 * 512 + i] = static_cast<uint8_t>(i & 0xff);
  }
  ObjectFile obj = Assemble("t.s", R"(
        .globl _start
        .space 0x80
gen:    li   $t9, 0xbfd00000
        sw   $zero, 0x34($t9)    # DISK_ACK
        li   $t0, 0x80200000     # read the DMA'd data via kseg0
        lw   $v0, 4($t0)         # bytes 4..7 = 04 05 06 07
        sw   $v0, 4($t9)         # halt(value)
        nop
        .space 0x100
_start: li   $t9, 0xbfd00000
        li   $t0, 3
        sw   $t0, 0x20($t9)      # sector
        li   $t0, 0x00200000
        sw   $t0, 0x24($t9)      # DMA phys addr
        li   $t0, 1
        sw   $t0, 0x28($t9)      # count
        mfc0 $t1, $status
        li   $t2, 0x4001         # IM6 | IEc
        or   $t1, $t1, $t2
        mtc0 $t1, $status
        li   $t0, 1
        sw   $t0, 0x2c($t9)      # CMD = read
wait:   b    wait
        nop
)");
  LinkOptions options;
  options.text_base = kKseg0;
  Executable exe = Link({obj}, options);
  LoadBare(m, exe);
  m.Run(100000);
  ASSERT_TRUE(m.halted());
  EXPECT_EQ(m.halt_code(), 0x07060504u);
  EXPECT_EQ(m.disk().operations(), 1u);
}

TEST(Machine, DiskTransferPastLastSectorIsRejected) {
  DiskConfig config;
  config.num_sectors = 8;
  PhysMem phys(64 * 1024);
  // Issued past the end: the command write refuses it.
  Disk issued{config};
  issued.WriteReg(kDevDiskSector, 7, 0);
  issued.WriteReg(kDevDiskCount, 2, 0);
  EXPECT_THROW(issued.WriteReg(kDevDiskCmd, 1, 0), Error);
  // Issued in range, then stretched past the end while in flight: the DMA
  // itself must refuse it rather than read past the image.
  for (uint32_t cmd : {1u, 2u}) {
    Disk disk{config};
    disk.WriteReg(kDevDiskSector, 7, 0);
    disk.WriteReg(kDevDiskCount, 1, 0);
    disk.WriteReg(kDevDiskCmd, cmd, 0);
    disk.WriteReg(kDevDiskCount, 2, 0);
    EXPECT_THROW(disk.Tick(disk.completion_time(), phys), InternalError) << "cmd " << cmd;
  }
}

TEST(Machine, UserModeCannotTouchKseg) {
  // Drop to user mode via rfe + jr into a user-mapped page, then try to
  // read kseg0: expect AdEL recorded by the general handler.
  ObjectFile obj = Assemble("t.s", R"(
        .globl _start
utlb:   b    utlb                # no refills expected (wired entry used)
        nop
        .align 128
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $v0, $k0, 31
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)         # halt(exccode)
        nop
        .space 0x100
_start:
        # Wire user page 0 -> phys 0x100 page, via tlbwi at index 0.
        li   $t0, 0x00000000     # EntryHi: vpn 0, asid 0
        mtc0 $t0, $entryhi
        li   $t1, 0x00100600     # EntryLo: pfn 0x100, D|V
        mtc0 $t1, $entrylo
        mtc0 $zero, $index
        tlbwi
        # Copy a tiny user program to phys 0x100000 (= user va 0).
        li   $t2, 0x80100000
        la   $t3, user_code
        lw   $t4, 0($t3)
        sw   $t4, 0($t2)
        lw   $t4, 4($t3)
        sw   $t4, 4($t2)
        lw   $t4, 8($t3)
        sw   $t4, 8($t2)
        # Return to user mode at va 0: status stack: set KUp|IEp, rfe pops.
        mfc0 $t5, $status
        ori  $t5, $t5, 0x08      # KUp = user
        mtc0 $t5, $status
        li   $k0, 0
        jr   $k0
        rfe
user_code:
        lui  $t0, 0x8000         # kseg0 address
        lw   $t1, 0($t0)         # must fault with AdEL (4)
        nop
)");
  LinkOptions options;
  options.text_base = kKseg0;
  Executable exe = Link({obj}, options);
  Machine m{MachineConfig{}};
  LoadBare(m, exe);
  m.Run(10000);
  ASSERT_TRUE(m.halted());
  EXPECT_EQ(m.halt_code(), 4u);  // AdEL
  EXPECT_GT(m.user_instructions(), 0u);
}

TEST(Machine, TlbModExceptionOnCleanPage) {
  ObjectFile obj = Assemble("t.s", R"(
        .globl _start
        .space 0x80
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $v0, $k0, 31
        li   $t9, 0xbfd00004
        sw   $v0, 0($t9)
        nop
        .space 0x100
_start: li   $t0, 0x00000000
        mtc0 $t0, $entryhi
        li   $t1, 0x00100200     # V only, not dirty
        mtc0 $t1, $entrylo
        mtc0 $zero, $index
        tlbwi
        li   $t2, 0x10
        sw   $zero, 0($t2)       # store to clean page -> Mod (1)
        nop
)");
  LinkOptions options;
  options.text_base = kKseg0;
  Executable exe = Link({obj}, options);
  Machine m{MachineConfig{}};
  LoadBare(m, exe);
  m.Run(10000);
  ASSERT_TRUE(m.halted());
  EXPECT_EQ(m.halt_code(), 1u);  // Mod
}

TEST(Machine, TimingModeChargesStalls) {
  MachineConfig timing;
  timing.timing = true;
  auto functional = RunBareProgram(Program(R"(
        li   $t0, 0
        li   $t1, 2000
loop:   addiu $t0, $t0, 1
        bne  $t0, $t1, loop
        nop
        li   $v0, 0
        b    halt
        nop
)"));
  auto timed = RunBareProgram(Program(R"(
        li   $t0, 0
        li   $t1, 2000
loop:   addiu $t0, $t0, 1
        bne  $t0, $t1, loop
        nop
        li   $v0, 0
        b    halt
        nop
)"),
                              1'000'000, timing);
  // Same instruction count; timing mode adds stall cycles (cold caches).
  EXPECT_GT(timed->cycles(), functional->cycles());
  ASSERT_NE(timed->memsys(), nullptr);
  EXPECT_GT(timed->memsys()->stats().icache_misses, 0u);
  EXPECT_EQ(functional->memsys(), nullptr);
}

TEST(Machine, ReferenceTraceHookSeesAllRefs) {
  Executable exe = BuildBareProgram(Program(R"(
        la   $t0, buf
        sw   $zero, 0($t0)
        lw   $t1, 0($t0)
        li   $v0, 0
        b    halt
        nop
        .data
buf:    .space 8
)"));
  Machine m{MachineConfig{}};
  LoadBare(m, exe);
  uint64_t ifetches = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  m.set_trace_hook([&](const RefEvent& e) {
    switch (e.kind) {
      case RefEvent::kIfetch: ++ifetches; break;
      case RefEvent::kLoad: ++loads; break;
      case RefEvent::kStore: ++stores; break;
    }
  });
  m.Run(1000);
  EXPECT_EQ(ifetches, m.instructions());
  EXPECT_EQ(loads, 1u);
  EXPECT_EQ(stores, 2u);  // sw + halt-register store
}

TEST(Machine, IdleRangeCounter) {
  Executable exe = BuildBareProgram(Program(R"(
        .globl idle_top
        li   $t0, 50
idle_top:
        addiu $t0, $t0, -1
        bne  $t0, $zero, idle_top
        nop
        li   $v0, 0
        b    halt
        nop
)"));
  Machine m{MachineConfig{}};
  LoadBare(m, exe);
  uint32_t lo = exe.SymbolAddress("idle_top");
  m.SetIdleRange(lo, lo + 12);
  m.Run(10000);
  EXPECT_EQ(m.idle_instructions(), 150u);  // 3 instructions x 50 iterations
}

TEST(Machine, HostcallRoundTrip) {
  Executable exe = BuildBareProgram(Program(R"(
        li   $t9, 0xbfd00000
        li   $t0, 55
        sw   $t0, 0x40($t9)      # hostcall(55)
        lw   $v0, 0x40($t9)      # read reply
        b    halt
        nop
)"));
  Machine m{MachineConfig{}};
  LoadBare(m, exe);
  m.set_hostcall_handler([](uint32_t v) { return v * 2; });
  m.Run(1000);
  EXPECT_EQ(m.halt_code(), 110u);
}

// The budget saturates: after some instructions have retired, Run(UINT64_MAX)
// still runs to halt instead of wrapping to a limit behind the count and
// running nothing.  Both run loops (page runs and per-instruction Step).
TEST(Machine, MaxBudgetAfterAPartialRunRunsToHalt) {
  for (bool fastpath : {true, false}) {
    SCOPED_TRACE(fastpath ? "fast path" : "slow path");
    MachineConfig config;
    config.fastpath = fastpath;
    Machine m{config};
    LoadBare(m, BuildBareProgram(Program(R"(
        li   $v0, 0
        li   $t0, 10
loop:   addiu $v0, $v0, 3
        addiu $t0, $t0, -1
        bne  $t0, $zero, loop
        nop
        b    halt
        nop
)")));
    RunResult first = m.Run(5);
    EXPECT_FALSE(first.halted);
    EXPECT_EQ(first.instructions, 5u);
    RunResult rest = m.Run(UINT64_MAX);
    EXPECT_TRUE(rest.halted);
    EXPECT_EQ(rest.halt_code, 30u);
  }
}

TEST(Machine, RandomRegisterStaysInUnwiredRange) {
  Tlb tlb(8);
  for (uint64_t count = 0; count < 1000; ++count) {
    unsigned r = tlb.Random(count);
    EXPECT_GE(r, 8u);
    EXPECT_LT(r, 64u);
  }
}

TEST(Tlb, AsidIsolation) {
  Tlb tlb;
  tlb.entry(10) = {MakeEntryHi(0x4000, 3), MakeEntryLo(0x100000, true, true, false)};
  EXPECT_TRUE(tlb.Lookup(0x4000, 3).has_value());
  EXPECT_FALSE(tlb.Lookup(0x4000, 4).has_value());
}

TEST(Tlb, GlobalEntriesIgnoreAsid) {
  Tlb tlb;
  tlb.entry(10) = {MakeEntryHi(0x4000, 3), MakeEntryLo(0x100000, true, true, true)};
  EXPECT_TRUE(tlb.Lookup(0x4000, 7).has_value());
}

}  // namespace
}  // namespace wrl
