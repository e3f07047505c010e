// The trace-routine intrinsics (mach/machine.h RegisterTraceRoutine): with
// bbtrace and memtrace registered, a machine with every fast path on must
// match the all-off interpreter exactly — registers, cop0, cycles,
// instructions, the memory system's counters and every trace word.  Each
// program below calls the routines by hand, the way epoxie's code does,
// and puts one of the events the host step's prechecks exist for where
// skipping it would show: a full buffer, a TLB miss on the buffer page, a
// device deadline or an interrupt inside a routine, each base register
// memtrace decodes, a budget that ends mid-routine, and a store that
// rewrites a routine's own text.  The whole-system identity runs in
// fastpath_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "mach/machine.h"
#include "support/error.h"
#include "support/strings.h"
#include "tests/test_util.h"
#include "trace/abi.h"
#include "trace/support_asm.h"

namespace wrl {
namespace {

constexpr uint32_t kBk = 0x80100000;      // Bookkeeping area ($t7).
constexpr uint32_t kBuffer = 0x80110000;  // Trace buffer ($t8).

// The vectors, then the program: `body` runs after the tracing state is
// set up ($t7, $t8, LIMIT one page up, SAVED_RA = $ra = 0x12345670).  The
// UTLB handler maps the missing page to frame 0x120 and retries; a break
// is a flush request, answered by restarting the buffer; anything else
// halts with EPC.
std::string Program(const std::string& body) {
  return StrFormat(R"(
        .globl _start
utlb:   mfc0 $k0, $badvaddr
        li   $k1, 0xfffff000
        and  $k0, $k0, $k1
        mtc0 $k0, $entryhi
        li   $k1, 0x00120600      # pfn 0x120, dirty | valid
        mtc0 $k1, $entrylo
        tlbwr
        mfc0 $k0, $epc
        jr   $k0
        rfe
        .align 128
gen:    mfc0 $k0, $cause
        srl  $k0, $k0, 2
        andi $k0, $k0, 31
        addiu $k1, $k0, -9        # Exc::kBp
        bne  $k1, $zero, stop
        nop
        li   $t8, 0x%08x          # the flush: restart the buffer
        mfc0 $k0, $epc
        addiu $k0, $k0, 4
        jr   $k0
        rfe
stop:   mfc0 $k1, $epc
        li   $k0, 0xbfd00004
        sw   $k1, 0($k0)          # halt(EPC)
        nop
        .align 512
_start: li   $t7, 0x%08x
        li   $t8, 0x%08x
        li   $t9, 0x%08x
        sw   $t9, %u($t7)         # LIMIT
        li   $ra, 0x12345670
        sw   $ra, %u($t7)         # SAVED_RA
%s
        li   $t9, 0xbfd00004
        sw   $zero, 0($t9)        # halt(0)
        nop
spin:   b    spin
        nop
)",
                   kBuffer, kBk, kBuffer, kBuffer + kPageBytes, kBkLimit, kBkSavedRa,
                   body.c_str());
}

// A block header: bbtrace with N trace words for the block.
std::string Bbtrace(unsigned words) {
  return StrFormat("        sw   $ra, %u($t7)\n        jal  bbtrace\n        li   $zero, %u\n",
                   kBkSavedRa, words);
}

// memtrace with the addiu-to-$zero surrogate of `offset($base)` in the
// delay slot.
std::string Memtrace(const char* base, int offset) {
  return StrFormat("        jal  memtrace\n        addiu $zero, $%s, %d\n", base, offset);
}

Executable LinkWithSupport(const std::string& body) {
  LinkOptions options;
  options.text_base = kKseg0;
  return Link({Assemble("t.s", Program(body)), Assemble("support.s", TraceSupportAsm())},
              options);
}

std::unique_ptr<Machine> Boot(const Executable& exe, bool fast) {
  MachineConfig config;
  config.timing = true;
  config.fastpath = fast;
  auto m = std::make_unique<Machine>(config);
  LoadBare(*m, exe);
  RegisterTraceRoutines(*m, exe, [](uint32_t vaddr) { return vaddr - kKseg0; });
  return m;
}

void ExpectSameMachine(const Machine& fast, const Machine& slow) {
  EXPECT_EQ(fast.halted(), slow.halted());
  EXPECT_EQ(fast.halt_code(), slow.halt_code());
  EXPECT_EQ(fast.pc(), slow.pc());
  EXPECT_EQ(fast.cycles(), slow.cycles());
  EXPECT_EQ(fast.instructions(), slow.instructions());
  EXPECT_EQ(fast.kernel_instructions(), slow.kernel_instructions());
  EXPECT_EQ(fast.interrupts_taken(), slow.interrupts_taken());
  EXPECT_TRUE(fast.memsys()->stats() == slow.memsys()->stats());
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(fast.gpr(r), slow.gpr(r)) << "gpr " << r;
  }
  for (unsigned c = 0; c < 16; ++c) {
    EXPECT_EQ(fast.cop0(c), slow.cop0(c)) << "cop0 " << c;
  }
  for (uint32_t page : {kBk - kKseg0, kBuffer - kKseg0, 0x120000u}) {
    for (uint32_t a = page; a < page + kPageBytes; a += 4) {
      ASSERT_EQ(fast.PhysRead32(a), slow.PhysRead32(a)) << StrFormat("word 0x%08x", a);
    }
  }
}

struct Pair {
  std::unique_ptr<Machine> fast;
  std::unique_ptr<Machine> slow;
};

// Runs `body` on both machines, `set_up` applied to each first.
template <typename SetUp>
Pair RunBoth(const std::string& body, SetUp set_up, uint64_t budget = 100'000) {
  const Executable exe = LinkWithSupport(body);
  Pair p{Boot(exe, true), Boot(exe, false)};
  set_up(*p.fast);
  set_up(*p.slow);
  p.fast->Run(budget);
  p.slow->Run(budget);
  ExpectSameMachine(*p.fast, *p.slow);
  return p;
}
Pair RunBoth(const std::string& body) {
  return RunBoth(body, [](Machine&) {});
}

const TraceRoutineCounts& Counts(const Pair& p) { return p.fast->trace_routine_counts(); }

TEST(TraceRoutines, HostStepMatchesTheInterpreter) {
  std::string body;
  for (int i = 0; i < 4; ++i) {
    body += Bbtrace(3) + Memtrace("sp", 16 * i) + Memtrace("a0", -4);
  }
  Pair p = RunBoth(body, [](Machine& m) {
    m.set_gpr(kSp, 0x7fff0000);
    m.set_gpr(kA0, 0x1000);
  });
  EXPECT_EQ(p.slow->halt_code(), 0u);
  EXPECT_EQ(p.slow->gpr(kXreg1), kBuffer + 12 * 4);
  EXPECT_EQ(p.slow->PhysRead32(kBuffer - kKseg0 + 4), 0x7fff0000u);
  // Every entry ran on the host; the interpreter never saw one.
  EXPECT_EQ(Counts(p).entries[0], 4u);
  EXPECT_EQ(Counts(p).entries[1], 8u);
  EXPECT_EQ(Counts(p).host[0], 4u);
  EXPECT_EQ(Counts(p).host[1], 8u);
  EXPECT_EQ(p.slow->trace_routine_counts().entries[0], 0u);
}

// Every register epoxie can emit as a base: all but the three stolen ones.
// ra's program value is SAVED_RA; zero reads 0.
TEST(TraceRoutines, MemtraceOnEveryBaseRegister) {
  std::string body;
  std::vector<uint8_t> bases;
  for (uint8_t reg = 0; reg < 32; ++reg) {
    if (!IsStolenReg(reg)) {
      bases.push_back(reg);
      body += Memtrace(RegName(reg), 4 * reg - 64);
    }
  }
  Pair p = RunBoth(body, [](Machine& m) {
    for (unsigned reg = 1; reg < 32; ++reg) {
      if (!IsStolenReg(static_cast<uint8_t>(reg)) && reg != kRa) {
        m.set_gpr(reg, 0x01000000u * reg + 0x100);
      }
    }
  });
  for (size_t i = 0; i < bases.size(); ++i) {
    const uint8_t reg = bases[i];
    const uint32_t value = reg == kZero ? 0 : reg == kRa ? 0x12345670u : 0x01000000u * reg + 0x100;
    EXPECT_EQ(p.slow->PhysRead32(kBuffer - kKseg0 + 4 * static_cast<uint32_t>(i)),
              value + 4 * reg - 64)
        << RegName(reg);
  }
  EXPECT_EQ(Counts(p).host[1], bases.size());
}

// The second block does not fit below LIMIT, one page up: bbtrace must
// take its break, whose handler restarts the buffer, and then store the
// key.
TEST(TraceRoutines, FullBufferTakesTheBreakPath) {
  const std::string body = Bbtrace(1) + Bbtrace(kPageBytes / 4) + Bbtrace(1);
  Pair p = RunBoth(body);
  EXPECT_EQ(p.slow->halt_code(), 0u);
  EXPECT_EQ(p.slow->exception_count(Exc::kBp), 1u);
  EXPECT_EQ(p.slow->gpr(kXreg1), kBuffer + 8);
  EXPECT_EQ(Counts(p).entries[0], 3u);
  EXPECT_EQ(Counts(p).host[0], 2u);
}

// A buffer page the TLB does not map: the first store into it takes a UTLB
// miss, whose handler maps it and retries; later calls find it mapped.
TEST(TraceRoutines, TlbMissOnTheBufferPage) {
  const std::string body =
      "        li   $t8, 0x00400000\n" + Bbtrace(2) + Memtrace("a0", 8) + Bbtrace(2);
  Pair p = RunBoth(body, [](Machine& m) { m.set_gpr(kA0, 0x5000); });
  EXPECT_EQ(p.slow->halt_code(), 0u);
  EXPECT_EQ(p.slow->exception_count(Exc::kTlbS), 1u);
  EXPECT_EQ(p.slow->gpr(kXreg1), 0x0040000cu);
  EXPECT_EQ(p.slow->PhysRead32(0x120004), 0x5008u);
  EXPECT_EQ(Counts(p).entries[0], 2u);
  EXPECT_EQ(Counts(p).host[0], 1u);  // The first one faulted.
  EXPECT_EQ(Counts(p).host[1], 1u);
}

// With the clock interrupt enabled, a tick `period` cycles after the
// clock starts lands at every instruction boundary of the calls in turn,
// the bbtrace_bump and memtrace_bump windows included.  The interrupt must
// be taken exactly where the interpreter takes it.
TEST(TraceRoutines, DeviceDeadlineAndInterruptInsideARoutine) {
  const std::string body = R"(
        li   $t0, 0x8001          # IM7 | IEc
        mtc0 $t0, $status
        li   $t1, 0xbfd00000
        sw   $s0, 0x10($t1)       # clock period = $s0
)" + Bbtrace(2) + Memtrace("a0", 8) +
                           Bbtrace(2) + Memtrace("a0", 12);
  const Executable exe = LinkWithSupport(body);
  const uint32_t bb_bump = exe.SymbolAddress("bbtrace_bump");
  const uint32_t mt_bump = exe.SymbolAddress("memtrace_bump");
  bool hit_bb_bump = false;
  bool hit_mt_bump = false;
  for (uint32_t period = 1; period < 400; ++period) {
    SCOPED_TRACE(period);
    Pair p = RunBoth(body, [period](Machine& m) {
      m.set_gpr(kS0, period);
      m.set_gpr(kA0, 0x2000);
    });
    hit_bb_bump |= p.slow->halt_code() == bb_bump;
    hit_mt_bump |= p.slow->halt_code() == mt_bump;
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_TRUE(hit_bb_bump);
  EXPECT_TRUE(hit_mt_bump);
  // A tick far beyond the calls leaves all four to the host.
  Pair p = RunBoth(body, [](Machine& m) {
    m.set_gpr(kS0, 100000);
    m.set_gpr(kA0, 0x2000);
  });
  EXPECT_EQ(p.slow->halt_code(), 0u);
  EXPECT_EQ(Counts(p).host[0] + Counts(p).host[1], 4u);
}

// A budget that stops inside a routine stops on the same instruction as
// the interpreter: Run(1) N times equals Run(N), both ways.
TEST(TraceRoutines, BudgetEndingMidRoutine) {
  const std::string body = Bbtrace(2) + Memtrace("a0", 8) + Bbtrace(1);
  const Executable exe = LinkWithSupport(body);
  auto whole = Boot(exe, false);
  whole->Run(100'000);
  ASSERT_TRUE(whole->halted());
  for (uint64_t n = 1; n <= whole->instructions() + 1; ++n) {
    SCOPED_TRACE(n);
    auto one_at_a_time = Boot(exe, true);
    for (uint64_t i = 0; i < n; ++i) {
      one_at_a_time->Run(1);
    }
    auto fast = Boot(exe, true);
    fast->Run(n);
    auto slow = Boot(exe, false);
    slow->Run(n);
    ExpectSameMachine(*fast, *slow);
    ExpectSameMachine(*one_at_a_time, *slow);
    if (HasFailure()) {
      return;
    }
  }
}

// A store rewrites bbtrace_bump to bump by 8: it drops the routine's page
// and the registration with it, so the next call is interpreted and runs
// the patched code.
TEST(TraceRoutines, StoreIntoTheRoutinePageDropsTheRegistration) {
  const std::string body = Bbtrace(1) + StrFormat(R"(
        la   $t0, bbtrace_bump
        li   $t1, 0x%08x          # addiu $t8, $t8, 8
        sw   $t1, 0($t0)
)",
                                                  EncodeIType(Op::kAddiu, kXreg1, kXreg1, 8)) +
                           Bbtrace(1);
  Pair p = RunBoth(body);
  EXPECT_EQ(p.slow->halt_code(), 0u);
  EXPECT_EQ(p.slow->gpr(kXreg1), kBuffer + 4 + 8);
  EXPECT_EQ(Counts(p).entries[0], 1u);
  EXPECT_EQ(Counts(p).host[0], 1u);
}

// Registration checks the image against the modeled routine word by word:
// an edited routine fails there, naming the first differing address.
TEST(TraceRoutines, RegistrationRejectsAnEditedRoutine) {
  Executable exe = LinkWithSupport(Bbtrace(1));
  for (auto [symbol, offset] : {std::pair{"memtrace", kMtHaveOffset + 12},
                                std::pair{"bbtrace", uint32_t{8}},
                                std::pair{"memtrace", kGetregTableOffset + 8 * kRa + 4}}) {
    SCOPED_TRACE(symbol);
    Executable edited = exe;
    const uint32_t addr = exe.SymbolAddress(symbol) + offset;
    const uint32_t at = addr - exe.text_base;
    edited.text[at] ^= 0x01;  // Flip the low bit of the immediate or function field.
    MachineConfig config;
    Machine m(config);
    LoadBare(m, edited);
    try {
      RegisterTraceRoutines(m, edited, [](uint32_t vaddr) { return vaddr - kKseg0; });
      ADD_FAILURE() << "an edited " << symbol << " registered";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find(StrFormat("at 0x%08x:", addr)), std::string::npos)
          << e.what();
    }
  }
  // The unedited image registers.
  MachineConfig config;
  Machine m(config);
  LoadBare(m, exe);
  EXPECT_NO_THROW(RegisterTraceRoutines(m, exe, [](uint32_t vaddr) { return vaddr - kKseg0; }));
}

}  // namespace
}  // namespace wrl
