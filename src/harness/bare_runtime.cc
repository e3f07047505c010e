#include "harness/bare_runtime.h"

#include "asm/assembler.h"
#include "support/error.h"
#include "support/strings.h"
#include "trace/abi.h"
#include "trace/support_asm.h"

namespace wrl {
namespace {

// Registers both runtimes clear before calling main, so the two runs enter
// the body with identical architectural state.
const char* kClearRegs = R"(
        move $v0, $zero
        move $v1, $zero
        move $a0, $zero
        move $a1, $zero
        move $a2, $zero
        move $a3, $zero
        move $t0, $zero
        move $t1, $zero
        move $t2, $zero
        move $t3, $zero
        move $t4, $zero
        move $t5, $zero
        move $t6, $zero
        move $t7, $zero
        move $t8, $zero
        move $t9, $zero
        move $s0, $zero
        move $s1, $zero
        move $s2, $zero
        move $s3, $zero
        move $s4, $zero
        move $s5, $zero
        move $s6, $zero
        move $s7, $zero
        move $gp, $zero
        move $fp, $zero
)";

// Exception vectors shared by both runtimes: the bare environment expects
// no exceptions, so anything that fires halts with a recognizable code.
const char* kVectors = R"(
        .text
utlb_vec:
        li   $k0, 0xbfd00004
        li   $k1, 0xdeae
        sw   $k1, 0($k0)
        nop
        .align 128
gen_vec:
        li   $k0, 0xbfd00004
        li   $k1, 0xdead
        sw   $k1, 0($k0)
        nop
        .align 512
)";

std::string PlainRuntimeAsm() {
  std::string out = kVectors;
  out += R"(
        .globl _start
_start:
        li   $sp, 0x80f00000
)";
  out += kClearRegs;
  out += R"(
        jal  main
        nop
        li   $t9, 0xbfd00004
        sw   $zero, 0($t9)       # halt(0)
        nop
)";
  return out;
}

// The bare tracing state lives at fixed kseg0 addresses so that the
// instrumented link contributes no .data/.bss of its own — the body's data
// and bss must land at the same virtual addresses as in the original link
// (data addresses in the trace are compared verbatim).
constexpr uint32_t kBareBkAddr = 0x81000000;            // Bookkeeping area.
constexpr uint32_t kBareEndPtrAddr = kBareBkAddr + 0x100;  // Final-pointer slot.
constexpr uint32_t kBareBufferAddr = 0x81010000;        // Trace buffer.

std::string TracedRuntimeAsm(uint32_t buffer_bytes) {
  std::string out = kVectors;
  out += R"(
        .globl _start
_start:
        li   $sp, 0x80f00000
)";
  out += kClearRegs;
  out += StrFormat(R"(
        # Tracing state: xreg3 = bookkeeping, xreg1 = buffer pointer,
        # LIMIT leaves slack so the final block always fits.
        la   $t7, bk_area
        la   $t8, trace_buffer
        sw   $t8, %u($t7)        # BUF_START
)",
                   kBkBufStart);
  // LIMIT = buffer + (buffer_bytes - slack); the displacement exceeds an
  // addiu immediate, so materialize it with li + addu.
  out += StrFormat(R"(
        la   $t9, trace_buffer
        li   $at, %u
        addu $t9, $t9, $at
        sw   $t9, %u($t7)        # LIMIT
        move $t9, $zero
        jal  main
        nop
        la   $t9, trace_end_ptr
        sw   $t8, 0($t9)
        li   $t9, 0xbfd00004
        sw   $zero, 0($t9)       # halt(0)
        nop
)",
                   buffer_bytes - kTraceSlackBytes, kBkLimit);
  return out;
}

// Appends the absolute symbols the tracing runtime and epoxie-generated
// code resolve against.
void AddBareAbsSymbols(ObjectFile& obj) {
  for (const auto& [name, addr] : std::initializer_list<std::pair<const char*, uint32_t>>{
           {"bk_area", kBareBkAddr},
           {"trace_buffer", kBareBufferAddr},
           {"trace_end_ptr", kBareEndPtrAddr}}) {
    Symbol s;
    s.name = name;
    s.value = addr;
    s.section = SectionId::kAbs;
    s.global = true;
    obj.symbols.push_back(std::move(s));
  }
}

constexpr uint32_t kBareTextBase = kKseg0;           // Vectors live at the base.
constexpr uint32_t kBareDataBase = kKseg0 + 0x00800000;  // Same for both links.

Executable LinkBare(const std::vector<ObjectFile>& objects) {
  LinkOptions options;
  options.text_base = kBareTextBase;
  options.fixed_data_base = kBareDataBase;
  return Link(objects, options);
}

std::unique_ptr<Machine> BootBare(const Executable& exe) {
  MachineConfig config;
  auto machine = std::make_unique<Machine>(config);
  machine->LoadImage(exe, [](uint32_t vaddr) { return vaddr - kKseg0; });
  machine->SetPc(exe.entry);
  return machine;
}

}  // namespace

BareBuild BuildBareTraced(std::string_view body_source, const BareBuildOptions& options) {
  BareBuild build;
  ObjectFile body = Assemble("body.s", body_source);

  // Original image: plain runtime + body.
  ObjectFile plain_runtime = Assemble("runtime.s", PlainRuntimeAsm());
  build.original = LinkBare({plain_runtime, body});
  build.body_text_begin = build.original.object_text_bases[1];
  build.body_text_end = build.body_text_begin + static_cast<uint32_t>(body.text.size());

  // Instrumented image: tracing runtime + support + epoxie(body).
  EpoxieConfig epoxie_config;
  epoxie_config.mode = options.mode;
  epoxie_config.scavenge = options.scavenge;
  build.instrument_result = Instrument(body, epoxie_config);
  ObjectFile traced_runtime = Assemble("truntime.s", TracedRuntimeAsm(options.trace_buffer_bytes));
  AddBareAbsSymbols(traced_runtime);
  ObjectFile support = Assemble("support.s", TraceSupportAsm());
  build.instrumented = LinkBare({traced_runtime, support, build.instrument_result.object});

  build.table.AddObject(build.instrument_result.blocks, build.instrumented.object_text_bases[2],
                        build.body_text_begin);
  return build;
}

BareTraceRun RunBareTraced(const BareBuild& build, uint64_t max_instructions) {
  auto machine = BootBare(build.instrumented);
  BareTraceRun result;
  result.run = machine->Run(max_instructions);
  if (!result.run.halted || machine->halt_code() != 0) {
    throw Error(StrFormat("bare traced run failed: halted=%d code=0x%x pc=0x%08x",
                          result.run.halted ? 1 : 0, machine->halt_code(), machine->pc()));
  }
  uint32_t buf = kBareBufferAddr;
  uint32_t end = machine->PhysRead32(kBareEndPtrAddr - kKseg0);
  WRL_CHECK_MSG(end >= buf && (end - buf) % 4 == 0, "corrupt trace pointer");
  result.trace_words.reserve((end - buf) / 4);
  for (uint32_t addr = buf; addr < end; addr += 4) {
    result.trace_words.push_back(machine->PhysRead32(addr - kKseg0));
  }
  result.console_output = machine->console().output();
  return result;
}

RunResult RunBareOriginal(const BareBuild& build, uint64_t max_instructions) {
  auto machine = BootBare(build.original);
  RunResult run = machine->Run(max_instructions);
  if (!run.halted || machine->halt_code() != 0) {
    throw Error(StrFormat("bare original run failed: halted=%d code=0x%x pc=0x%08x",
                          run.halted ? 1 : 0, machine->halt_code(), machine->pc()));
  }
  return run;
}

std::vector<RefEvent> RunBareReference(const BareBuild& build, uint64_t max_instructions) {
  auto machine = BootBare(build.original);
  std::vector<RefEvent> events;
  uint32_t begin = build.body_text_begin;
  uint32_t end = build.body_text_end;
  machine->set_trace_hook([&](const RefEvent& e) {
    if (e.pc >= begin && e.pc < end) {
      events.push_back(e);
    }
  });
  RunResult run = machine->Run(max_instructions);
  if (!run.halted || machine->halt_code() != 0) {
    throw Error(StrFormat("bare reference run failed: halted=%d code=0x%x pc=0x%08x",
                          run.halted ? 1 : 0, machine->halt_code(), machine->pc()));
  }
  return events;
}

BareComparison CompareBareTrace(const BareBuild& build, uint64_t max_instructions) {
  BareComparison cmp;
  cmp.reference = RunBareReference(build, max_instructions);
  BareTraceRun traced = RunBareTraced(build, max_instructions);
  TraceParser parser(&build.table);
  parser.SetInitialContext(kKernelPid);
  RefFnSink collect([&cmp](const TraceRef& ref) { cmp.parsed.push_back(ref); });
  parser.SetBatchSink(&collect);
  parser.Feed(traced.trace_words);
  parser.Finish();
  cmp.parser_stats = parser.stats();
  cmp.parser_errors = parser.errors();
  return cmp;
}

}  // namespace wrl
