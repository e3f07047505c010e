// System tracing end to end: boot the traced WRTX system (kernel + a file
// workload), collect the complete interleaved trace — user and kernel —
// through the analysis pipeline, and summarize what the paper's Figure 1
// architecture delivers.
//
//   $ ./build/examples/system_trace [ultrix|mach]
#include <cstdio>
#include <cstring>
#include <memory>

#include "harness/experiment.h"
#include "trace/parser.h"

using namespace wrl;

int main(int argc, char** argv) {
  Personality personality =
      (argc > 1 && std::strcmp(argv[1], "mach") == 0) ? Personality::kMach : Personality::kUltrix;

  // A checksum of one file, traced at 1/15th the clock rate (paper §4.1) as
  // every experiment is.
  WorkloadSpec checksum;
  checksum.name = "checksum";
  std::vector<uint8_t> content(24000);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>('A' + (i % 23));
  }
  checksum.files = {{"input", content, 0}};
  checksum.source = R"(
        .globl main
main:
        addiu $sp, $sp, -12
        sw   $ra, 8($sp)
        la   $a0, fname
        jal  open
        nop
        move $a0, $v0
        la   $a1, buf
        li   $a2, 24000
        jal  read
        nop
        # Checksum the data.
        la   $t0, buf
        move $t1, $v0
        li   $v0, 0
cs:     blez $t1, csdone
        nop
        lbu  $t2, 0($t0)
        addu $v0, $v0, $t2
        addiu $t0, $t0, 1
        b    cs
        addiu $t1, $t1, -1
csdone:
        lw   $ra, 8($sp)
        jr   $ra
        addiu $sp, $sp, 12
        .data
fname:  .asciiz "input"
        .bss
buf:    .space 24576
)";

  printf("booting the traced %s system...\n",
         personality == Personality::kMach ? "Mach 3.0 (microkernel + UNIX server)" : "Ultrix");
  ExperimentOptions options;
  options.personality = personality;
  auto sys = BuildSystem(ExperimentSystemConfig(checksum, options, true));

  std::unique_ptr<TraceParser> parser = SystemTraceParser(*sys);
  uint64_t kernel_entries = 0;
  parser->SetMetaSink([&](MarkerCode code, uint32_t /*operand*/) {
    if (code == kMarkKernelEnter) {
      ++kernel_entries;
    }
  });
  sys->SetTraceSink([&parser](const uint32_t* w, size_t n) { parser->Feed(w, n); });

  RunResult r = sys->Run(options.max_instructions);
  parser->Finish();
  const TraceParserStats& s = parser->stats();

  printf("halted: %s, workload exit code %u (checksum)\n", r.halted ? "yes" : "NO",
         sys->ProcessExitCode(1));
  printf("\n--- trace summary (original-binary addresses) ---\n");
  printf("trace words drained:   %llu\n",
         static_cast<unsigned long long>(sys->trace_words_drained()));
  printf("basic blocks:          %llu\n", static_cast<unsigned long long>(s.blocks));
  printf("references:            %llu (%llu ifetch, %llu load, %llu store)\n",
         static_cast<unsigned long long>(s.refs), static_cast<unsigned long long>(s.ifetches),
         static_cast<unsigned long long>(s.loads), static_cast<unsigned long long>(s.stores));
  printf("user instructions:     %llu\n", static_cast<unsigned long long>(s.user_ifetches));
  printf("kernel instructions:   %llu (idle-loop: %llu)\n",
         static_cast<unsigned long long>(s.kernel_ifetches),
         static_cast<unsigned long long>(s.idle_instructions));
  printf("kernel entries:        %llu (each drained the per-process buffer)\n",
         static_cast<unsigned long long>(kernel_entries));
  printf("analysis mode switches:%llu\n", static_cast<unsigned long long>(sys->AnalysisSwitches()));
  printf("validation errors:     %llu\n",
         static_cast<unsigned long long>(s.validation_errors));
  printf("kernel UTLB counter:   %llu (the handler itself is untraced)\n",
         static_cast<unsigned long long>(sys->UtlbMissCount()));
  if (s.validation_errors > 0) {
    fprintf(stderr, "*** WARNING: %llu trace validation errors — the reconstructed trace "
            "is suspect ***\n",
            static_cast<unsigned long long>(s.validation_errors));
    return 1;
  }
  return 0;
}
