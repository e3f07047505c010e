// Shared helpers for wrltrace tests: assemble/link tiny kernel-mode
// programs and run them bare on the machine, and check event timelines.
#ifndef WRLTRACE_TESTS_TEST_UTIL_H_
#define WRLTRACE_TESTS_TEST_UTIL_H_

#include <string_view>
#include <vector>

#include "asm/assembler.h"
#include "mach/machine.h"
#include "obj/object_file.h"
#include "stats/events.h"

namespace wrl {

// Links a single assembly source at the reset vector (kernel mode, kseg0).
// The program starts executing at its first instruction.
inline Executable BuildBareProgram(std::string_view source) {
  ObjectFile obj = Assemble("test.s", source);
  LinkOptions options;
  options.text_base = kVecReset;
  options.entry_symbol = "_start";
  return Link({obj}, options);
}

// Loads a kseg0-linked executable into physical memory at its natural
// physical addresses (paddr = vaddr - kseg0).
inline void LoadBare(Machine& machine, const Executable& exe) {
  machine.LoadImage(exe, [](uint32_t vaddr) { return vaddr - kKseg0; });
  machine.SetPc(exe.entry);
}

// Assembles, links, loads, and runs `source` until halt (or the instruction
// budget runs out).  Returns the machine for inspection.
inline std::unique_ptr<Machine> RunBareProgram(std::string_view source,
                                               uint64_t max_instructions = 1'000'000,
                                               MachineConfig config = {}) {
  Executable exe = BuildBareProgram(source);
  auto machine = std::make_unique<Machine>(config);
  LoadBare(*machine, exe);
  machine->Run(max_instructions);
  return machine;
}

// Pairs of complete events on one track that overlap without one holding
// the other; a well-formed timeline has none.
inline size_t ImproperlyNestedPairs(const std::vector<TimelineEvent>& events) {
  size_t pairs = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    for (size_t j = i + 1; j < events.size(); ++j) {
      const TimelineEvent& a = events[i];
      const TimelineEvent& b = events[j];
      if (a.instant || b.instant || a.tid != b.tid) {
        continue;
      }
      const uint64_t a_end = a.wall_start_us + a.wall_dur_us;
      const uint64_t b_end = b.wall_start_us + b.wall_dur_us;
      const bool disjoint = a_end <= b.wall_start_us || b_end <= a.wall_start_us;
      const bool a_holds_b = a.wall_start_us <= b.wall_start_us && b_end <= a_end;
      const bool b_holds_a = b.wall_start_us <= a.wall_start_us && a_end <= b_end;
      pairs += !disjoint && !a_holds_b && !b_holds_a;
    }
  }
  return pairs;
}

}  // namespace wrl

#endif  // WRLTRACE_TESTS_TEST_UTIL_H_
