// The hand-written trace support routines the instrumented code calls.
//
// bbtrace and memtrace are the runtime half of epoxie: bbtrace records the
// basic-block key and performs the only buffer-room check (the "li zero, N"
// delay-slot no-op tells it how many words the whole block will write, so
// memtrace never needs to check); memtrace partially decodes the delay-slot
// instruction to compute and record the effective address.  Both preserve
// every program register, restore ra before returning (paper §3.2), and are
// themselves never traced (.notrace region).
//
// The same source serves user processes and the kernel: all addressing is
// relative to xreg3 (the bookkeeping base), and the buffer-full path raises
// a break exception that the kernel resolves for either mode (draining a
// per-process buffer, or switching the system to trace-analysis mode).
#ifndef WRLTRACE_TRACE_SUPPORT_ASM_H_
#define WRLTRACE_TRACE_SUPPORT_ASM_H_

#include <cstdint>
#include <functional>
#include <string>

namespace wrl {

class Machine;
struct Executable;

// Returns the DS32 assembly source of bbtrace/memtrace.  Assemble and link
// it into every traced image.
std::string TraceSupportAsm();

// The layout of the assembled routines that the machine's host intrinsics
// model (Machine::RegisterTraceRoutine checks it word by word against
// every image it registers):
//   * bbtrace's path when the block fits is its first 14 instructions, in
//     address order: the bne to bbtrace_full falls through;
//   * memtrace runs its first 10 instructions (`la` is lui+ori), the two
//     words of getreg_table's entry for the base register, then mt_have's
//     9 instructions;
//   * getreg_table is at memtrace + 40 and mt_have at getreg_table + 256.
//     Both are local labels, so no symbol names them;
//   * each routine fits in one page.  A routine that straddles a page
//     boundary is not registered, so the machine interprets it.
constexpr uint32_t kGetregTableOffset = 40;                      // From memtrace.
constexpr uint32_t kMtHaveOffset = kGetregTableOffset + 32 * 8;  // From memtrace.
constexpr unsigned kBbtraceInstructions = 14;
constexpr unsigned kMemtraceInstructions = 21;
constexpr uint32_t kBbtraceTextBytes = kBbtraceInstructions * 4;
constexpr uint32_t kMemtraceTextBytes = kMtHaveOffset + 9 * 4;

// Registers the bbtrace and memtrace that `exe` links with the machine,
// which then runs them as host intrinsics.  `vaddr_to_paddr` maps the
// image's text to where the machine holds it.  Register after the last
// host write to that text: any write to a page drops its registrations.
void RegisterTraceRoutines(Machine& machine, const Executable& exe,
                           const std::function<uint32_t(uint32_t)>& vaddr_to_paddr);

}  // namespace wrl

#endif  // WRLTRACE_TRACE_SUPPORT_ASM_H_
