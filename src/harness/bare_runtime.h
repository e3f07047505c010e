// Bare traced runs: execute a single instrumented program on the machine
// with no operating system, collecting its trace into a kseg0 buffer.
//
// This is the paper's tool-isolation methodology (§4.3): "the correctness
// of trace generated by epoxie instrumentation was validated by comparing
// epoxie trace for deterministic user programs to trace from a CPU
// simulator".  Here the machine's reference-trace hook plays the role of
// the independently developed CPU simulator: a body program is run twice —
// uninstrumented with the hardware hook, and instrumented with software
// tracing — and the two reference streams must agree exactly.
//
// The bare environment links three objects:
//   1. the runtime: exception vectors (any exception halts with 0xdead),
//      register clearing, tracing-state setup, a call to `main`, and the
//      final halt; it also owns the bookkeeping area and the trace buffer;
//   2. the trace support library (bbtrace/memtrace), never traced;
//   3. the body (the program under test), instrumented by epoxie.
// The original link pairs the same body with a non-tracing runtime.  Both
// links pin the data segment to the same address so data addresses in the
// trace match the original binary.
#ifndef WRLTRACE_HARNESS_BARE_RUNTIME_H_
#define WRLTRACE_HARNESS_BARE_RUNTIME_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "epoxie/epoxie.h"
#include "mach/machine.h"
#include "obj/object_file.h"
#include "trace/parser.h"

namespace wrl {

struct BareBuild {
  Executable original;      // [plain runtime, body]
  Executable instrumented;  // [tracing runtime, support, epoxie(body)]
  TraceInfoTable table;
  // The body's text extent in the *original* image (for reference filtering).
  uint32_t body_text_begin = 0;
  uint32_t body_text_end = 0;
  InstrumentResult instrument_result;
};

struct BareBuildOptions {
  InstrumentMode mode = InstrumentMode::kEpoxie;
  // Liveness-driven scavenging in epoxie (header `sw ra` elision, shadow
  // windows through dead scratch registers).  The reconstructed reference
  // stream is bit-identical either way; only text growth changes.
  bool scavenge = true;
};

// Assembles and links both images.  `body_source` must define a global
// `main` that returns with jr ra and clobbers no s-registers it doesn't
// save.
BareBuild BuildBareTraced(std::string_view body_source, const BareBuildOptions& options = {});

struct BareTraceRun {
  RunResult run;
  std::vector<uint32_t> trace_words;
  std::string console_output;
};

// Runs the instrumented image and extracts the raw trace words.
BareTraceRun RunBareTraced(const BareBuild& build, uint64_t max_instructions = 50'000'000);

// Runs the original (uninstrumented) image with no reference hook attached:
// the purest measure of raw simulator Step throughput.
RunResult RunBareOriginal(const BareBuild& build, uint64_t max_instructions = 50'000'000);

// Runs the original image under the reference hook, returning the body's
// references (events whose pc lies within the body text).
std::vector<RefEvent> RunBareReference(const BareBuild& build,
                                       uint64_t max_instructions = 50'000'000);

// Convenience: runs both sides and parses the software trace.
struct BareComparison {
  std::vector<RefEvent> reference;
  std::vector<TraceRef> parsed;
  TraceParserStats parser_stats;
  std::vector<std::string> parser_errors;
};
BareComparison CompareBareTrace(const BareBuild& build, uint64_t max_instructions = 50'000'000);

}  // namespace wrl

#endif  // WRLTRACE_HARNESS_BARE_RUNTIME_H_
