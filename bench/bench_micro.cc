// Micro-benchmarks (google-benchmark) for the hot primitives of the tracing
// toolchain: assembly, instrumentation, trace parsing, and the simulators.
//
// Like every other bench, --json PATH writes a wrlstats/1
// metrics report: micro.<benchmark>.real_ns / .cpu_ns per benchmark, plus
// .items_per_second where the bench reports throughput — the BENCH_*.json
// perf-trajectory record wrlbench_diff consumes.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "bench/bench_util.h"
#include "dataflow/dataflow.h"
#include "epoxie/epoxie.h"
#include "harness/bare_runtime.h"
#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "kernel/system_build.h"
#include "memsys/memsys.h"
#include "prof/prof.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/rng.h"
#include "support/strings.h"
#include "sweep/sweep.h"
#include "trace/chunk_ring.h"
#include "trace/parser.h"
#include "trace/trace_archive.h"
#include "trace/trace_log.h"
#include "verify/verify.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

const char* kBody = R"(
        .globl main
main:
        addiu $sp, $sp, -16
        sw   $ra, 12($sp)
        la   $t0, data
        li   $t1, 0
        li   $t2, 200
loop:   sll  $t3, $t1, 2
        andi $t3, $t3, 0xfc
        addu $t3, $t0, $t3
        lw   $t4, 0($t3)
        addu $t4, $t4, $t1
        sw   $t4, 0($t3)
        addiu $t1, $t1, 1
        bne  $t1, $t2, loop
        nop
        lw   $ra, 12($sp)
        jr   $ra
        addiu $sp, $sp, 16
        .data
data:   .space 256
)";

void BM_Assemble(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Assemble("bench.s", kBody));
  }
}
BENCHMARK(BM_Assemble);

void BM_EpoxieInstrument(benchmark::State& state) {
  ObjectFile obj = Assemble("bench.s", kBody);
  EpoxieConfig config;
  // Pinned to the paper-literal emission so the number stays comparable
  // with the pre-scavenging baseline; the liveness-driven rewrite is
  // measured separately by BM_ScavengeRewrite.
  config.scavenge = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Instrument(obj, config));
  }
}
BENCHMARK(BM_EpoxieInstrument);

// A multi-procedure body — dozens of functions with loops, calls, and
// stolen-register windows — so the interprocedural fixpoint and the
// scavenging rewrite see representative CFG and call-graph structure.
std::string ManyProcBody() {
  std::string src = "        .globl main\nmain:   addiu $sp, $sp, -8\n        sw   $ra, 4($sp)\n";
  for (int i = 0; i < 48; ++i) {
    src += StrFormat("        jal  f%d\n        nop\n", i);
  }
  src += "        lw   $ra, 4($sp)\n        jr   $ra\n        addiu $sp, $sp, 8\n";
  for (int i = 0; i < 48; ++i) {
    src += StrFormat(R"(        .globl f%d
f%d:    la   $t0, data
        li   $t1, %d
l%d:    lw   $t2, 0($t0)
        addu $t2, $t2, $t1
        sw   $t2, 0($t0)
        li   $t8, %d
        addu $t9, $t8, $t2
        sw   $t9, 4($t0)
        addiu $t1, $t1, -1
        bne  $t1, $zero, l%d
        nop
        jr   $ra
        addu $v0, $zero, $zero
)",
                     i, i, i + 2, i, i + 3, i);
  }
  src += "        .data\ndata:   .space 64\n";
  return src;
}

// Interprocedural register liveness (text words resolved per second).
void BM_Liveness(benchmark::State& state) {
  ObjectFile obj = Assemble("bench.s", ManyProcBody());
  uint64_t words = 0;
  for (auto _ : state) {
    LivenessInfo live = ComputeLiveness(obj);
    benchmark::DoNotOptimize(live.live_in.data());
    words += live.live_in.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(words));
}
BENCHMARK(BM_Liveness);

// Full scavenging instrumentation (liveness + rewrite; original text words
// instrumented per second).
void BM_ScavengeRewrite(benchmark::State& state) {
  ObjectFile obj = Assemble("bench.s", ManyProcBody());
  EpoxieConfig config;
  config.scavenge = true;
  uint64_t words = 0;
  for (auto _ : state) {
    InstrumentResult res = Instrument(obj, config);
    benchmark::DoNotOptimize(res.instrumented_text_words);
    words += res.original_text_words;
  }
  state.SetItemsProcessed(static_cast<int64_t>(words));
}
BENCHMARK(BM_ScavengeRewrite);

void BM_VerifyObject(benchmark::State& state) {
  ObjectFile obj = Assemble("bench.s", kBody);
  EpoxieConfig config;
  InstrumentResult res = Instrument(obj, config);
  VerifyOptions options;
  options.epoxie = config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyInstrumentedObject(obj, res, options));
  }
}
BENCHMARK(BM_VerifyObject);

void BM_TracedExecution(benchmark::State& state) {
  BareBuild build = BuildBareTraced(kBody);
  for (auto _ : state) {
    BareTraceRun run = RunBareTraced(build);
    benchmark::DoNotOptimize(run.trace_words.size());
  }
}
BENCHMARK(BM_TracedExecution);

void BM_UntracedExecution(benchmark::State& state) {
  BareBuild build = BuildBareTraced(kBody);
  uint64_t instructions = 0;
  for (auto _ : state) {
    RunResult run = RunBareOriginal(build);
    instructions += run.instructions;
    benchmark::DoNotOptimize(run.cycles);
  }
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
}
BENCHMARK(BM_UntracedExecution);

// addiu t0, t0, 1; bne t0, zero, -2; nop — an endless counted spin in
// kseg0, entirely fetch + ALU + branch.
void LoadSpinLoop(Machine& machine) {
  machine.PhysWrite32(0x1000, 0x25080001);  // addiu $t0, $t0, 1
  machine.PhysWrite32(0x1004, 0x1500fffe);  // bne $t0, $zero, .-4
  machine.PhysWrite32(0x1008, 0x00000000);  // nop
  machine.SetPc(kKseg0 + 0x1000);
}

// Raw Step-dispatch throughput: the spin loop stepped directly, with no
// run-loop bookkeeping, link step, or halt handling in the timing.  Run
// calls Step per instruction only with the fast path off, so this times the
// machine WRL_FASTPATH=0 runs.
void BM_MachineStepLoop(benchmark::State& state) {
  MachineConfig config;
  config.fastpath = false;
  Machine machine(config);
  LoadSpinLoop(machine);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      machine.Step();
    }
    benchmark::DoNotOptimize(machine.cycles());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MachineStepLoop);

// The production dispatch loop on the same spin: Run executes it a page at
// a time (MachineConfig::fastpath).
void BM_MachineRunLoop(benchmark::State& state) {
  Machine machine(MachineConfig{});
  LoadSpinLoop(machine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.Run(1024).cycles);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MachineRunLoop);

// The trace of a small real system run — gcc under Ultrix at scale 0.05,
// traced and parsed by the harness's own set-up — built once, in process,
// when the first trace-layer or analysis bench needs it (no checked-in
// fixture): the chunks the traced system published, in order, and the
// reference stream the parser reconstructed from them.  The measured
// system supplies the page map and original text images, as in
// RunExperiment; the traced system stays alive for its block tables.
struct SystemTrace {
  std::unique_ptr<SystemInstance> measured;
  std::unique_ptr<SystemInstance> traced;
  PredictorConfig pconfig;
  std::vector<std::vector<uint32_t>> chunks;
  uint64_t words = 0;
  std::vector<TraceRef> refs;
};

SystemConfig GccSystemConfig(bool tracing) {
  return ExperimentSystemConfig(PaperWorkload("gcc", 0.05), ExperimentOptions{}, tracing);
}

SystemTrace BuildGccSystemTrace() {
  SystemTrace trace;
  const ExperimentOptions options;
  trace.measured = BuildSystem(GccSystemConfig(false));
  trace.pconfig = ExperimentPredictorConfig(*trace.measured, options);
  trace.traced = BuildSystem(GccSystemConfig(true));
  std::unique_ptr<TraceParser> parser = SystemTraceParser(*trace.traced);
  RefFnSink collect([&trace](const TraceRef& ref) { trace.refs.push_back(ref); });
  parser->SetBatchSink(&collect);
  trace.traced->SetTraceSink([&trace, &parser](const uint32_t* words, size_t count) {
    trace.chunks.emplace_back(words, words + count);
    trace.words += count;
    parser->Feed(words, count);
  });
  trace.traced->Run(options.max_instructions);
  parser->Finish();
  return trace;
}

const SystemTrace& GccSystemTrace() {
  static const SystemTrace trace = BuildGccSystemTrace();
  return trace;
}

// Appends a trace's chunks, in order, to a TraceLog or an archive.
template <typename Store>
void AppendChunks(const SystemTrace& trace, Store& store) {
  for (const std::vector<uint32_t>& chunk : trace.chunks) {
    store.Append(chunk.data(), chunk.size());
  }
}

// Takes every batch and does nothing with it.
class DiscardSink : public RefBatchSink {
 public:
  void OnRefBatch(const TraceRef*, size_t) override {}
};

// The trace layer over the gcc trace: the parser alone, writing every
// reference into its batches as each real parse does, into a sink that
// discards them.  Items are references.
void BM_TraceParse(benchmark::State& state) {
  const SystemTrace& trace = GccSystemTrace();
  DiscardSink discard;
  uint64_t refs = 0;
  for (auto _ : state) {
    std::unique_ptr<TraceParser> parser = SystemTraceParser(*trace.traced);
    parser->SetBatchSink(&discard);
    for (const std::vector<uint32_t>& chunk : trace.chunks) {
      parser->Feed(chunk.data(), chunk.size());
    }
    parser->Finish();
    refs += parser->stats().refs;
  }
  state.SetItemsProcessed(static_cast<int64_t>(refs));
}
BENCHMARK(BM_TraceParse);

// The memory system alone on the gcc trace's references: each ifetch,
// load and store through one MemorySystem, at the physical address the
// primary simulator gives it.  The addresses are translated once, outside
// the timed loop; the clock advances a cycle per ifetch plus every stall.
// Items are references.
void BM_CacheSim(benchmark::State& state) {
  const SystemTrace& trace = GccSystemTrace();
  struct Access {
    uint32_t paddr;
    TraceRef::Kind kind;
    bool uncached;
  };
  PageTranslator translator(trace.pconfig.page_map);
  std::vector<Access> accesses;
  accesses.reserve(trace.refs.size());
  for (const TraceRef& ref : trace.refs) {
    accesses.push_back({translator.Translate(ref), ref.kind, InKseg1(ref.addr)});
  }
  MemorySystem ms(MemSysConfig{});
  uint64_t now = 0;
  for (auto _ : state) {
    for (const Access& a : accesses) {
      switch (a.kind) {
        case TraceRef::kIfetch:
          now += 1 + (a.uncached ? ms.UncachedLoad(a.paddr, now) : ms.Fetch(a.paddr, now));
          break;
        case TraceRef::kLoad:
          now += a.uncached ? ms.UncachedLoad(a.paddr, now) : ms.Load(a.paddr, now);
          break;
        case TraceRef::kStore:
          now += a.uncached ? ms.UncachedStore(a.paddr, now) : ms.Store(a.paddr, now);
          break;
      }
    }
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(accesses.size()));
}
BENCHMARK(BM_CacheSim);

// The parser's innermost dependency: one dense-index probe per block key.
// The keys are the gcc trace's own, in trace order, each looked up in the
// table of the context that recorded it.  The fixture finds them by feeding
// the trace a word at a time: a word that starts a block is a key, and the
// references it rebuilds name its context.  Items are keys.
void BM_TraceTableLookup(benchmark::State& state) {
  const SystemTrace& trace = GccSystemTrace();
  std::map<uint8_t, const TraceInfoTable*> tables = {
      {kKernelPid, &trace.traced->kernel_table()}};
  for (const SystemInstance::UserSpace& space : trace.traced->user_spaces()) {
    tables[space.pid] = space.table;
  }
  struct Lookup {
    const TraceInfoTable* table;
    uint32_t key;
  };
  std::vector<Lookup> lookups;
  std::unique_ptr<TraceParser> parser = SystemTraceParser(*trace.traced);
  TraceRef last{};
  RefFnSink watch([&last](const TraceRef& ref) { last = ref; });
  parser->SetBatchSink(&watch, 1);
  for (const std::vector<uint32_t>& chunk : trace.chunks) {
    for (uint32_t word : chunk) {
      const uint64_t blocks = parser->stats().blocks;
      parser->Feed(&word, 1);
      if (parser->stats().blocks != blocks) {
        lookups.push_back({tables.at(last.pid), word});
      }
    }
  }
  uint64_t found = 0;
  for (auto _ : state) {
    for (const Lookup& lookup : lookups) {
      found += lookup.table->Find(lookup.key) != nullptr;
    }
  }
  benchmark::DoNotOptimize(found);
  if (found != static_cast<uint64_t>(state.iterations()) * lookups.size()) {
    state.SkipWithError("a key of the trace was not found in its context's table");
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(lookups.size()));
}
BENCHMARK(BM_TraceTableLookup);

// A replay of the gcc trace from a TraceLog through ReplayEngine into a
// TlbSimulator: decode, parse and batched delivery, as `wrltrace replay`
// runs it.  Items are references delivered.  Timed in real time: with the
// pipeline on, the simulator runs on the engine's analysis thread, outside
// the timing thread's CPU time.
void BM_ReplayBatched(benchmark::State& state) {
  const SystemTrace& trace = GccSystemTrace();
  TraceLog log;
  AppendChunks(trace, log);
  ReplaySource source;
  source.log = &log;
  source.kernel_table = &trace.traced->kernel_table();
  for (const SystemInstance::UserSpace& space : trace.traced->user_spaces()) {
    source.user_tables.emplace_back(space.pid, space.table);
  }
  ReplayEngine engine(std::move(source));
  const std::vector<ReplayEngine::Config> configs = {
      {"tlb", [] { return std::make_unique<TlbSimulator>(); }}};
  uint64_t delivered = 0;
  for (auto _ : state) {
    std::vector<ReplayEngine::Outcome> outcomes = engine.Run(configs);
    if (outcomes[0].refs != trace.refs.size()) {
      state.SkipWithError("the replay did not deliver the live parse's references");
      break;
    }
    delivered += outcomes[0].refs;
    benchmark::DoNotOptimize(static_cast<TlbSimulator&>(*outcomes[0].sink).stats().utlb_misses);
  }
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
}
BENCHMARK(BM_ReplayBatched)->UseRealTime();

// The pipelined trace transport end to end: the gcc trace's chunks pushed
// through the SPSC ring while the consumer thread runs the parser.  Items
// are trace words, so this tracks the transport's sustainable drain
// bandwidth (ring copy + handoff + parse), the quantity that bounds how far
// the traced machine can outrun the analysis.  Timed in real time: the
// parse runs on the consumer thread, outside the timing thread's CPU time.
void BM_PipelineDrain(benchmark::State& state) {
  const SystemTrace& trace = GccSystemTrace();
  uint64_t pushed = 0;
  for (auto _ : state) {
    std::unique_ptr<TraceParser> parser = SystemTraceParser(*trace.traced);
    TracePipeline pipeline([&parser](const uint32_t* w, size_t n) { parser->Feed(w, n); });
    for (const std::vector<uint32_t>& chunk : trace.chunks) {
      pipeline.Produce(chunk.data(), chunk.size());
    }
    pipeline.Finish();
    parser->Finish();
    pushed += trace.words;
    benchmark::DoNotOptimize(parser->stats().refs);
  }
  state.SetItemsProcessed(static_cast<int64_t>(pushed));
}
BENCHMARK(BM_PipelineDrain)->UseRealTime();

// Raw TraceLog unpack throughput: varint+delta decode of the packed gcc
// capture into trace words, the per-chunk work every TraceLog replay does.
void BM_TraceLogDecode(benchmark::State& state) {
  TraceLog log;
  AppendChunks(GccSystemTrace(), log);
  uint64_t decoded = 0;
  for (auto _ : state) {
    uint64_t words = 0;
    log.Replay([&](const uint32_t*, size_t n) { words += n; });
    decoded += words;
    benchmark::DoNotOptimize(words);
  }
  state.SetItemsProcessed(static_cast<int64_t>(decoded));
}
BENCHMARK(BM_TraceLogDecode);

// A scratch path under /tmp for the archive benches; each bench writes,
// reads, and removes its own file so concurrent invocations don't collide.
std::string BenchArchivePath(const char* tag) {
  return StrFormat("/tmp/wrl_bench_%s_%d.wrl", tag, static_cast<int>(getpid()));
}

// Full archive write path on the gcc trace: delta+varint chunk encode, CRC,
// and the per-chunk flush to disk.  Items are trace words persisted, so this
// tracks the sustainable tee bandwidth RunExperiment's archive_path adds to
// a live capture.  Timed on real time: each pass ends in Finalize()'s
// fsync, which CPU time does not see.
void BM_ArchiveWrite(benchmark::State& state) {
  const SystemTrace& trace = GccSystemTrace();
  std::string path = BenchArchivePath("write");
  uint64_t written = 0;
  for (auto _ : state) {
    ArchiveWriter writer(path, {{"workload", "gcc"}});
    AppendChunks(trace, writer);
    writer.Finalize();
    written += writer.words();
    benchmark::DoNotOptimize(writer.bytes_written());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(written));
}
BENCHMARK(BM_ArchiveWrite)->UseRealTime();

// Archive decode throughput off the mmap'd file: per-chunk CRC check plus
// the bounded varint+delta decode — the per-chunk work every archive
// replay does.  Directly comparable to BM_TraceLogDecode; the
// delta is the cost of checksumming and untrusted-input bounds checks.
void BM_ArchiveDecode(benchmark::State& state) {
  std::string path = BenchArchivePath("decode");
  {
    ArchiveWriter writer(path, {{"workload", "gcc"}});
    AppendChunks(GccSystemTrace(), writer);
    writer.Finalize();
  }
  ArchiveReader reader(path);
  uint64_t decoded = 0;
  for (auto _ : state) {
    uint64_t words = 0;
    reader.Replay([&](const uint32_t*, size_t n) { words += n; });
    decoded += words;
    benchmark::DoNotOptimize(words);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(decoded));
}
BENCHMARK(BM_ArchiveDecode);

// The sweep engine's one pass over a realistic mixed stream, pricing an
// 8-point I-cache family, an 8-point D-cache family, and a 64-entry TLB
// curve at once.  Items are (refs × family points): the equivalent-replay
// rate, directly comparable to BM_ReplayBatched's per-config items rate.
void BM_SweepSim(benchmark::State& state) {
  Rng rng(19);
  std::vector<TraceRef> refs(4096);
  for (size_t i = 0; i < refs.size(); ++i) {
    TraceRef r{};
    r.kind = (i % 4 == 3) ? TraceRef::kLoad : TraceRef::kIfetch;
    r.bytes = 4;
    r.pid = 1;
    r.addr = rng.Below(1u << 24);
    refs[i] = r;
  }
  SweepConfig config;
  config.icache.push_back({16, 4096, 512 * 1024});
  config.dcache.push_back({4, 4096, 512 * 1024});
  config.tlb_max_entries = 64;
  uint64_t points = 0;
  {
    SweepEngine probe(config);
    probe.OnRefBatch(refs.data(), refs.size());
    points = probe.Finish().family_points;
  }
  for (auto _ : state) {
    SweepEngine sweep(config);
    sweep.OnRefBatch(refs.data(), refs.size());
    benchmark::DoNotOptimize(sweep.Finish().icache.front().misses);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(refs.size() * points));
}
BENCHMARK(BM_SweepSim);

// The Fenwick-tree stack-distance kernel alone, on a working set large
// enough to exercise timestamp-window compaction.
void BM_StackDistance(benchmark::State& state) {
  Rng rng(29);
  std::vector<uint64_t> keys(4096);
  for (auto& key : keys) {
    key = rng.Below(600);
  }
  StackDistanceProfiler profiler;
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint64_t key : keys) {
      sum += profiler.Access(key);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_StackDistance);

// The TLB simulator over a real trace, where nearly every lookup hits.
void BM_TlbSim(benchmark::State& state) {
  const std::vector<TraceRef>& refs = GccSystemTrace().refs;
  for (auto _ : state) {
    TlbSimulator tlb;
    tlb.OnRefBatch(refs.data(), refs.size());
    benchmark::DoNotOptimize(tlb.stats().utlb_misses);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(refs.size()));
}
BENCHMARK(BM_TlbSim);

// Random loads over 64 MB: nearly every reference misses, so this keeps the
// refill and handler-synthesis path measured.
void BM_TlbSimAllMiss(benchmark::State& state) {
  TlbSimulator tlb;
  Rng rng(7);
  std::vector<TraceRef> refs(4096);
  for (auto& r : refs) {
    r = {rng.Below(1u << 26), TraceRef::kLoad, 4, 1, false, false};
  }
  for (auto _ : state) {
    for (const TraceRef& r : refs) {
      benchmark::DoNotOptimize(tlb.OnRef(r));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(refs.size()));
}
BENCHMARK(BM_TlbSimAllMiss);

// The primary simulator (TLB, page map, caches, arithmetic stalls) with
// the harness's configuration over the same real trace.
void BM_PredictorSim(benchmark::State& state) {
  const SystemTrace& trace = GccSystemTrace();
  for (auto _ : state) {
    std::unique_ptr<TraceDrivenSimulator> sim = ExperimentSimulator(*trace.measured, trace.pconfig);
    sim->OnRefBatch(trace.refs.data(), trace.refs.size());
    benchmark::DoNotOptimize(sim->Finish().mem_stall_cycles);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.refs.size()));
}
BENCHMARK(BM_PredictorSim);

// The sweep engine over the same real trace, pricing the I-family
// {16-byte lines, 16-32 KB} and D-family {4-byte lines, 16-32 KB} (the
// geometries of figure3-whatif's cache variants) and the 64-entry LRU TLB
// curve.  Items are references.
void BM_SweepSimTrace(benchmark::State& state) {
  const SystemTrace& trace = GccSystemTrace();
  SweepConfig config;
  config.page_map = trace.pconfig.page_map;
  config.tlb_wired = trace.pconfig.tlb_wired;
  config.icache.push_back({16, 16 * 1024, 32 * 1024});
  config.dcache.push_back({4, 16 * 1024, 32 * 1024});
  config.tlb_max_entries = 64;
  for (auto _ : state) {
    SweepEngine sweep(config);
    sweep.OnRefBatch(trace.refs.data(), trace.refs.size());
    benchmark::DoNotOptimize(sweep.Finish().icache.front().misses);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.refs.size()));
}
BENCHMARK(BM_SweepSimTrace);

// The attribution profiler with the harness's spaces and default options
// over the same real trace.  Items are references.
void BM_ProfilerSim(benchmark::State& state) {
  const SystemTrace& trace = GccSystemTrace();
  for (auto _ : state) {
    TraceProfiler profiler;
    ProfileSystemSpaces(profiler, *trace.traced);
    profiler.OnRefBatch(trace.refs.data(), trace.refs.size());
    benchmark::DoNotOptimize(profiler.Finish().totals.block_entries);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.refs.size()));
}
BENCHMARK(BM_ProfilerSim);

// The traced machine itself, on the system GccSystemTrace parses: user-mode
// translation, the alternation between the program's pages and the trace
// buffer that memtrace's stores cause, UTLB refills, and the drain.  None
// of the bare-program machine benches touches user-mode translation.  The
// build is outside the timed region; items are simulated instructions.
// `host_share` is the share of bbtrace and memtrace entries the machine ran
// as host intrinsics rather than interpreting them.
void BM_TracedSystemRun(benchmark::State& state) {
  const SystemConfig config = GccSystemConfig(true);
  const uint64_t max_instructions = ExperimentOptions{}.max_instructions;
  uint64_t instructions = 0;
  uint64_t entries = 0;
  uint64_t host = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<SystemInstance> traced = BuildSystem(config);
    state.ResumeTiming();
    RunResult run = traced->Run(max_instructions);
    if (!run.halted) {
      state.SkipWithError("the traced system did not halt");
      return;
    }
    instructions += run.instructions;
    benchmark::DoNotOptimize(run.cycles);
    state.PauseTiming();
    const TraceRoutineCounts& routines = traced->machine().trace_routine_counts();
    entries += routines.entries[0] + routines.entries[1];
    host += routines.host[0] + routines.host[1];
    traced.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
  state.counters["host_share"] =
      entries > 0 ? static_cast<double>(host) / static_cast<double>(entries) : 0.0;
}
BENCHMARK(BM_TracedSystemRun);

// Console output as usual, but every finished run is also captured so the
// --json report can be emitted afterwards.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      runs_.push_back(run);
    }
    ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

}  // namespace
}  // namespace wrl

int main(int argc, char** argv) {
  std::string json_path = wrl::BenchJsonPath(argc, argv);
  // Strip the wrl-side flags before google-benchmark sees (and rejects)
  // them; everything else passes through to benchmark::Initialize.
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      ++i;
    } else if (arg.rfind("--json=", 0) != 0) {
      args.push_back(argv[i]);
    }
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) {
    return 1;
  }
  wrl::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    std::map<std::string, double> metrics;
    for (const auto& run : reporter.runs()) {
      if (run.error_occurred) {
        continue;
      }
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (c == '/' || c == ':') {
          c = '_';
        }
      }
      metrics["micro." + name + ".real_ns"] = run.GetAdjustedRealTime();
      metrics["micro." + name + ".cpu_ns"] = run.GetAdjustedCPUTime();
      // items_per_second, and any counter of the bench's own.
      for (const auto& [counter, value] : run.counters) {
        metrics["micro." + name + "." + counter] = value;
      }
    }
    try {
      wrl::WriteMetricsReport(json_path, "bench_micro", metrics, {});
    } catch (const wrl::Error& e) {
      fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    fprintf(stderr, "wrote metrics report to %s\n", json_path.c_str());
  }
  return 0;
}
