// Unit tests for the wrlstats observability layer: the counter registry,
// the log-scale histogram, the event timeline, and the regression check
// that the registry snapshot agrees with components' existing accessors.
#include "stats/stats.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>

#include "stats/events.h"
#include "support/error.h"
#include "support/json.h"
#include "tests/test_util.h"
#include "trace/parser.h"

namespace wrl {
namespace {

TEST(Counter, BehavesLikeUint64) {
  Counter c;
  EXPECT_EQ(c, 0u);
  ++c;
  c += 10;
  EXPECT_EQ(c, 11u);
  --c;
  c -= 5;
  EXPECT_EQ(c.value(), 5u);
  c = 42;
  EXPECT_EQ(static_cast<uint64_t>(c) >> 1, 21u);
  c.Reset();
  EXPECT_EQ(c, 0u);
}

TEST(Histogram, Log2Bucketing) {
  Histogram h;
  h.Record(0);  // Bucket 0: exact zeros.
  h.Record(1);  // Bucket 1: [1, 2).
  h.Record(2);  // Bucket 2: [2, 4).
  h.Record(3);
  h.Record(4);  // Bucket 3: [4, 8).
  h.Record(1024);  // Bucket 11: [1024, 2048).
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1034u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.buckets()[11], 1u);
  EXPECT_EQ(h.UsedBuckets(), 12u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.UsedBuckets(), 0u);
}

TEST(StatsRegistry, RegisterLookupSnapshotReset) {
  StatsRegistry registry;
  Counter counter = 7;
  uint64_t raw = 3;
  double gauge_value = 1.5;
  registry.AddCounter("a.counter", &counter);
  registry.AddCounter("a.raw", &raw);
  registry.AddGauge("a.gauge", [&] { return gauge_value; });
  Histogram* owned = registry.AddHistogram("a.hist");
  owned->Record(16);

  EXPECT_TRUE(registry.Has("a.counter"));
  EXPECT_FALSE(registry.Has("missing"));
  EXPECT_EQ(registry.size(), 4u);
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"a.counter", "a.gauge", "a.hist", "a.raw"}));
  EXPECT_EQ(registry.CounterValue("a.counter"), 7u);
  EXPECT_EQ(registry.CounterValue("a.raw"), 3u);
  EXPECT_THROW(registry.CounterValue("missing"), Error);
  EXPECT_THROW(registry.CounterValue("a.gauge"), Error);

  // The snapshot is a point-in-time copy: later mutations don't show.
  StatsSnapshot snap = registry.Snapshot();
  counter += 100;
  gauge_value = 9;
  EXPECT_EQ(snap.CounterValue("a.counter"), 7u);
  EXPECT_EQ(snap.CounterValue("a.raw"), 3u);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("a.gauge"), 1.5);
  const StatValue* hist = snap.Find("a.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, StatValue::Kind::kHistogram);
  EXPECT_EQ(hist->hist_count, 1u);
  EXPECT_EQ(hist->hist_sum, 16u);

  registry.ResetAll();
  EXPECT_EQ(counter, 0u);
  EXPECT_EQ(raw, 0u);
  EXPECT_EQ(owned->count(), 0u);
}

TEST(StatsRegistry, ReRegisteringReplacesBinding) {
  StatsRegistry registry;
  Counter first = 1;
  Counter second = 2;
  registry.AddCounter("x", &first);
  registry.AddCounter("x", &second);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.CounterValue("x"), 2u);
}

TEST(StatsSnapshot, WriteJsonIsWellFormed) {
  StatsRegistry registry;
  Counter counter = 5;
  registry.AddCounter("c", &counter);
  registry.AddGauge("g", [] { return 2.25; });
  registry.AddHistogram("h")->Record(3);
  StatsSnapshot snap = registry.Snapshot();

  JsonWriter writer(0);
  snap.WriteJson(writer);
  JsonValue v = ParseJson(writer.TakeString());
  EXPECT_DOUBLE_EQ(v.At("c").number, 5.0);
  EXPECT_DOUBLE_EQ(v.At("g").number, 2.25);
  EXPECT_DOUBLE_EQ(v.At("h").At("count").number, 1.0);
  EXPECT_DOUBLE_EQ(v.At("h").At("mean").number, 3.0);
  EXPECT_TRUE(v.At("h").At("log2_buckets").IsArray());
}

TEST(EventRecorder, NestingAndCompletionOrder) {
  EventRecorder recorder;
  uint64_t cycles = 100;
  recorder.SetCycleSource([&] { return cycles; });
  recorder.Begin("outer", "phase");
  cycles = 150;
  recorder.Begin("inner", "phase");
  cycles = 175;
  EXPECT_EQ(recorder.open_scopes(), 2u);
  recorder.End();  // inner
  recorder.Instant("tick", "event", "n", 7);
  cycles = 200;
  recorder.End();  // outer
  EXPECT_EQ(recorder.open_scopes(), 0u);

  // Completion order: inner closes first.
  ASSERT_EQ(recorder.events().size(), 3u);
  const TimelineEvent& inner = recorder.events()[0];
  const TimelineEvent& tick = recorder.events()[1];
  const TimelineEvent& outer = recorder.events()[2];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.cycle_start, 150u);
  EXPECT_EQ(inner.cycle_dur, 25u);
  EXPECT_TRUE(tick.instant);
  EXPECT_TRUE(tick.has_arg);
  EXPECT_EQ(tick.arg_name, "n");
  EXPECT_EQ(tick.arg, 7u);
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(outer.cycle_start, 100u);
  EXPECT_EQ(outer.cycle_dur, 100u);
}

TEST(EventRecorder, ChromeTraceJsonIsWellFormed) {
  EventRecorder recorder;
  {
    EventRecorder::Scope scope(&recorder, "build", "phase");
    recorder.Instant("drain", "trace", "words", 512);
  }
  {
    EventRecorder::Scope noop(nullptr, "ignored");  // Null recorder: no-op.
  }
  JsonValue v = ParseJson(recorder.ChromeTraceJson());
  const JsonValue& events = v.At("traceEvents");
  ASSERT_TRUE(events.IsArray());
  ASSERT_EQ(events.array.size(), 2u);
  EXPECT_EQ(events.array[0].At("name").string, "drain");
  EXPECT_EQ(events.array[0].At("ph").string, "i");
  EXPECT_DOUBLE_EQ(events.array[0].At("args").At("words").number, 512.0);
  EXPECT_EQ(events.array[1].At("name").string, "build");
  EXPECT_EQ(events.array[1].At("ph").string, "X");
  EXPECT_TRUE(events.array[1].Has("dur"));
}

// Two threads record nested scopes and instants into one recorder at once.
// Each lands on a track of its own with its own nesting depth, and every
// track is well nested.
TEST(EventRecorder, ThreadsRecordOnTracksOfTheirOwn) {
  EventRecorder recorder;
  constexpr int kRounds = 200;
  auto record = [&recorder](const std::string& tag) {
    for (int i = 0; i < kRounds; ++i) {
      EventRecorder::Scope outer(&recorder, tag + ".outer");
      EventRecorder::Scope inner(&recorder, tag + ".inner");
      recorder.Instant(tag + ".tick", "event", "i", static_cast<uint64_t>(i));
    }
    EXPECT_EQ(recorder.open_scopes(), 0u);
  };
  std::thread a(record, "a");
  std::thread b(record, "b");
  a.join();
  b.join();

  std::map<std::string, std::set<uint32_t>> tids;
  std::map<std::string, size_t> counts;
  for (const TimelineEvent& e : recorder.events()) {
    tids[e.name].insert(e.tid);
    ++counts[e.name];
    const bool outer = e.name.ends_with(".outer");
    EXPECT_EQ(e.depth, outer ? 0 : e.instant ? 2 : 1) << e.name;
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [name, count] : counts) {
    EXPECT_EQ(count, static_cast<size_t>(kRounds)) << name;
    EXPECT_EQ(tids[name].size(), 1u) << name;
  }
  EXPECT_EQ(tids["a.outer"], tids["a.tick"]);
  EXPECT_EQ(tids["b.outer"], tids["b.inner"]);
  EXPECT_NE(*tids["a.outer"].begin(), *tids["b.outer"].begin());
  EXPECT_EQ(ImproperlyNestedPairs(recorder.events()), 0u);

  // The rendered report carries each thread's track as its Chrome tid.
  JsonValue v = ParseJson(recorder.ChromeTraceJson());
  std::set<double> rendered;
  for (const JsonValue& e : v.At("traceEvents").array) {
    rendered.insert(e.At("tid").number);
  }
  EXPECT_EQ(rendered, (std::set<double>{static_cast<double>(*tids["a.outer"].begin()),
                                         static_cast<double>(*tids["b.outer"].begin())}));
}

// A thread's track number and the wall clock are the same in every
// recorder, so timelines concatenate without offsets.
TEST(EventRecorder, RecordersShareTracksAndClock) {
  EventRecorder first;
  EventRecorder second;
  { EventRecorder::Scope scope(&first, "first"); }
  { EventRecorder::Scope scope(&second, "second"); }
  const TimelineEvent& a = first.events().at(0);
  const TimelineEvent& b = second.events().at(0);
  EXPECT_EQ(a.tid, b.tid);
  EXPECT_LE(a.wall_start_us + a.wall_dur_us, b.wall_start_us);
  EXPECT_LE(b.wall_start_us + b.wall_dur_us, EventRecorder::NowUs());
}

// A scoped cycle source stamps only the events its thread records inside
// the scope, and is gone once the scope ends, whether it ends normally or
// unwinds through an exception; a nested scope restores the outer source.
TEST(EventRecorder, ScopedCycleSourceEndsWithItsScope) {
  EventRecorder recorder;
  {
    EventRecorder::CycleScope outer(&recorder, [] { return uint64_t{42}; });
    recorder.Instant("outer");
    {
      EventRecorder::CycleScope inner(&recorder, [] { return uint64_t{7}; });
      recorder.Instant("inner");
    }
    recorder.Instant("outer.again");
    std::thread([&recorder] { recorder.Instant("other.thread"); }).join();
  }
  recorder.Instant("after");
  try {
    EventRecorder::CycleScope doomed(&recorder, [] { return uint64_t{99}; });
    EventRecorder::Scope scope(&recorder, "doomed");
    throw Error("unwind");
  } catch (const Error&) {
  }
  recorder.Instant("after.throw");
  EXPECT_EQ(recorder.open_scopes(), 0u);
  { EventRecorder::CycleScope noop(nullptr, [] { return uint64_t{1}; }); }

  std::map<std::string, uint64_t> cycles;
  for (const TimelineEvent& e : recorder.events()) {
    cycles[e.name] = e.cycle_start;
  }
  EXPECT_EQ(cycles, (std::map<std::string, uint64_t>{{"outer", 42},
                                                     {"inner", 7},
                                                     {"outer.again", 42},
                                                     {"other.thread", 0},
                                                     {"after", 0},
                                                     {"doomed", 99},
                                                     {"after.throw", 0}}));
}

// Regression: the registry snapshot of a run machine agrees with the
// existing accessors — converting the members to Counter changed nothing.
TEST(StatsIntegration, MachineAccessorsAgreeWithSnapshot) {
  auto machine = RunBareProgram(R"(
        .globl _start
_start: li   $t0, 10
loop:   addiu $t0, $t0, -1
        bgtz $t0, loop
        nop
        li   $t9, 0xbfd00004     # HALT register
        sw   $zero, 0($t9)
spin:   b    spin
        nop
)");
  StatsRegistry registry;
  machine->RegisterStats(registry);
  StatsSnapshot snap = registry.Snapshot();
  EXPECT_GT(machine->cycles(), 0u);
  EXPECT_EQ(snap.CounterValue("machine.cycles"), machine->cycles());
  EXPECT_EQ(snap.CounterValue("machine.instructions"), machine->instructions());
  EXPECT_EQ(snap.CounterValue("machine.user_instructions"), machine->user_instructions());
  EXPECT_EQ(snap.CounterValue("machine.kernel_instructions"), machine->kernel_instructions());
  EXPECT_EQ(snap.CounterValue("machine.idle_instructions"), machine->idle_instructions());
  EXPECT_EQ(snap.CounterValue("machine.utlb_miss_exceptions"),
            machine->utlb_miss_exceptions());
}

// Every exception code the machine raises has its own registry counter,
// equal to the accessor: the program raises each code at least once.
TEST(StatsIntegration, EveryExceptionCodeReachesTheRegistry) {
  ObjectFile obj = Assemble("exc.s", R"(
        .globl _start
        .globl ri
utlb:   mfc0 $k0, $epc           # TLB refill: skip the access
        addiu $k0, $k0, 4
        jr   $k0
        rfe
        .align 128
gen:    mfc0 $k0, $cause
        andi $k0, $k0, 0x7c
        bne  $k0, $zero, skip
        nop
        li   $k1, 0xbfd00000     # an interrupt: stop and ack the clock
        sw   $zero, 0x10($k1)
        sw   $zero, 0x14($k1)
        mfc0 $k0, $epc
        jr   $k0
        rfe
skip:   mfc0 $k0, $epc           # anything else: skip the instruction
        addiu $k0, $k0, 4
        jr   $k0
        rfe
        .align 512
_start: li   $t1, 0xbfd00000
        li   $t0, 50
        sw   $t0, 0x10($t1)      # clock period 50
        li   $t0, 0x8001         # IM7 | IEc
        mtc0 $t0, $status
        li   $t2, 100
wait:   addiu $t2, $t2, -1       # Int
        bne  $t2, $zero, wait
        nop
        mtc0 $zero, $status
        mtc0 $zero, $entryhi     # user page 0 -> pfn 0x100, valid, clean
        li   $t1, 0x00100200
        mtc0 $t1, $entrylo
        mtc0 $zero, $index
        tlbwi
        sw   $zero, 0x10($zero)  # Mod
        li   $t2, 0x5000
        lw   $t3, 0($t2)         # TLBL
        sw   $t3, 0($t2)         # TLBS
        li   $t2, 0x80100001
        lw   $t3, 0($t2)         # AdEL
        sw   $t3, 0($t2)         # AdES
        syscall                  # Sys
        break 1                  # Bp
ri:     nop                      # RI: patched to an invalid word
        li   $t4, 0x7fffffff
        add  $t5, $t4, $t4       # Ov
        li   $t9, 0xbfd00004
        sw   $zero, 0($t9)
spin:   b    spin
        nop
)");
  LinkOptions options;
  options.text_base = kKseg0;
  const Executable exe = Link({obj}, options);
  Machine machine(MachineConfig{});
  LoadBare(machine, exe);
  machine.PhysWrite32(exe.SymbolAddress("ri") - kKseg0, 0xfc000000);  // Opcode 0x3f.
  machine.Run(100'000);
  ASSERT_TRUE(machine.halted());
  StatsRegistry registry;
  machine.RegisterStats(registry);
  StatsSnapshot snap = registry.Snapshot();
  const std::pair<Exc, const char*> codes[] = {
      {Exc::kInt, "interrupts"},          {Exc::kMod, "tlb_mod"},
      {Exc::kTlbL, "tlb_load"},           {Exc::kTlbS, "tlb_store"},
      {Exc::kAdEL, "addr_error_load"},    {Exc::kAdES, "addr_error_store"},
      {Exc::kSys, "syscalls"},            {Exc::kBp, "breaks"},
      {Exc::kRI, "reserved_instruction"}, {Exc::kOv, "overflow"},
  };
  for (const auto& [code, name] : codes) {
    SCOPED_TRACE(name);
    EXPECT_EQ(machine.exception_count(code), 1u);
    EXPECT_EQ(snap.CounterValue(std::string("machine.exc.") + name), machine.exception_count(code));
  }
}

// Same agreement check for the trace parser over a synthetic stream.
TEST(StatsIntegration, ParserStatsAgreeWithSnapshot) {
  TraceInfoTable table;
  table.Add(0x10000010, {0x00400000, 2, 0, {}, 0});
  table.Add(0x10000040, {0x00400100, 3, 0, {{1, false, 4}}, 0});

  TraceParser parser(&table);
  parser.SetUserTable(1, &table);
  parser.SetInitialContext(1);
  StatsRegistry registry;
  parser.RegisterStats(registry);
  parser.Feed({0x10000010, 0x10000040, 0x00500000});
  parser.Finish();

  StatsSnapshot snap = registry.Snapshot();
  const TraceParserStats& s = parser.stats();
  EXPECT_GT(s.refs, 0u);
  EXPECT_EQ(snap.CounterValue("parser.words"), s.words);
  EXPECT_EQ(snap.CounterValue("parser.blocks"), s.blocks);
  EXPECT_EQ(snap.CounterValue("parser.refs"), s.refs);
  EXPECT_EQ(snap.CounterValue("parser.ifetches"), s.ifetches);
  EXPECT_EQ(snap.CounterValue("parser.loads"), s.loads);
  EXPECT_EQ(snap.CounterValue("parser.validation_errors"), s.validation_errors);
}

}  // namespace
}  // namespace wrl
