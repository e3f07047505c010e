// Tests for the trace-attribution profiler (src/prof): cursor-mirror
// attribution on synthetic streams, working-set/page math, symbolization
// edge cases, the wrlprof/1 payload schema, and the bit-identity contract —
// the same trace profiled live, streamed from a capture, per-ref, and
// through the experiment harness at any jobs count must produce
// byte-identical profiles.
#include "prof/prof.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/bare_runtime.h"
#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "harness/report.h"
#include "support/json.h"
#include "support/rng.h"
#include "trace/trace_log.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

// Its lookup memos point into its own tables.
static_assert(!std::is_copy_constructible_v<TraceProfiler>);

// ---- Synthetic streams -------------------------------------------------
//
// The profiler consumes TraceRefs, so synthetic tests feed the parser's
// output shape directly: per the parser's emission contract, an ifetch run
// is contiguous up to (and including) a memory instruction's fetch, then
// the data reference arrives, then the run resumes.

TraceRef Ifetch(uint32_t addr, uint8_t pid = 1) {
  return {addr, TraceRef::kIfetch, 4, pid, pid == kKernelPid, false};
}
TraceRef Load(uint32_t addr, uint8_t pid = 1) {
  return {addr, TraceRef::kLoad, 4, pid, pid == kKernelPid, false};
}
TraceRef Store(uint32_t addr, uint8_t pid = 1) {
  return {addr, TraceRef::kStore, 4, pid, pid == kKernelPid, false};
}

// Two user blocks: A = 2 insts, no mem ops; B = 3 insts, load at index 1.
TraceInfoTable MakeUserTable() {
  TraceInfoTable table;
  table.Add(0x10000010, {0x00400000, 2, 0, {}, 8});
  table.Add(0x10000040, {0x00400100, 3, 0, {{1, false, 4}}, 9});
  return table;
}

const BlockProfile* FindBlock(const Profile& profile, uint8_t pid, uint32_t addr) {
  for (const BlockProfile& b : profile.blocks) {
    if (b.pid == pid && b.addr == addr) {
      return &b;
    }
  }
  return nullptr;
}

TEST(TraceProfiler, AttributesBlocksAndMemOps) {
  TraceInfoTable table = MakeUserTable();
  TraceProfiler prof;
  prof.AddTable(1, &table);
  std::vector<TraceRef> refs = {
      Ifetch(0x00400000), Ifetch(0x00400004),                      // A
      Ifetch(0x00400100), Ifetch(0x00400104), Load(0x00500000),    // B: fetch0,
      Ifetch(0x00400108),                                          // fetch1, load, fetch2
      Ifetch(0x00400000), Ifetch(0x00400004),                      // A again
  };
  prof.OnRefBatch(refs.data(), refs.size());
  Profile profile = prof.Finish();

  EXPECT_EQ(profile.totals.refs, refs.size());
  EXPECT_EQ(profile.totals.insts, 7u);
  EXPECT_EQ(profile.totals.loads, 1u);
  EXPECT_EQ(profile.totals.stores, 0u);
  EXPECT_EQ(profile.totals.block_entries, 3u);
  EXPECT_EQ(profile.totals.unattributed_insts, 0u);
  EXPECT_EQ(profile.totals.unattributed_data, 0u);

  const BlockProfile* a = FindBlock(profile, 1, 0x00400000);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->entries, 2u);
  EXPECT_EQ(a->insts, 4u);
  EXPECT_EQ(a->loads, 0u);
  EXPECT_EQ(a->num_insts, 2u);
  EXPECT_EQ(a->instr_words, 8u);
  // One trace word (the key) per entry, no data words.
  EXPECT_EQ(a->TraceWords(), 2u);
  // Each entry executes instr_words - num_insts inserted instructions.
  EXPECT_EQ(a->OverheadInsts(), 2u * (8 - 2));

  const BlockProfile* b = FindBlock(profile, 1, 0x00400100);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->entries, 1u);
  EXPECT_EQ(b->insts, 3u);
  EXPECT_EQ(b->loads, 1u);
  EXPECT_EQ(b->TraceWords(), 2u);  // key + one data word.

  // Dilation rollups are exactly the per-block sums.
  EXPECT_EQ(profile.totals.trace_words, a->TraceWords() + b->TraceWords());
  EXPECT_EQ(profile.totals.overhead_insts, a->OverheadInsts() + b->OverheadInsts());
}

TEST(TraceProfiler, NestedEntryOnAwaitingCursor) {
  // KA = 3 insts with a load at index 1; KB = 2 insts.  KB interrupts KA at
  // its data-await point (the parser's nested-exception shape); KA's load
  // data arrives after KB completes and must still charge to KA.
  TraceInfoTable table;
  table.Add(0x10000010, {0x80003000, 3, 0, {{1, false, 4}}, 10});
  table.Add(0x10000040, {0x80003100, 2, 0, {}, 7});
  TraceProfiler prof;
  prof.AddTable(kKernelPid, &table);
  std::vector<TraceRef> refs = {
      Ifetch(0x80003000, kKernelPid), Ifetch(0x80003004, kKernelPid),  // KA awaiting
      Ifetch(0x80003100, kKernelPid), Ifetch(0x80003104, kKernelPid),  // KB nested
      Load(0x80400000, kKernelPid),                                    // KA's data
      Ifetch(0x80003008, kKernelPid),                                  // KA resumes
  };
  prof.OnRefBatch(refs.data(), refs.size());
  Profile profile = prof.Finish();

  EXPECT_EQ(profile.totals.unattributed_insts, 0u);
  EXPECT_EQ(profile.totals.unattributed_data, 0u);
  const BlockProfile* ka = FindBlock(profile, kKernelPid, 0x80003000);
  const BlockProfile* kb = FindBlock(profile, kKernelPid, 0x80003100);
  ASSERT_NE(ka, nullptr);
  ASSERT_NE(kb, nullptr);
  EXPECT_EQ(ka->entries, 1u);
  EXPECT_EQ(ka->insts, 3u);
  EXPECT_EQ(ka->loads, 1u);
  EXPECT_EQ(kb->entries, 1u);
  EXPECT_EQ(kb->insts, 2u);
  EXPECT_EQ(kb->loads, 0u);
  EXPECT_EQ(profile.totals.kernel_insts, 5u);
  EXPECT_EQ(profile.totals.user_insts, 0u);
}

TEST(TraceProfiler, UnattributedIsCountedNeverGuessed) {
  TraceInfoTable table = MakeUserTable();
  TraceProfiler prof;
  prof.AddTable(1, &table);
  std::vector<TraceRef> refs = {
      Ifetch(0x00700000),  // No such leader.
      Load(0x00500000),    // No cursor awaits data.
      Store(0x00500004),   // Likewise.
  };
  prof.OnRefBatch(refs.data(), refs.size());
  Profile profile = prof.Finish();
  EXPECT_EQ(profile.totals.unattributed_insts, 1u);
  EXPECT_EQ(profile.totals.unattributed_data, 2u);
  EXPECT_EQ(profile.totals.block_entries, 0u);
  EXPECT_TRUE(profile.blocks.empty());
  // Pages still tally every reference — the heatmap never drops refs.
  uint64_t page_total = 0;
  for (const PageProfile& p : profile.pages) {
    page_total += p.Total();
  }
  EXPECT_EQ(page_total, 3u);
}

TEST(TraceProfiler, WorkingSetWindowsAndTail) {
  ProfileOptions options;
  options.window_refs = 4;
  options.page_bytes = 4096;
  TraceProfiler prof(options);
  // Window 1: pages 0,0,1,1 -> 2 unique.  Window 2: pages 2,3,4,5 -> 4.
  // Tail: pages 0,0 -> 1 unique over 2 refs.
  std::vector<TraceRef> refs = {
      Load(0x0000), Load(0x0100), Load(0x1000), Load(0x1200),
      Load(0x2000), Load(0x3000), Load(0x4000), Load(0x5000),
      Load(0x0000), Load(0x0200),
  };
  prof.OnRefBatch(refs.data(), refs.size());
  Profile profile = prof.Finish();
  ASSERT_EQ(profile.working_set.size(), 3u);
  EXPECT_EQ(profile.working_set[0], 2u);
  EXPECT_EQ(profile.working_set[1], 4u);
  EXPECT_EQ(profile.working_set[2], 1u);
  EXPECT_EQ(profile.window_refs, 4u);
  EXPECT_EQ(profile.tail_refs, 2u);
}

// ---- Pages and the working-set curve against a brute-force recount ----

// Profiles `refs` and checks the page heatmap against one std::map entry
// per (pid, page) and the working-set curve against one std::set per
// window, both recounted from the raw stream.
void ExpectPagesAndWorkingSetMatchRecount(TraceProfiler& prof, const std::vector<TraceRef>& refs) {
  prof.OnRefBatch(refs.data(), refs.size());
  const Profile profile = prof.Finish();
  const uint32_t page_mask = ~(prof.options().page_bytes - 1);
  using Key = std::pair<uint8_t, uint32_t>;
  std::map<Key, std::array<uint64_t, 3>> pages;
  std::vector<uint64_t> working_set;
  std::set<Key> window;
  uint64_t fill = 0;
  for (const TraceRef& r : refs) {
    const Key key{r.pid, r.addr & page_mask};
    ++pages[key][r.kind];
    window.insert(key);
    if (++fill == prof.options().window_refs) {
      working_set.push_back(window.size());
      window.clear();
      fill = 0;
    }
  }
  if (fill > 0) {
    working_set.push_back(window.size());
  }
  std::map<Key, std::array<uint64_t, 3>> got;
  for (const PageProfile& p : profile.pages) {
    EXPECT_TRUE(got.emplace(Key{p.pid, p.page_addr},
                            std::array<uint64_t, 3>{p.ifetches, p.loads, p.stores})
                    .second);
  }
  EXPECT_EQ(got, pages);
  EXPECT_EQ(profile.working_set, working_set);
  EXPECT_EQ(profile.tail_refs, fill);
  EXPECT_EQ(profile.totals.refs, refs.size());
}

TEST(TraceProfiler, PagesAndWorkingSetMatchRecountOnCollidingStream) {
  // Four spaces taking turns every 1-4 references, each touching 300 pages
  // spread over its address space: far more (pid, page) keys than the page
  // memo or the working-set filter has slots, so both keep colliding, and
  // 64-reference windows close hundreds of times.
  ProfileOptions options;
  options.window_refs = 64;
  TraceProfiler prof(options);
  const uint8_t pids[] = {1, 2, 3, kKernelPid};
  Rng rng(31);
  std::vector<TraceRef> refs;
  while (refs.size() < 40000) {
    const uint8_t pid = pids[rng.Below(4)];
    for (uint32_t n = 1 + rng.Below(4); n > 0; --n) {
      // A small hot set and a wide cold one, at page offsets that vary.
      const uint32_t page = rng.Below(4) == 0 ? rng.Below(300) : rng.Below(6);
      const uint32_t addr = page * 0x00013000u + 4 * rng.Below(1024);
      const TraceRef::Kind kind = static_cast<TraceRef::Kind>(rng.Below(3));
      refs.push_back({addr, kind, 4, pid, pid == kKernelPid, false});
    }
  }
  ExpectPagesAndWorkingSetMatchRecount(prof, refs);
}

TEST(TraceProfiler, PagesAndWorkingSetMatchRecountOnMachSystemTrace) {
  // A real system trace with two user spaces (the workload and the UNIX
  // server) beside the kernel.
  WorkloadSpec workload = PaperWorkload("eqntott", 0.02);
  ExperimentOptions options;
  options.personality = Personality::kMach;
  std::unique_ptr<SystemInstance> traced =
      BuildSystem(ExperimentSystemConfig(workload, options, true));
  ASSERT_EQ(traced->user_spaces().size(), 2u);
  std::unique_ptr<TraceParser> parser = SystemTraceParser(*traced);
  std::vector<TraceRef> refs;
  RefFnSink collect([&refs](const TraceRef& r) { refs.push_back(r); });
  parser->SetBatchSink(&collect);
  traced->SetTraceSink(
      [p = parser.get()](const uint32_t* words, size_t count) { p->Feed(words, count); });
  ASSERT_TRUE(traced->Run(options.max_instructions).halted);
  parser->Finish();
  ASSERT_EQ(parser->stats().validation_errors, 0u);

  ProfileOptions profile_options;
  profile_options.window_refs = 4096;
  TraceProfiler prof(profile_options);
  ProfileSystemSpaces(prof, *traced);
  ExpectPagesAndWorkingSetMatchRecount(prof, refs);
}

TEST(TraceProfiler, PageBoundaryBlockSplitsHeatmap) {
  // A block whose two instructions straddle a page boundary: its ifetches
  // must land on both pages.
  TraceInfoTable table;
  table.Add(0x10000010, {0x00400ffc, 2, 0, {}, 6});
  TraceProfiler prof;
  prof.AddTable(1, &table);
  std::vector<TraceRef> refs = {Ifetch(0x00400ffc), Ifetch(0x00401000)};
  prof.OnRefBatch(refs.data(), refs.size());
  Profile profile = prof.Finish();
  EXPECT_EQ(profile.totals.unattributed_insts, 0u);
  ASSERT_EQ(profile.pages.size(), 2u);
  uint64_t pages_seen = 0;
  for (const PageProfile& p : profile.pages) {
    EXPECT_EQ(p.ifetches, 1u);
    pages_seen |= p.page_addr;
  }
  EXPECT_EQ(pages_seen, 0x00400000u | 0x00401000u);
  const BlockProfile* b = FindBlock(profile, 1, 0x00400ffc);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->insts, 2u);
}

TEST(TraceProfiler, SymbolizationAndStrippedFallback) {
  TraceProfiler prof;
  prof.AddSymbol(1, "main", 0x00400000);
  prof.AddSymbol(1, "helper", 0x00400100);
  EXPECT_EQ(prof.Symbolize(1, 0x00400000), "main");
  EXPECT_EQ(prof.Symbolize(1, 0x00400010), "main+0x10");
  EXPECT_EQ(prof.Symbolize(1, 0x00400100), "helper");
  EXPECT_EQ(prof.Symbolize(1, 0x004001fc), "helper+0xfc");
  // Below every symbol, and in a space with no symbols at all (stripped
  // image): plain hex, never a wrong name.
  EXPECT_EQ(prof.Symbolize(1, 0x003ffffc), "0x003ffffc");
  EXPECT_EQ(prof.Symbolize(2, 0x00400000), "0x00400000");

  // Stripped space: blocks roll up under [unknown].
  TraceInfoTable table = MakeUserTable();
  TraceProfiler stripped;
  stripped.AddTable(2, &table);
  std::vector<TraceRef> refs = {Ifetch(0x00400000, 2), Ifetch(0x00400004, 2)};
  stripped.OnRefBatch(refs.data(), refs.size());
  Profile profile = stripped.Finish();
  ASSERT_EQ(profile.symbols.size(), 1u);
  EXPECT_EQ(profile.symbols[0].name, "[unknown]");
  EXPECT_EQ(profile.symbols[0].insts, 2u);
}

TEST(TraceProfiler, KernelUserAliasingKeepsSpacesDistinct) {
  // The same virtual leader address in two address spaces must produce two
  // independent block tallies (and feed the kernel/user split correctly).
  TraceInfoTable kernel_table;
  kernel_table.Add(0x10000010, {0x00400000, 2, 0, {}, 6});
  TraceInfoTable user_table;
  user_table.Add(0x20000010, {0x00400000, 3, 0, {}, 7});
  TraceProfiler prof;
  prof.AddTable(kKernelPid, &kernel_table);
  prof.AddTable(1, &user_table);
  prof.AddSymbol(kKernelPid, "khot", 0x00400000);
  prof.AddSymbol(1, "uhot", 0x00400000);
  std::vector<TraceRef> refs = {
      Ifetch(0x00400000, kKernelPid), Ifetch(0x00400004, kKernelPid),
      Ifetch(0x00400000, 1), Ifetch(0x00400004, 1), Ifetch(0x00400008, 1),
  };
  prof.OnRefBatch(refs.data(), refs.size());
  Profile profile = prof.Finish();
  EXPECT_EQ(profile.totals.unattributed_insts, 0u);
  const BlockProfile* k = FindBlock(profile, kKernelPid, 0x00400000);
  const BlockProfile* u = FindBlock(profile, 1, 0x00400000);
  ASSERT_NE(k, nullptr);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(k->insts, 2u);
  EXPECT_EQ(k->symbol, "khot");
  EXPECT_EQ(u->insts, 3u);
  EXPECT_EQ(u->symbol, "uhot");
  EXPECT_EQ(profile.totals.kernel_insts, 2u);
  EXPECT_EQ(profile.totals.user_insts, 3u);
}

TEST(TraceProfiler, FoldedStacksFormat) {
  TraceInfoTable table = MakeUserTable();
  TraceProfiler prof;
  prof.AddTable(1, &table);
  prof.SetSpaceName(1, "work");
  prof.AddSymbol(1, "main", 0x00400000);
  std::vector<TraceRef> refs = {Ifetch(0x00400000), Ifetch(0x00400004)};
  prof.OnRefBatch(refs.data(), refs.size());
  std::string folded = prof.Finish().FoldedStacks();
  EXPECT_EQ(folded, "work;main;block_0x00400000 2\n");
}

TEST(TraceProfiler, JsonPayloadSchema) {
  TraceInfoTable table = MakeUserTable();
  TraceProfiler prof;
  prof.AddTable(1, &table);
  std::vector<TraceRef> refs = {
      Ifetch(0x00400100), Ifetch(0x00400104), Load(0x00500000), Ifetch(0x00400108),
  };
  prof.OnRefBatch(refs.data(), refs.size());
  Profile profile = prof.Finish();
  JsonValue doc = ParseJson(profile.CanonicalJson());
  ASSERT_TRUE(doc.IsObject());
  const JsonValue* totals = doc.Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->At("refs").number, 4.0);
  EXPECT_EQ(totals->At("insts").number, 3.0);
  EXPECT_EQ(totals->At("loads").number, 1.0);
  EXPECT_EQ(totals->At("unattributed_insts").number, 0.0);
  const JsonValue* blocks = doc.Find("blocks");
  ASSERT_NE(blocks, nullptr);
  ASSERT_EQ(blocks->array.size(), 1u);
  EXPECT_EQ(blocks->array[0].At("addr").string, "0x00400100");
  EXPECT_EQ(blocks->array[0].At("insts").number, 3.0);
  ASSERT_NE(doc.Find("symbols"), nullptr);
  ASSERT_NE(doc.Find("pages"), nullptr);
  ASSERT_NE(doc.Find("working_set"), nullptr);
  ASSERT_NE(doc.Find("page_bytes"), nullptr);

  // The `top` cap truncates the tables but never the totals or the curve.
  JsonWriter capped(0);
  profile.WriteJson(capped, 1);
  JsonValue capped_doc = ParseJson(capped.TakeString());
  EXPECT_EQ(capped_doc.At("blocks").array.size(), 1u);
  EXPECT_EQ(capped_doc.At("totals").At("refs").number, 4.0);
}

// ---- Bit-identity on a real trace --------------------------------------

// A deterministic body with a loop, loads, and stores: enough trace volume
// to exercise batching and attribution without being slow.
const char* kBody = R"(
        .globl main
main:
        addiu $sp, $sp, -16
        sw   $ra, 12($sp)
        la   $t0, data
        li   $t1, 0
        li   $t2, 64
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

std::unique_ptr<TraceProfiler> MakeBareProfiler(const BareBuild& build) {
  auto prof = std::make_unique<TraceProfiler>();
  prof->AddTable(kKernelPid, &build.table);
  prof->AddSymbols(kKernelPid, build.original);
  return prof;
}

TEST(TraceProfiler, LiveReplayAndPerRefProfilesBitIdentical) {
  BareBuild build = BuildBareTraced(kBody);
  BareTraceRun run = RunBareTraced(build);
  ASSERT_FALSE(run.trace_words.empty());

  // Live: the profiler sits behind the parser as its batch sink.
  auto live = MakeBareProfiler(build);
  TraceParser parser(&build.table);
  parser.SetInitialContext(kKernelPid);
  parser.SetBatchSink(live.get());
  parser.Feed(run.trace_words);
  parser.Finish();
  ASSERT_TRUE(parser.errors().empty());
  Profile live_profile = live->Finish();

  // Replay: the same words packed into a TraceLog and streamed by the
  // engine to a profiler config, beside a config collecting the stream.
  TraceLog log;
  log.Append(run.trace_words.data(), run.trace_words.size());
  ReplaySource source;
  source.log = &log;
  source.kernel_table = &build.table;
  ReplayEngine engine(std::move(source));
  std::vector<TraceRef> refs;
  std::vector<ReplayEngine::Outcome> outcomes = engine.Run(
      {{"profile", [&build] { return MakeBareProfiler(build); }},
       {"collect", [&refs] {
          return std::make_unique<RefFnSink>([&refs](const TraceRef& r) { refs.push_back(r); });
        }}});
  ASSERT_FALSE(refs.empty());
  EXPECT_EQ(refs.size(), parser.stats().refs);
  Profile replay_profile = static_cast<TraceProfiler*>(outcomes[0].sink.get())->Finish();

  // Per-ref: one reference at a time through OnRef.
  auto perref = MakeBareProfiler(build);
  for (const TraceRef& r : refs) {
    perref->OnRef(r);
  }
  Profile perref_profile = perref->Finish();

  std::string canonical = live_profile.CanonicalJson();
  EXPECT_EQ(canonical, replay_profile.CanonicalJson());
  EXPECT_EQ(canonical, perref_profile.CanonicalJson());
  EXPECT_EQ(live_profile.FoldedStacks(), replay_profile.FoldedStacks());

  // Exact reconciliation against the parser's own counters.
  const TraceParserStats& stats = parser.stats();
  EXPECT_EQ(live_profile.totals.refs, stats.refs);
  EXPECT_EQ(live_profile.totals.insts, stats.ifetches);
  EXPECT_EQ(live_profile.totals.loads, stats.loads);
  EXPECT_EQ(live_profile.totals.stores, stats.stores);
  EXPECT_EQ(live_profile.totals.block_entries, stats.blocks);
  EXPECT_EQ(live_profile.totals.idle_insts, stats.idle_instructions);
  EXPECT_EQ(live_profile.totals.unattributed_insts, 0u);
  EXPECT_EQ(live_profile.totals.unattributed_data, 0u);

  // Per-block instruction totals sum exactly to the machine counter.
  uint64_t block_insts = 0;
  for (const BlockProfile& b : live_profile.blocks) {
    block_insts += b.insts;
  }
  EXPECT_EQ(block_insts, stats.ifetches);
}

// ---- Experiment harness ------------------------------------------------

// A profiled experiment: the profile reconciles with the run's own parser
// counters, and the wrlstats/1 run report embeds it.
TEST(ExperimentProfile, LiveVsCaptureReplayBitIdentical) {
  WorkloadSpec workload = PaperWorkload("sed", 0.05);
  ExperimentOptions options;
  options.profile = true;

  ExperimentResult live = RunExperiment(workload, options);
  ASSERT_GT(live.profile.totals.refs, 0u);

  // The wrlstats counters and the profile describe the same stream.
  EXPECT_EQ(live.profile.totals.refs, live.stats.CounterValue("parser.refs"));
  EXPECT_EQ(live.profile.totals.insts, live.stats.CounterValue("parser.ifetches"));
  EXPECT_EQ(live.profile.totals.block_entries, live.stats.CounterValue("parser.blocks"));
  EXPECT_EQ(live.profile.totals.unattributed_insts, 0u);
  EXPECT_EQ(live.profile.totals.unattributed_data, 0u);

  // The wrlstats/1 run report embeds the profile, top-N capped, with the
  // totals agreeing with the report's own parser counters.
  RunReportOptions report_options;
  report_options.profile_top = 3;
  JsonValue report = ParseJson(RunReportJson({live}, {}, report_options));
  const JsonValue& experiment = report.At("experiments").array.at(0);
  const JsonValue& profile = experiment.At("profile");
  EXPECT_LE(profile.At("blocks").array.size(), 3u);
  EXPECT_EQ(profile.At("totals").At("refs").number,
            experiment.At("counters").At("parser.refs").number);
}

TEST(ExperimentProfile, SuiteJobsInvariance) {
  std::vector<WorkloadSpec> all = PaperWorkloads(0.05);
  // Two cheap workloads are enough to exercise the worker pool.
  std::vector<WorkloadSpec> workloads(all.begin(), all.begin() + 2);
  ExperimentOptions options;
  options.profile = true;

  std::vector<ExperimentResult> serial = RunSuite(workloads, options);
  options.jobs = 2;
  std::vector<ExperimentResult> parallel = RunSuite(workloads, options);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_GT(serial[i].profile.totals.refs, 0u) << workloads[i].name;
    EXPECT_EQ(serial[i].profile.CanonicalJson(), parallel[i].profile.CanonicalJson())
        << workloads[i].name;
  }
}

}  // namespace
}  // namespace wrl
