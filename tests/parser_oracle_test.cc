// The parser oracle: TraceParser rebuilds a block at a time (a dense key
// index, one table per context, one write and one count per run of
// fetches), and ReferenceParser below is the per-reference parser it
// replaced.  The two must agree exactly — every TraceRef, every batch
// boundary, every marker handed to the meta sink, every counter, and every
// validation error in text and order — on the system traces of every paper
// workload under both personalities, on seeded damage to those traces, and
// on the hand-built tables of parser_test and parser_defense_test, and on
// a table of irregular blocks.  TraceInfoTable::Find is held to a std::map
// of the same blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "kernel/system_build.h"
#include "stats/stats.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"
#include "tests/parser_tables.h"
#include "trace/parser.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

// ---------------------------------------------------------------------------
// The per-reference parser: TraceParser as it was before it parsed a block
// at a time.  Each reference goes through EmitRef, which counts it and
// appends it to the batch; each key looks its context's table up by pid.
// Keys resolve through a std::map of each table's blocks(), so a fault in
// the dense index cannot hide in both parsers at once.

class ReferenceParser {
 public:
  explicit ReferenceParser(const TraceInfoTable* kernel_table) : kernel_table_(kernel_table) {}

  void SetUserTable(uint8_t pid, const TraceInfoTable* table) { user_tables_[pid] = table; }
  void SetBatchSink(RefBatchSink* sink, size_t capacity) {
    FlushBatch();
    batch_sink_ = sink;
    batch_capacity_ = capacity == 0 ? 1 : capacity;
    batch_.reserve(batch_capacity_);
  }
  void FlushBatch() {
    if (batch_sink_ == nullptr || batch_.empty()) {
      return;
    }
    batch_sink_->OnRefBatch(batch_.data(), batch_.size());
    batch_.clear();
  }
  void SetMetaSink(std::function<void(MarkerCode, uint32_t)> sink) {
    meta_sink_ = std::move(sink);
  }
  void SetInitialContext(uint8_t pid) { pid_ = pid; }

  void Feed(const uint32_t* words, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      uint32_t word = words[i];
      ++stats_.words;
      if (expecting_operand_) {
        HandleOperand(word);
      } else if (IsMarkerWord(word)) {
        HandleMarker(word);
      } else if (cursor_.active()) {
        HandleData(word);
      } else {
        HandleKey(word);
      }
    }
  }

  void Finish() {
    FlushBatch();
    if (expecting_operand_) {
      RecordError("trace ends inside a marker");
    }
    if (cursor_.active()) {
      RecordError(StrFormat("trace ends with block 0x%08x in flight", cursor_.info->orig_addr));
    }
  }

  const TraceParserStats& stats() const { return stats_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct BlockCursor {
    const TraceBlockInfo* info = nullptr;
    uint32_t next_inst = 0;
    uint32_t next_mem = 0;
    bool active() const { return info != nullptr; }
  };

  struct Context {
    uint8_t pid = kKernelPid;
    BlockCursor cursor;
    bool idle = false;
  };

  const TraceInfoTable* CurrentTable() const {
    if (pid_ == kKernelPid) {
      return kernel_table_;
    }
    auto it = user_tables_.find(pid_);
    return it == user_tables_.end() ? nullptr : it->second;
  }

  const TraceBlockInfo* Lookup(const TraceInfoTable* table, uint32_t key) {
    auto [space, fresh] = spaces_.try_emplace(table);
    if (fresh) {
      for (const auto& [block_key, info] : table->blocks()) {
        space->second[block_key] = &info;
      }
    }
    auto it = space->second.find(key);
    return it == space->second.end() ? nullptr : it->second;
  }

  void RecordError(const std::string& message) {
    ++stats_.validation_errors;
    if (errors_.size() < 64) {
      errors_.push_back(message);
    }
  }

  void EmitRef(const TraceRef& ref) {
    ++stats_.refs;
    switch (ref.kind) {
      case TraceRef::kIfetch:
        ++stats_.ifetches;
        if (ref.kernel) {
          ++stats_.kernel_ifetches;
        } else {
          ++stats_.user_ifetches;
        }
        if (ref.idle) {
          ++stats_.idle_instructions;
        }
        break;
      case TraceRef::kLoad:
        ++stats_.loads;
        break;
      case TraceRef::kStore:
        ++stats_.stores;
        break;
    }
    if (batch_sink_ != nullptr) {
      batch_.push_back(ref);
      if (batch_.size() >= batch_capacity_) {
        FlushBatch();
      }
    }
  }

  void EmitFetches() {
    const TraceBlockInfo& info = *cursor_.info;
    bool kernel = pid_ == kKernelPid;
    while (cursor_.next_inst < info.num_insts) {
      uint32_t addr = info.orig_addr + 4 * cursor_.next_inst;
      if (kernel && addr < kKseg0) {
        RecordError(StrFormat("kernel instruction address 0x%08x outside kernel space", addr));
      }
      EmitRef({addr, TraceRef::kIfetch, 4, pid_, kernel, idle_});
      ++cursor_.next_inst;
      if (cursor_.next_mem < info.mem_ops.size() &&
          cursor_.next_inst - 1 == info.mem_ops[cursor_.next_mem].index) {
        return;
      }
    }
    if (cursor_.next_mem != info.mem_ops.size()) {
      RecordError(StrFormat("block 0x%08x completed with %zu of %zu memory ops", info.orig_addr,
                            static_cast<size_t>(cursor_.next_mem), info.mem_ops.size()));
    }
    cursor_ = BlockCursor{};
  }

  void HandleKey(uint32_t word) {
    if (cursor_.active()) {
      RecordError(StrFormat("new block key 0x%08x while block 0x%08x still expects %zu data words",
                            word, cursor_.info->orig_addr,
                            cursor_.info->mem_ops.size() - cursor_.next_mem));
      cursor_ = BlockCursor{};
    }
    const TraceInfoTable* table = CurrentTable();
    if (table == nullptr) {
      RecordError(StrFormat("trace from context %u with no lookup table", pid_));
      return;
    }
    const TraceBlockInfo* info = Lookup(table, word);
    if (info == nullptr) {
      RecordError(StrFormat("key 0x%08x is not a valid basic block for context %u", word, pid_));
      return;
    }
    ++stats_.blocks;
    if (info->flags & kBlockIdleStart) {
      idle_ = true;
    }
    if (info->flags & kBlockIdleStop) {
      idle_ = false;
    }
    cursor_.info = info;
    cursor_.next_inst = 0;
    cursor_.next_mem = 0;
    EmitFetches();
  }

  void HandleData(uint32_t word) {
    const TraceBlockInfo& info = *cursor_.info;
    const MemOpStatic& op = info.mem_ops[cursor_.next_mem];
    EmitRef({word, op.is_store ? TraceRef::kStore : TraceRef::kLoad, op.bytes, pid_,
             pid_ == kKernelPid, idle_});
    ++cursor_.next_mem;
    EmitFetches();
  }

  void HandleMarker(uint32_t word) {
    ++stats_.markers;
    MarkerCode code = MarkerCodeOf(word);
    if (MarkerOperands(code) > 0) {
      expecting_operand_ = true;
      pending_marker_ = code;
      return;
    }
    if (meta_sink_) {
      meta_sink_(code, 0);
    }
  }

  void HandleOperand(uint32_t word) {
    expecting_operand_ = false;
    MarkerCode code = pending_marker_;
    if (meta_sink_) {
      meta_sink_(code, word);
    }
    switch (code) {
      case kMarkKernelEnter: {
        Context ctx{pid_, cursor_, idle_};
        if (pid_ == kKernelPid) {
          kernel_stack_.push_back(ctx);
        } else {
          suspended_users_[pid_] = ctx;
          last_suspended_user_ = pid_;
        }
        pid_ = kKernelPid;
        cursor_ = BlockCursor{};
        idle_ = false;
        break;
      }
      case kMarkKernelExit: {
        uint8_t pid = static_cast<uint8_t>(word & 0xff);
        if (cursor_.active()) {
          RecordError(
              StrFormat("kernel exit with block 0x%08x in flight", cursor_.info->orig_addr));
          cursor_ = BlockCursor{};
        }
        if (pid == kKernelPid) {
          if (kernel_stack_.empty()) {
            if (last_suspended_user_ != kKernelPid &&
                suspended_users_.count(last_suspended_user_) != 0) {
              auto it = suspended_users_.find(last_suspended_user_);
              pid_ = it->second.pid;
              cursor_ = it->second.cursor;
              idle_ = it->second.idle;
              suspended_users_.erase(it);
              last_suspended_user_ = kKernelPid;
            } else {
              RecordError("kernel exit to kernel with empty nesting stack");
            }
            break;
          }
          Context ctx = kernel_stack_.back();
          kernel_stack_.pop_back();
          pid_ = ctx.pid;
          cursor_ = ctx.cursor;
          idle_ = ctx.idle;
        } else {
          auto it = suspended_users_.find(pid);
          if (it == suspended_users_.end()) {
            pid_ = pid;
            cursor_ = BlockCursor{};
            idle_ = false;
          } else {
            pid_ = it->second.pid;
            cursor_ = it->second.cursor;
            idle_ = it->second.idle;
            suspended_users_.erase(it);
          }
        }
        break;
      }
      default:
        break;
    }
  }

  const TraceInfoTable* kernel_table_;
  std::unordered_map<uint8_t, const TraceInfoTable*> user_tables_;
  std::map<const TraceInfoTable*, std::map<uint32_t, const TraceBlockInfo*>> spaces_;
  uint8_t pid_ = kKernelPid;
  BlockCursor cursor_;
  bool idle_ = false;
  std::unordered_map<uint8_t, Context> suspended_users_;
  std::vector<Context> kernel_stack_;
  uint8_t last_suspended_user_ = kKernelPid;
  bool expecting_operand_ = false;
  MarkerCode pending_marker_ = kMarkTraceOn;
  RefBatchSink* batch_sink_ = nullptr;
  size_t batch_capacity_ = kRefBatchCapacity;
  std::vector<TraceRef> batch_;
  std::function<void(MarkerCode, uint32_t)> meta_sink_;
  TraceParserStats stats_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Running both parsers on one input.

// The tables a parse resolves keys in, and the context it starts in.
struct Spaces {
  const TraceInfoTable* kernel = nullptr;
  std::vector<std::pair<uint8_t, const TraceInfoTable*>> users;
  uint8_t initial = kKernelPid;
};

using Chunks = std::vector<std::vector<uint32_t>>;

// Everything a parse hands out.
struct Parsed {
  std::vector<TraceRef> refs;
  std::vector<size_t> batch_sizes;
  std::vector<std::pair<MarkerCode, uint32_t>> metas;
  std::string stats;  // Every counter, as the registry binds them.
  std::vector<std::string> errors;
};

class RecordingSink : public RefBatchSink {
 public:
  explicit RecordingSink(Parsed& out) : out_(out) {}
  void OnRefBatch(const TraceRef* refs, size_t count) override {
    out_.refs.insert(out_.refs.end(), refs, refs + count);
    out_.batch_sizes.push_back(count);
  }

 private:
  Parsed& out_;
};

std::string StatsJson(TraceParserStats stats) {
  StatsRegistry registry;
  BindParserStats(registry, "parser.", &stats);
  JsonWriter writer(0);
  registry.Snapshot().WriteJson(writer);
  return writer.TakeString();
}

template <typename Parser>
Parsed Parse(const Spaces& spaces, const Chunks& chunks, size_t capacity) {
  Parsed out;
  Parser parser(spaces.kernel);
  for (const auto& [pid, table] : spaces.users) {
    parser.SetUserTable(pid, table);
  }
  parser.SetInitialContext(spaces.initial);
  RecordingSink sink(out);
  parser.SetBatchSink(&sink, capacity);
  parser.SetMetaSink([&out](MarkerCode code, uint32_t operand) {
    out.metas.emplace_back(code, operand);
  });
  for (const std::vector<uint32_t>& chunk : chunks) {
    parser.Feed(chunk.data(), chunk.size());
  }
  parser.Finish();
  out.stats = StatsJson(parser.stats());
  out.errors = parser.errors();
  return out;
}

bool SameRef(const TraceRef& a, const TraceRef& b) {
  return a.addr == b.addr && a.kind == b.kind && a.bytes == b.bytes && a.pid == b.pid &&
         a.kernel == b.kernel && a.idle == b.idle;
}

std::string Describe(const TraceRef& r) {
  return StrFormat("{0x%08x kind %d bytes %u pid %u kernel %d idle %d}", r.addr,
                   static_cast<int>(r.kind), r.bytes, r.pid, r.kernel ? 1 : 0, r.idle ? 1 : 0);
}

// Parses `chunks` with both parsers at `capacity` and requires identical
// output; returns the reference's, for callers that check it is not vacuous.
Parsed ExpectSameParse(const Spaces& spaces, const Chunks& chunks, size_t capacity) {
  SCOPED_TRACE("batch capacity " + std::to_string(capacity));
  Parsed want = Parse<ReferenceParser>(spaces, chunks, capacity);
  Parsed got = Parse<TraceParser>(spaces, chunks, capacity);
  EXPECT_EQ(got.refs.size(), want.refs.size());
  for (size_t i = 0; i < std::min(got.refs.size(), want.refs.size()); ++i) {
    if (!SameRef(got.refs[i], want.refs[i])) {
      ADD_FAILURE() << "reference " << i << ": got " << Describe(got.refs[i]) << ", want "
                    << Describe(want.refs[i]);
      break;
    }
  }
  EXPECT_TRUE(got.batch_sizes == want.batch_sizes)
      << got.batch_sizes.size() << " batches, want " << want.batch_sizes.size();
  EXPECT_TRUE(got.metas == want.metas) << got.metas.size() << " markers, want "
                                       << want.metas.size();
  EXPECT_EQ(got.stats, want.stats);
  EXPECT_EQ(got.errors, want.errors);
  return want;
}

// Every word from 4 below each key to 4 above it, aligned or not, and the
// ends of the address space: Find must agree with a std::map of the blocks.
void ExpectFindMatchesMap(const TraceInfoTable& table) {
  std::map<uint32_t, const TraceBlockInfo*> blocks;
  for (const auto& [key, info] : table.blocks()) {
    blocks[key] = &info;
  }
  ASSERT_EQ(blocks.size(), table.size());
  std::vector<uint32_t> words = {0, 1, 3, 4, 0xfffffffc, 0xfffffffd, 0xffffffff};
  for (const auto& entry : blocks) {
    for (uint32_t d = 0; d <= 8; ++d) {
      words.push_back(entry.first - 4 + d);
    }
  }
  size_t hits = 0;
  for (uint32_t word : words) {
    auto it = blocks.find(word);
    const TraceBlockInfo* want = it == blocks.end() ? nullptr : it->second;
    EXPECT_EQ(table.Find(word), want) << StrFormat("word 0x%08x", word);
    hits += want != nullptr;
  }
  EXPECT_GE(hits, blocks.size());
}

// ---------------------------------------------------------------------------
// Seeded damage.

// A marker word: one of the codes the ABI defines, or an undefined one.
uint32_t RandomMarker(Rng& rng) {
  return MakeMarker(static_cast<MarkerCode>(rng.Below(8)));
}

// A marker operand: a kernel-enter (pid << 8) | code, a bare pid the
// traced systems use (or the kernel's, or any byte), or any word.
uint32_t RandomOperand(Rng& rng) {
  static constexpr uint8_t kPids[] = {1, 2, kKernelPid};
  const uint32_t pid = rng.Below(4) == 0 ? rng.Below(256) : kPids[rng.Below(3)];
  switch (rng.Below(3)) {
    case 0:
      return (pid << 8) | rng.Below(16);
    case 1:
      return pid;
    default:
      return rng.Next32();
  }
}

// Applies one to four edits to `chunks`: drop a word, duplicate one, flip
// one of its bits, or insert a marker, an operand, or a marker with its
// operand.
Chunks Damage(const Chunks& chunks, Rng& rng) {
  Chunks out = chunks;
  const uint32_t edits = 1 + rng.Below(4);
  for (uint32_t e = 0; e < edits; ++e) {
    std::vector<uint32_t>& chunk = out[rng.Below(static_cast<uint32_t>(out.size()))];
    if (chunk.empty()) {
      continue;
    }
    const auto pos = chunk.begin() + rng.Below(static_cast<uint32_t>(chunk.size()));
    switch (rng.Below(6)) {
      case 0:
        chunk.erase(pos);
        break;
      case 1:
        chunk.insert(pos, *pos);
        break;
      case 2:
        *pos ^= 1u << rng.Below(32);
        break;
      case 3:
        chunk.insert(pos, RandomMarker(rng));
        break;
      case 4:
        chunk.insert(pos, RandomOperand(rng));
        break;
      default:
        chunk.insert(pos, {RandomMarker(rng), RandomOperand(rng)});
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The system traces of every paper workload, under both personalities.

struct SystemCapture {
  std::unique_ptr<SystemInstance> traced;
  Chunks chunks;
  Spaces spaces;
};

SystemCapture CaptureSystemTrace(const std::string& name, Personality personality) {
  ExperimentOptions options;
  options.personality = personality;
  SystemCapture capture;
  capture.traced = BuildSystem(ExperimentSystemConfig(PaperWorkload(name, 0.02), options, true));
  capture.traced->SetTraceSink([&capture](const uint32_t* words, size_t count) {
    capture.chunks.emplace_back(words, words + count);
  });
  RunResult run = capture.traced->Run(options.max_instructions);
  EXPECT_TRUE(run.halted);
  capture.spaces.kernel = &capture.traced->kernel_table();
  for (const SystemInstance::UserSpace& space : capture.traced->user_spaces()) {
    capture.spaces.users.emplace_back(space.pid, space.table);
  }
  return capture;
}

class SystemTraceOracle
    : public ::testing::TestWithParam<std::tuple<std::string, Personality>> {};

TEST_P(SystemTraceOracle, MatchesReferenceParser) {
  const auto& [name, personality] = GetParam();
  SystemCapture capture = CaptureSystemTrace(name, personality);
  ASSERT_FALSE(capture.chunks.empty());

  for (size_t capacity : {size_t{1}, size_t{3}, kRefBatchCapacity}) {
    Parsed want = ExpectSameParse(capture.spaces, capture.chunks, capacity);
    // Not vacuous: the clean trace rebuilds without a validation error,
    // and in several batches even at the default capacity.
    EXPECT_TRUE(want.errors.empty()) << want.errors.front();
    EXPECT_GT(want.batch_sizes.size(), 1u);
  }

  Rng rng(std::hash<std::string>{}(name) + static_cast<uint64_t>(personality));
  constexpr size_t kCapacities[] = {1, 3, kRefBatchCapacity};
  size_t damaged_with_errors = 0;
  for (int mutant = 0; mutant < 16; ++mutant) {
    SCOPED_TRACE("damaged trace " + std::to_string(mutant));
    Parsed want = ExpectSameParse(capture.spaces, Damage(capture.chunks, rng),
                                  kCapacities[rng.Below(3)]);
    damaged_with_errors += !want.errors.empty();
  }
  EXPECT_GT(damaged_with_errors, 0u);

  ExpectFindMatchesMap(capture.traced->kernel_table());
  for (const SystemInstance::UserSpace& space : capture.traced->user_spaces()) {
    ExpectFindMatchesMap(*space.table);
  }
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : PaperWorkloads(0.02)) {
    names.push_back(w.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SystemTraceOracle,
    ::testing::Combine(::testing::ValuesIn(WorkloadNames()),
                       ::testing::Values(Personality::kUltrix, Personality::kMach)),
    [](const ::testing::TestParamInfo<SystemTraceOracle::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == Personality::kMach ? "_mach" : "_ultrix");
    });

// ---------------------------------------------------------------------------
// The hand-built tables.

// The streams parser_test and parser_defense_test parse.
std::vector<std::vector<uint32_t>> UnitTestStreams() {
  return {
      {kKeyA},
      {kKeyC, 0x00500000, 0x00500010},
      {kKeyB, MakeMarker(kMarkKernelEnter), (1u << 8) | 0, kKeyKA, MakeMarker(kMarkKernelExit), 1,
       0x00600000},
      {MakeMarker(kMarkKernelEnter), (1u << 8) | 8, kKeyKB, MakeMarker(kMarkKernelEnter), 0xff00,
       kKeyKA, MakeMarker(kMarkKernelExit), 0xff, 0x80004000, MakeMarker(kMarkKernelExit), 1,
       kKeyA},
      {MakeMarker(kMarkKernelEnter), (1u << 8) | 0, MakeMarker(kMarkContextSwitch), 2,
       MakeMarker(kMarkKernelExit), 2, kKeyA, MakeMarker(kMarkKernelEnter), (2u << 8) | 8,
       MakeMarker(kMarkKernelExit), 1, kKeyB, 0x00700000},
      {kKeyIdle, kKeyIdle, kKeyStop, kKeyIdle},
      {kKeyIdle, MakeMarker(kMarkKernelEnter), 0xff08, kKeyKA, MakeMarker(kMarkKernelExit), 0xff,
       kKeyIdle},
      {0x12345678},
      {kKeyB, kKeyA, 0x00500000},
      {kKeyB},
      {MakeMarker(kMarkKernelEnter)},
      {kKeyKernelAtUser},
      {kKeyA, 0x13572468, kKeyA},
      {kKeyC, 0x00500000},
      {kKeyC, 0x00500000, 0x00500010, kKeyB, 0x00600000, kKeyA},
  };
}

// Blocks no instrumenter emits, which the parser must still take apart as
// the per-reference parser did: memory ops out of order, two at one
// instruction, one past the block's end, one in an empty block, a kernel
// block whose addresses wrap past 2^32 out of kernel space, and a block
// that both starts and stops the idle loop.
TraceInfoTable MakeIrregularTable() {
  TraceInfoTable table;
  table.Add(0x20000000, {0x80005000, 4, 0, {{2, false, 4}, {1, true, 4}}, 0});
  table.Add(0x20000004, {0x80005100, 3, 0, {{1, false, 2}, {1, false, 2}}, 0});
  table.Add(0x20000008, {0x80005200, 3, 0, {{5, true, 1}}, 0});
  table.Add(0x2000000c, {0x80005300, 0, 0, {{0, false, 4}}, 0});
  table.Add(0x20000010, {0xfffffff8, 4, 0, {{3, false, 4}}, 0});
  table.Add(0x20000014, {0x00400000, 2, kBlockIdleStart | kBlockIdleStop, {}, 0});
  return table;
}

// A random stream over `table`: mostly its keys and data words, with
// markers, operands, near-miss keys and arbitrary words mixed in.
std::vector<uint32_t> RandomStream(const TraceInfoTable& table, Rng& rng) {
  std::vector<uint32_t> keys;
  keys.reserve(table.size());
  for (const auto& entry : table.blocks()) {
    keys.push_back(entry.key);
  }
  std::vector<uint32_t> words(1 + rng.Below(64));
  for (uint32_t& word : words) {
    const uint32_t key = keys[rng.Below(static_cast<uint32_t>(keys.size()))];
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
        word = key;
        break;
      case 4:
      case 5:
        word = 0x00500000 + 4 * rng.Below(1024);
        break;
      case 6:
        word = RandomMarker(rng);
        break;
      case 7:
        word = RandomOperand(rng);
        break;
      case 8:
        word = key - 4 + rng.Below(9);
        break;
      default:
        word = rng.Next32();
        break;
    }
  }
  return words;
}

// Cuts `words` into chunks at random points, so Feed boundaries fall
// inside blocks and between markers and their operands.
Chunks RandomChunks(const std::vector<uint32_t>& words, Rng& rng) {
  Chunks chunks(1);
  for (uint32_t word : words) {
    if (rng.Below(8) == 0) {
      chunks.emplace_back();
    }
    chunks.back().push_back(word);
  }
  return chunks;
}

TEST(ParserOracle, HandBuiltTablesMatchReferenceParser) {
  TraceInfoTable user_blocks = MakeUserBlockTable();
  TraceInfoTable mixed = MakeMixedTable();
  TraceInfoTable kernel_at_user = MakeKernelAtUserTable();
  TraceInfoTable irregular = MakeIrregularTable();
  Rng rng(25);
  size_t kernel_space_errors = 0;
  for (const TraceInfoTable* table : {&user_blocks, &mixed, &kernel_at_user, &irregular}) {
    ExpectFindMatchesMap(*table);
    // One table for the kernel and both users, as the unit tests use them;
    // and no kernel table and no table for pid 2, so keys also land in
    // contexts without one.
    const std::vector<Spaces> setups = {
        {table, {{1, table}, {2, table}}, 1},
        {table, {{1, table}, {2, table}}, kKernelPid},
        {nullptr, {{1, table}}, 1},
    };
    for (const Spaces& spaces : setups) {
      SCOPED_TRACE(StrFormat("table of %zu blocks, initial context %u", table->size(),
                             spaces.initial));
      const std::vector<std::vector<uint32_t>> streams = UnitTestStreams();
      constexpr int kRandomStreams = 200;
      std::vector<Chunks> inputs;
      inputs.reserve(streams.size() + kRandomStreams);
      for (const std::vector<uint32_t>& words : streams) {
        inputs.push_back({words});
      }
      for (int i = 0; i < kRandomStreams; ++i) {
        inputs.push_back(RandomChunks(RandomStream(*table, rng), rng));
      }
      for (const Chunks& chunks : inputs) {
        for (size_t capacity : {size_t{1}, size_t{3}, kRefBatchCapacity}) {
          Parsed want = ExpectSameParse(spaces, chunks, capacity);
          for (const std::string& error : want.errors) {
            kernel_space_errors += error.find("outside kernel space") != std::string::npos;
          }
        }
      }
    }
  }
  // The streams reach the check that a kernel fetch lies in kernel space.
  EXPECT_GT(kernel_space_errors, 0u);
}

TEST(ParserOracle, EmptyTableFindsNothing) {
  TraceInfoTable table;
  ExpectFindMatchesMap(table);
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(0xffffffff), nullptr);
}

}  // namespace
}  // namespace wrl
