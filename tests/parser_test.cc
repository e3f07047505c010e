// Unit tests for the trace-parsing library on synthetic streams: block
// reconstruction and interleaving, marker handling, nesting, idle
// accounting, and the defensive checks — independent of any real system run.
#include "trace/parser.h"

#include <gtest/gtest.h>

#include "support/error.h"
#include "tests/parser_tables.h"

namespace wrl {
namespace {

struct Collected {
  std::vector<TraceRef> refs;
  TraceParserStats stats;
  std::vector<std::string> errors;
};

Collected Parse(const TraceInfoTable& table, const std::vector<uint32_t>& words,
                uint8_t initial = 1, const TraceInfoTable* kernel = nullptr) {
  Collected out;
  TraceParser parser(kernel ? kernel : &table);
  parser.SetUserTable(1, &table);
  parser.SetUserTable(2, &table);
  parser.SetInitialContext(initial);
  RefFnSink collect([&](const TraceRef& r) { out.refs.push_back(r); });
  parser.SetBatchSink(&collect);
  parser.Feed(words);
  parser.Finish();
  out.stats = parser.stats();
  out.errors = parser.errors();
  return out;
}

TEST(TraceParser, DatalessBlockEmitsFetches) {
  TraceInfoTable table = MakeMixedTable();
  Collected c = Parse(table, {kKeyA});
  ASSERT_TRUE(c.errors.empty()) << c.errors.front();
  ASSERT_EQ(c.refs.size(), 2u);
  EXPECT_EQ(c.refs[0].kind, TraceRef::kIfetch);
  EXPECT_EQ(c.refs[0].addr, 0x00400000u);
  EXPECT_EQ(c.refs[1].addr, 0x00400004u);
}

TEST(TraceParser, MemOpsInterleaveAtStaticPositions) {
  TraceInfoTable table = MakeMixedTable();
  Collected c = Parse(table, {kKeyC, 0x00500000, 0x00500010});
  ASSERT_TRUE(c.errors.empty()) << c.errors.front();
  // Expected order: fetch0, store, fetch1, fetch2, load, fetch3.
  ASSERT_EQ(c.refs.size(), 6u);
  EXPECT_EQ(c.refs[0].kind, TraceRef::kIfetch);
  EXPECT_EQ(c.refs[1].kind, TraceRef::kStore);
  EXPECT_EQ(c.refs[1].addr, 0x00500000u);
  EXPECT_EQ(c.refs[2].kind, TraceRef::kIfetch);
  EXPECT_EQ(c.refs[3].kind, TraceRef::kIfetch);
  EXPECT_EQ(c.refs[4].kind, TraceRef::kLoad);
  EXPECT_EQ(c.refs[4].addr, 0x00500010u);
  EXPECT_EQ(c.refs[4].bytes, 1u);
  EXPECT_EQ(c.refs[5].kind, TraceRef::kIfetch);
}

TEST(TraceParser, KernelEnterSuspendsPartialBlock) {
  TraceInfoTable table = MakeMixedTable();
  // Block B's load is interrupted by a kernel section, then completes.
  std::vector<uint32_t> words = {
      kKeyB,
      MakeMarker(kMarkKernelEnter), (1u << 8) | 0,  // pid 1, exc Int
      kKeyKA,                                       // kernel handler block
      MakeMarker(kMarkKernelExit), 1,               // back to pid 1
      0x00600000,                                   // B's pending load
  };
  Collected c = Parse(table, words);
  ASSERT_TRUE(c.errors.empty()) << c.errors.front();
  // B: fetch0, fetch1 (awaiting data) | kernel A: 2 fetches | load, fetch2.
  ASSERT_EQ(c.refs.size(), 6u);
  EXPECT_FALSE(c.refs[0].kernel);
  EXPECT_TRUE(c.refs[2].kernel);
  EXPECT_TRUE(c.refs[3].kernel);
  EXPECT_EQ(c.refs[4].kind, TraceRef::kLoad);
  EXPECT_EQ(c.refs[4].addr, 0x00600000u);
  EXPECT_FALSE(c.refs[4].kernel);
}

TEST(TraceParser, NestedKernelSectionsStack) {
  TraceInfoTable table = MakeMixedTable();
  std::vector<uint32_t> words = {
      MakeMarker(kMarkKernelEnter), (1u << 8) | 8,    // user 1 -> kernel
      kKeyKB,                                         // kernel block, awaiting data
      MakeMarker(kMarkKernelEnter), 0xff00,           // nested (kernel -> kernel)
      kKeyKA,
      MakeMarker(kMarkKernelExit), 0xff,              // pop to outer kernel
      0x80004000,                                     // KB's load completes
      MakeMarker(kMarkKernelExit), 1,                 // back to user 1
      kKeyA,
  };
  Collected c = Parse(table, words, 1);
  ASSERT_TRUE(c.errors.empty()) << c.errors.front();
  EXPECT_EQ(c.stats.blocks, 3u);
  EXPECT_EQ(c.stats.loads, 1u);
  EXPECT_EQ(c.stats.user_ifetches, 2u);   // Final A in user context.
  EXPECT_EQ(c.stats.kernel_ifetches, 5u); // B(3) + nested A(2).
}

TEST(TraceParser, ContextSwitchSeparatesProcesses) {
  TraceInfoTable table = MakeMixedTable();
  std::vector<uint32_t> words = {
      MakeMarker(kMarkKernelEnter), (1u << 8) | 0,
      MakeMarker(kMarkContextSwitch), 2,
      MakeMarker(kMarkKernelExit), 2,  // resume pid 2
      kKeyA,
      MakeMarker(kMarkKernelEnter), (2u << 8) | 8,
      MakeMarker(kMarkKernelExit), 1,  // back to pid 1
      kKeyB, 0x00700000,
  };
  Collected c = Parse(table, words, 1);
  ASSERT_TRUE(c.errors.empty()) << c.errors.front();
  // kKeyA ran as pid 2, kKeyB as pid 1.
  EXPECT_EQ(c.refs[0].pid, 2u);
  EXPECT_EQ(c.refs.back().pid, 1u);
}

TEST(TraceParser, IdleFlagsDriveCounting) {
  TraceInfoTable table = MakeMixedTable();
  std::vector<uint32_t> words = {kKeyIdle, kKeyIdle, kKeyStop, kKeyIdle};
  Collected c = Parse(table, words, kKernelPid, &table);
  ASSERT_TRUE(c.errors.empty()) << c.errors.front();
  // Two idle blocks (2 instrs each) count; the stop block and the restart
  // count per their flags: idle resumes on the next IdleStart block.
  EXPECT_EQ(c.stats.idle_instructions, 2u + 2u + 2u);
}

TEST(TraceParser, IdleStateSuspendsAcrossKernelNesting) {
  TraceInfoTable table = MakeMixedTable();
  std::vector<uint32_t> words = {
      kKeyIdle,                             // idle on (2 idle instrs)
      MakeMarker(kMarkKernelEnter), 0xff08, // nested handler
      kKeyKA,                               // handler code: NOT idle
      MakeMarker(kMarkKernelExit), 0xff,
      kKeyIdle,                             // idle continues
  };
  Collected c = Parse(table, words, kKernelPid, &table);
  ASSERT_TRUE(c.errors.empty()) << c.errors.front();
  EXPECT_EQ(c.stats.idle_instructions, 4u);
}

TEST(TraceParser, UnknownKeyIsFlagged) {
  TraceInfoTable table = MakeMixedTable();
  Collected c = Parse(table, {0x12345678});
  EXPECT_EQ(c.stats.validation_errors, 1u);
}

TEST(TraceParser, MissingDataWordIsFlagged) {
  TraceInfoTable table = MakeMixedTable();
  // B's data word was dropped: the following key is consumed as its data
  // (that one word is inherently indistinguishable), and the stream then
  // desynchronizes at the next word — which the membership check catches.
  Collected c = Parse(table, {kKeyB, kKeyA, 0x00500000});
  EXPECT_GE(c.stats.validation_errors, 1u);
}

TEST(TraceParser, TruncatedBlockFlaggedAtFinish) {
  TraceInfoTable table = MakeMixedTable();
  Collected c = Parse(table, {kKeyB});
  EXPECT_GE(c.stats.validation_errors, 1u);
}

TEST(TraceParser, TruncatedMarkerFlaggedAtFinish) {
  TraceInfoTable table = MakeMixedTable();
  Collected c = Parse(table, {MakeMarker(kMarkKernelEnter)});
  EXPECT_GE(c.stats.validation_errors, 1u);
}

TEST(TraceParser, KernelFetchOutsideKernelSpaceFlagged) {
  TraceInfoTable table = MakeKernelAtUserTable();
  Collected c = Parse(table, {kKeyKernelAtUser}, kKernelPid, &table);
  EXPECT_GE(c.stats.validation_errors, 1u);
}

TEST(TraceParser, IncrementalFeedMatchesBatch) {
  TraceInfoTable table = MakeMixedTable();
  std::vector<uint32_t> words = {kKeyC, 0x00500000, MakeMarker(kMarkKernelEnter),
                                 (1u << 8) | 0,    kKeyA,      MakeMarker(kMarkKernelExit),
                                 1,                0x00500010, kKeyA};
  Collected batch = Parse(table, words);
  // Feed one word at a time.
  Collected incremental;
  {
    TraceParser parser(&table);
    parser.SetUserTable(1, &table);
    parser.SetInitialContext(1);
    RefFnSink collect([&](const TraceRef& r) { incremental.refs.push_back(r); });
    parser.SetBatchSink(&collect);
    for (uint32_t w : words) {
      parser.Feed(&w, 1);
    }
    parser.Finish();
    incremental.stats = parser.stats();
  }
  ASSERT_EQ(batch.refs.size(), incremental.refs.size());
  for (size_t i = 0; i < batch.refs.size(); ++i) {
    EXPECT_EQ(batch.refs[i].addr, incremental.refs[i].addr) << i;
    EXPECT_EQ(batch.refs[i].kind, incremental.refs[i].kind) << i;
  }
  EXPECT_EQ(batch.stats.validation_errors, incremental.stats.validation_errors);
}

TEST(TraceInfoTable, DuplicateKeyRejected) {
  TraceInfoTable table;
  table.Add(0x1000, {0x00400000, 1, 0, {}, 0});
  EXPECT_THROW(table.Add(0x1000, {0x00400100, 1, 0, {}, 0}), InternalError);
}

}  // namespace
}  // namespace wrl
