// Defensive-tracing tests (§4.3) against the *batched* parser: corrupt and
// truncated streams must produce counted validation errors — never a crash
// — and every batch size must agree with one-reference batches (each ref
// handed over as soon as it is rebuilt) ref for ref on damaged input too.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/parser_tables.h"
#include "trace/parser.h"

namespace wrl {
namespace {

// Batch sink that records every delivered ref and the batch sizes.
class RecordingSink : public RefBatchSink {
 public:
  void OnRefBatch(const TraceRef* refs, size_t count) override {
    refs_.insert(refs_.end(), refs, refs + count);
    batch_sizes_.push_back(count);
  }

  std::vector<TraceRef> refs_;
  std::vector<size_t> batch_sizes_;
};

struct Outcome {
  std::vector<TraceRef> refs;
  TraceParserStats stats;
};

// Parses `words` through the batched path with a deliberately tiny batch so
// corrupt words land on batch boundaries too.
Outcome ParseBatched(const std::vector<uint32_t>& words, size_t capacity = 3) {
  static TraceInfoTable table = MakeUserBlockTable();
  Outcome out;
  TraceParser parser(&table);
  parser.SetUserTable(1, &table);
  parser.SetInitialContext(1);
  RecordingSink sink;
  parser.SetBatchSink(&sink, capacity);
  parser.Feed(words);
  parser.Finish();
  out.refs = std::move(sink.refs_);
  out.stats = parser.stats();
  return out;
}

void ExpectSameRefs(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.refs.size(), b.refs.size());
  for (size_t i = 0; i < a.refs.size(); ++i) {
    EXPECT_EQ(a.refs[i].kind, b.refs[i].kind) << i;
    EXPECT_EQ(a.refs[i].addr, b.refs[i].addr) << i;
    EXPECT_EQ(a.refs[i].bytes, b.refs[i].bytes) << i;
    EXPECT_EQ(a.refs[i].pid, b.refs[i].pid) << i;
    EXPECT_EQ(a.refs[i].kernel, b.refs[i].kernel) << i;
  }
  EXPECT_EQ(a.stats.refs, b.stats.refs);
  EXPECT_EQ(a.stats.validation_errors, b.stats.validation_errors);
}

TEST(ParserDefense, TruncatedTraceCountsError) {
  // The stream ends while block B still owes its data word.
  Outcome out = ParseBatched({kKeyA, kKeyB});
  EXPECT_GE(out.stats.validation_errors, 1u);
  // The fetches emitted before the truncation point still arrived.
  EXPECT_GE(out.refs.size(), 2u);
}

TEST(ParserDefense, CorruptBlockKeyCountsErrorAndContinues) {
  // A key that matches no table entry; parsing resumes at the next block.
  Outcome out = ParseBatched({kKeyA, 0x13572468, kKeyA});
  EXPECT_GE(out.stats.validation_errors, 1u);
  // Both intact A blocks (2 fetches each) were reconstructed.
  EXPECT_EQ(out.refs.size(), 4u);
}

TEST(ParserDefense, WrongMemOpCountDesynchronizes) {
  // B's data word was dropped, so the next key is misconsumed as data and
  // the stream desynchronizes — the membership check flags it.
  Outcome out = ParseBatched({kKeyB, kKeyA, 0x00500000});
  EXPECT_GE(out.stats.validation_errors, 1u);
}

TEST(ParserDefense, FinishMidBlockCountsError) {
  // C delivered only the first of its two data words before Finish().
  Outcome out = ParseBatched({kKeyC, 0x00500000});
  EXPECT_GE(out.stats.validation_errors, 1u);
  // Everything up to the missing load was still delivered.
  EXPECT_GE(out.refs.size(), 2u);
}

TEST(ParserDefense, FinishFlushesPartialBatch) {
  static TraceInfoTable table = MakeUserBlockTable();
  TraceParser parser(&table);
  parser.SetUserTable(1, &table);
  parser.SetInitialContext(1);
  RecordingSink sink;
  parser.SetBatchSink(&sink);  // Default (large) capacity: nothing flushes early.
  parser.Feed({kKeyA});
  EXPECT_TRUE(sink.refs_.empty());
  parser.Finish();
  EXPECT_EQ(sink.refs_.size(), 2u);
}

TEST(ParserDefense, BatchedMatchesPerRefOnDamagedStreams) {
  const std::vector<std::vector<uint32_t>> streams = {
      {kKeyA, kKeyB},                        // truncated
      {kKeyA, 0x13572468, kKeyA},            // corrupt key
      {kKeyB, kKeyA, 0x00500000},            // dropped data word
      {kKeyC, 0x00500000},                   // finish mid-block
      {kKeyC, 0x00500000, 0x00500010, kKeyB, 0x00600000, kKeyA},  // healthy
  };
  for (const auto& words : streams) {
    for (size_t capacity : {size_t{2}, size_t{3}, kRefBatchCapacity}) {
      SCOPED_TRACE("stream of " + std::to_string(words.size()) + " words, batch " +
                   std::to_string(capacity));
      ExpectSameRefs(ParseBatched(words, capacity), ParseBatched(words, 1));
    }
  }
}

}  // namespace
}  // namespace wrl
