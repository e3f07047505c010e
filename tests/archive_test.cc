// The wrltrace/1 durable archive's contract (trace_archive.h): a capture
// written to disk round-trips bit-identically through a fresh reader, the
// crash-safety protocol recovers every intact chunk of a truncated or torn
// archive with loud chunk-accurate diagnostics, corrupt payloads are
// detected by CRC before a byte is trusted, and an archived experiment
// capture replays through the ReplayEngine to the exact analysis counters
// the live run produced.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "kernel/system_build.h"
#include "sim/predictor.h"
#include "support/error.h"
#include "support/strings.h"
#include "trace/chunk_codec.h"
#include "trace/trace_archive.h"
#include "trace/trace_log.h"

namespace wrl {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

// Deterministic address-like trace words: clustered walks through a few
// "spaces" with occasional jumps, like a real interleaved system trace.
std::vector<std::vector<uint32_t>> SyntheticChunks(size_t chunks, size_t words_per_chunk) {
  std::vector<std::vector<uint32_t>> out(chunks);
  uint32_t state = 0x2545f491;
  uint32_t walkers[3] = {0x80001000, 0x10008000, 0x7fff8000};
  for (size_t c = 0; c < chunks; ++c) {
    out[c].reserve(words_per_chunk);
    for (size_t i = 0; i < words_per_chunk; ++i) {
      state = state * 1664525u + 1013904223u;
      uint32_t& walker = walkers[state % 3];
      walker += ((state >> 8) % 5) * 4;
      if ((state & 0xff) == 0) {
        walker ^= (state >> 4) & 0xffff0;  // Occasional long jump.
      }
      out[c].push_back(walker);
    }
  }
  return out;
}

ArchiveMeta TestMeta() {
  return {{"workload", "synthetic"}, {"personality", "ultrix"}, {"scale", "1"}};
}

void WriteTestArchive(const std::string& path,
                      const std::vector<std::vector<uint32_t>>& chunks, bool finalize = true) {
  ArchiveWriter writer(path, TestMeta());
  for (const auto& chunk : chunks) {
    writer.Append(chunk);
  }
  if (finalize) {
    writer.Finalize();
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint32_t FileU32(const std::string& bytes, size_t offset) {
  return static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset])) |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + 1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + 2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + 3])) << 24;
}

// File offset of chunk `index`'s record header (walks the chunk framing).
size_t ChunkOffset(const std::string& bytes, size_t index) {
  size_t offset = 24 + FileU32(bytes, 12);  // Header + metadata.
  for (size_t i = 0; i < index; ++i) {
    offset += 20 + FileU32(bytes, offset + 4);
  }
  return offset;
}

std::vector<uint32_t> AllWords(const std::vector<std::vector<uint32_t>>& chunks) {
  std::vector<uint32_t> all;
  for (const auto& chunk : chunks) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

// ---- Round trips ----

TEST(ArchiveRoundTrip, WriterReaderBitIdentical) {
  const std::string path = TempPath("roundtrip.wrl");
  auto chunks = SyntheticChunks(7, 523);
  WriteTestArchive(path, chunks);

  ArchiveReader archive(path);
  EXPECT_FALSE(archive.degraded());
  ASSERT_EQ(archive.chunk_count(), chunks.size());
  EXPECT_EQ(archive.word_count(), 7u * 523u);
  EXPECT_EQ(archive.MetaValue("workload"), "synthetic");
  EXPECT_EQ(archive.MetaValue("personality"), "ultrix");
  EXPECT_EQ(archive.MetaValue("missing", "fallback"), "fallback");
  EXPECT_GT(archive.CompressionRatio(), 1.0);

  std::vector<uint32_t> decoded;
  for (size_t i = 0; i < chunks.size(); ++i) {
    archive.DecodeChunk(i, decoded);
    EXPECT_EQ(decoded, chunks[i]) << "chunk " << i;
  }
  EXPECT_EQ(archive.Words(), AllWords(chunks));

  std::vector<std::string> findings;
  EXPECT_TRUE(archive.Verify(&findings));
  EXPECT_TRUE(findings.empty());
}

TEST(ArchiveRoundTrip, EmptyArchive) {
  const std::string path = TempPath("empty.wrl");
  WriteTestArchive(path, {});
  ArchiveReader archive(path);
  EXPECT_FALSE(archive.degraded());
  EXPECT_EQ(archive.chunk_count(), 0u);
  EXPECT_EQ(archive.word_count(), 0u);
  EXPECT_TRUE(archive.Verify());
}

TEST(ArchiveRoundTrip, PayloadsShareTheTraceLogCodec) {
  const std::string path = TempPath("codec.wrl");
  auto chunks = SyntheticChunks(5, 400);
  WriteTestArchive(path, chunks);
  TraceLog log;
  for (const auto& chunk : chunks) {
    log.Append(chunk);
  }
  // One codec, two stores: the archive's payload bytes are exactly the
  // packed bytes the in-memory TraceLog holds.
  ArchiveReader archive(path);
  EXPECT_EQ(archive.payload_bytes(), log.stored_bytes());
  EXPECT_EQ(archive.Words(), log.Words());
}

// ---- Crash safety and corruption ----

TEST(ArchiveCorruption, UnfinalizedWriterIsRecoverable) {
  const std::string path = TempPath("unfinalized.wrl");
  auto chunks = SyntheticChunks(4, 211);
  WriteTestArchive(path, chunks, /*finalize=*/false);

  ArchiveReader archive(path);
  EXPECT_TRUE(archive.degraded());
  EXPECT_FALSE(archive.diagnostics().empty());
  ASSERT_EQ(archive.chunk_count(), chunks.size());  // Every chunk was flushed.
  EXPECT_EQ(archive.Words(), AllWords(chunks));
  // Degraded state is a loud finding even when every chunk survived.
  std::vector<std::string> findings;
  EXPECT_FALSE(archive.Verify(&findings));
  EXPECT_FALSE(findings.empty());
}

TEST(ArchiveCorruption, TruncatedFooterRecoversEveryChunk) {
  const std::string path = TempPath("truncfooter.wrl");
  auto chunks = SyntheticChunks(5, 163);
  WriteTestArchive(path, chunks);
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 7));  // Tear the footer tail.

  ArchiveReader archive(path);
  EXPECT_TRUE(archive.degraded());
  ASSERT_EQ(archive.chunk_count(), chunks.size());
  EXPECT_EQ(archive.Words(), AllWords(chunks));
  // The scan stops at the footer debris with a chunk-accurate diagnostic.
  bool mentioned = false;
  for (const std::string& line : archive.diagnostics()) {
    mentioned = mentioned || line.find("chunk 5") != std::string::npos;
  }
  EXPECT_TRUE(mentioned);
}

TEST(ArchiveCorruption, TornFinalChunkKeepsThePrefix) {
  const std::string path = TempPath("tornchunk.wrl");
  auto chunks = SyntheticChunks(6, 149);
  WriteTestArchive(path, chunks);
  std::string pristine = ReadFileBytes(path);

  // Cut mid-payload of the final chunk (no footer, half a payload): the
  // recovered prefix must replay bit-identically to the pristine prefix.
  const size_t last = ChunkOffset(pristine, 5);
  WriteFileBytes(path, pristine.substr(0, last + 20 + FileU32(pristine, last + 4) / 2));

  ArchiveReader archive(path);
  EXPECT_TRUE(archive.degraded());
  ASSERT_EQ(archive.chunk_count(), 5u);
  std::vector<uint32_t> expect;
  for (size_t i = 0; i < 5; ++i) {
    expect.insert(expect.end(), chunks[i].begin(), chunks[i].end());
  }
  EXPECT_EQ(archive.Words(), expect);
  bool torn = false;
  for (const std::string& line : archive.diagnostics()) {
    torn = torn || (line.find("chunk 5") != std::string::npos &&
                    line.find("torn") != std::string::npos);
  }
  EXPECT_TRUE(torn) << "diagnostics must name the torn chunk";
}

TEST(ArchiveCorruption, FlippedPayloadByteIsDetectedAtDecode) {
  const std::string path = TempPath("flippayload.wrl");
  auto chunks = SyntheticChunks(4, 131);
  WriteTestArchive(path, chunks);
  std::string bytes = ReadFileBytes(path);
  bytes[ChunkOffset(bytes, 2) + 20 + 5] ^= 0x40;  // One payload byte of chunk 2.
  WriteFileBytes(path, bytes);

  // The footer is intact, so the archive opens cleanly — but the corrupt
  // chunk must throw at decode with its index, and Verify must find it.
  ArchiveReader archive(path);
  EXPECT_FALSE(archive.degraded());
  std::vector<uint32_t> decoded;
  archive.DecodeChunk(1, decoded);  // Neighbors decode independently.
  EXPECT_EQ(decoded, chunks[1]);
  try {
    archive.DecodeChunk(2, decoded);
    FAIL() << "corrupt chunk decoded without error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk 2"), std::string::npos) << e.what();
  }
  std::vector<std::string> findings;
  EXPECT_FALSE(archive.Verify(&findings));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("chunk 2"), std::string::npos);
}

TEST(ArchiveCorruption, FlippedCrcFieldIsACorruptRecordHeader) {
  const std::string path = TempPath("flipcrc.wrl");
  auto chunks = SyntheticChunks(3, 101);
  WriteTestArchive(path, chunks);
  std::string bytes = ReadFileBytes(path);
  bytes[ChunkOffset(bytes, 1) + 12] ^= 0x01;  // payload_crc field of chunk 1.
  WriteFileBytes(path, bytes);

  ArchiveReader archive(path);
  std::vector<std::string> findings;
  EXPECT_FALSE(archive.Verify(&findings));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("chunk 1"), std::string::npos);
  EXPECT_NE(findings[0].find("header"), std::string::npos);
}

TEST(ArchiveCorruption, CorruptDirectoryFallsBackToScan) {
  const std::string path = TempPath("baddir.wrl");
  auto chunks = SyntheticChunks(4, 87);
  WriteTestArchive(path, chunks);
  std::string bytes = ReadFileBytes(path);
  // Flip a byte inside the footer directory: dir_crc fails, the reader
  // falls back to the forward scan, and every chunk (all intact) survives.
  bytes[bytes.size() - 20] ^= 0x80;
  WriteFileBytes(path, bytes);

  ArchiveReader archive(path);
  EXPECT_TRUE(archive.degraded());
  ASSERT_EQ(archive.chunk_count(), chunks.size());
  EXPECT_EQ(archive.Words(), AllWords(chunks));
}

TEST(ArchiveCorruption, WrongMagicIsAHardError) {
  const std::string path = TempPath("badmagic.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10));
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  EXPECT_THROW(ArchiveReader{path}, Error);
}

// This process's mappings of `path`: its lines in /proc/self/maps.  (The
// whole table's line count also moves with the allocator's own mappings,
// as under AddressSanitizer.)
size_t MappingsOf(const std::string& path) {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) {
    lines += line.size() >= path.size() &&
             line.compare(line.size() - path.size(), path.size(), path) == 0;
  }
  return lines;
}

// The reader maps the whole file before it checks the header, and a
// rejection throws from inside its constructor: the mapping must not
// outlive the throw.
TEST(ArchiveCorruption, RejectedOpenLeavesNoMapping) {
  const std::string bad_magic = TempPath("leak_magic.wrl");
  const std::string bad_crc = TempPath("leak_crc.wrl");
  WriteTestArchive(bad_magic, SyntheticChunks(1, 10));
  std::string bytes = ReadFileBytes(bad_magic);
  bytes[20] ^= 0x01;  // The header CRC field.
  WriteFileBytes(bad_crc, bytes);
  bytes[20] ^= 0x01;
  bytes[0] = 'X';
  WriteFileBytes(bad_magic, bytes);
  auto expect_rejected = [](const std::string& path, const std::string& reason) {
    try {
      ArchiveReader archive(path);
      ADD_FAILURE() << path << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
    }
  };
  for (int i = 0; i < 100; ++i) {
    expect_rejected(bad_magic, "wrong magic");
  }
  for (int i = 0; i < 100; ++i) {
    expect_rejected(bad_crc, "header checksum");
  }
  EXPECT_EQ(MappingsOf(bad_magic), 0u);
  EXPECT_EQ(MappingsOf(bad_crc), 0u);
  // A reader that opens maps the file, and unmaps it when destroyed.
  WriteTestArchive(bad_magic, SyntheticChunks(1, 10));
  {
    ArchiveReader archive(bad_magic);
    EXPECT_EQ(MappingsOf(bad_magic), 1u);
  }
  EXPECT_EQ(MappingsOf(bad_magic), 0u);
}

TEST(ArchiveCorruption, UnknownVersionIsAHardError) {
  const std::string path = TempPath("badversion.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10));
  std::string bytes = ReadFileBytes(path);
  bytes[4] = 99;  // version = 99 …
  uint32_t crc =   // … with a valid header CRC, so only the version trips.
      Crc32(reinterpret_cast<const uint8_t*>(bytes.data()), 20);
  for (int i = 0; i < 4; ++i) {
    bytes[20 + i] = static_cast<char>(crc >> (8 * i));
  }
  WriteFileBytes(path, bytes);
  try {
    ArchiveReader archive(path);
    FAIL() << "unknown version accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

// The identity metadata's CRCs are easy to recompute, so they prove nothing
// about its shape: metadata nesting a million arrays deep, under valid
// CRCs, fails with the JSON parser's diagnostic instead of overflowing the
// stack.
TEST(ArchiveCorruption, DeeplyNestedMetadataIsAHardError) {
  const std::string path = TempPath("deepmeta.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10));
  const std::string bytes = ReadFileBytes(path);
  const std::string meta(1'000'000, '[');
  std::string forged = bytes.substr(0, 24) + meta + bytes.substr(24 + FileU32(bytes, 12));
  auto put32 = [&forged](size_t offset, uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      forged[offset + i] = static_cast<char>(value >> (8 * i));
    }
  };
  put32(12, static_cast<uint32_t>(meta.size()));
  put32(16, Crc32(reinterpret_cast<const uint8_t*>(meta.data()), meta.size()));
  put32(20, Crc32(reinterpret_cast<const uint8_t*>(forged.data()), 20));
  WriteFileBytes(path, forged);
  try {
    ArchiveReader archive(path);
    FAIL() << "deeply nested metadata accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("json: nesting deeper than"), std::string::npos)
        << e.what();
  }
}

// Header flags other than exactly "packed" are rejected with the path and
// the flags: raw payloads (flags 0), which no writer produces any more, and
// any unknown bit beside the packed one.
TEST(ArchiveCorruption, FlagsOtherThanPackedAreAHardError) {
  for (uint32_t flags : {0u, 1u | (1u << 7)}) {
    const std::string path = TempPath("badflags.wrl");
    WriteTestArchive(path, SyntheticChunks(1, 10));
    std::string bytes = ReadFileBytes(path);
    for (int i = 0; i < 4; ++i) {
      bytes[8 + i] = static_cast<char>(flags >> (8 * i));
    }
    // A valid header CRC, so only the flags trip.
    uint32_t crc = Crc32(reinterpret_cast<const uint8_t*>(bytes.data()), 20);
    for (int i = 0; i < 4; ++i) {
      bytes[20 + i] = static_cast<char>(crc >> (8 * i));
    }
    WriteFileBytes(path, bytes);
    try {
      ArchiveReader archive(path);
      ADD_FAILURE() << "flags " << flags << " accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(StrFormat("flags 0x%08x", flags)), std::string::npos) << what;
    }
  }
}

TEST(ArchiveCorruption, TruncatedHeaderIsAHardError) {
  const std::string path = TempPath("shortheader.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10));
  WriteFileBytes(path, ReadFileBytes(path).substr(0, 10));
  EXPECT_THROW(ArchiveReader{path}, Error);
}

// ---- End-to-end: archived experiment captures ----

const char* kBody = R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        la   $t0, table
        li   $t1, 0
        li   $t2, 64
fill:   sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        sw   $t1, 0($t3)
        addiu $t1, $t1, 1
        bne  $t1, $t2, fill
        nop
        li   $t1, 0
        li   $v0, 0
sum:    sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        lw   $t4, 0($t3)
        addu $v0, $v0, $t4
        addiu $t1, $t1, 1
        bne  $t1, $t2, sum
        nop
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
table:  .space 256
)";

WorkloadSpec UnitWorkload() {
  WorkloadSpec w;
  w.name = "unit";
  w.description = "tiny compute kernel";
  w.source = kBody;
  return w;
}

TEST(ArchiveExperiment, TeeReplaysToTheLiveAnalysisCountersBitForBit) {
  const std::string path = TempPath("experiment.wrl");
  ExperimentOptions options;
  options.archive_path = path;
  ExperimentResult live = RunExperiment(UnitWorkload(), options);

  // The archive.* instruments rode the run.
  ASSERT_TRUE(live.stats.Has("archive.words"));
  EXPECT_EQ(live.stats.CounterValue("archive.words"), live.trace_words);
  EXPECT_EQ(live.stats.GaugeValue("archive.finalized"), 1.0);

  // Fresh reader + freshly rebuilt capturing system (deterministic builds),
  // exactly what a separate process would do.
  ArchiveReader archive(path);
  EXPECT_FALSE(archive.degraded());
  EXPECT_EQ(archive.word_count(), live.trace_words);
  EXPECT_EQ(archive.MetaValue("workload"), "unit");

  const ExperimentOptions rebuilt = ArchivedExperimentOptions(archive);
  auto measured = BuildSystem(ExperimentSystemConfig(UnitWorkload(), rebuilt, false));
  auto traced = BuildSystem(ExperimentSystemConfig(UnitWorkload(), rebuilt, true));
  const PredictorConfig pconfig = ExperimentPredictorConfig(*measured, rebuilt);

  ReplaySource source;
  source.log = &archive;
  source.kernel_table = &traced->kernel_table();
  source.user_tables.emplace_back(1, &traced->user_table());
  ReplayEngine engine(std::move(source));
  uint64_t collected = 0;
  std::vector<ReplayEngine::Outcome> outcomes = engine.Run(
      {{"primary", [&] { return ExperimentSimulator(*measured, pconfig); }},
       {"count", [&collected] {
          return std::make_unique<RefFnSink>([&collected](const TraceRef&) { ++collected; });
        }}});
  ASSERT_GT(collected, 0u);
  EXPECT_EQ(collected, live.stats.CounterValue("parser.refs"));
  auto* simulator = static_cast<TraceDrivenSimulator*>(outcomes[0].sink.get());
  simulator->Finish();

  StatsRegistry registry;
  engine.RegisterParserStats(registry, "parser.");
  simulator->RegisterStats(registry, "predicted.");
  StatsSnapshot replayed = registry.Snapshot();

  // Every analysis counter the live run produced, reproduced exactly.
  size_t compared = 0;
  for (const auto& [name, value] : replayed.values()) {
    const StatValue* expect = live.stats.Find(name);
    ASSERT_NE(expect, nullptr) << name;
    if (value.kind == StatValue::Kind::kCounter) {
      EXPECT_EQ(value.counter, expect->counter) << name;
      ++compared;
    } else if (value.kind == StatValue::Kind::kGauge) {
      EXPECT_EQ(value.gauge, expect->gauge) << name;
      ++compared;
    }
  }
  EXPECT_GT(compared, 10u);
}

// An archive whose identity metadata is the test's, over one tiny chunk.
ArchiveReader ArchiveWithMeta(const std::string& name, const ArchiveMeta& meta) {
  const std::string path = TempPath(name);
  {
    ArchiveWriter writer(path, meta);
    writer.Append(std::vector<uint32_t>{0x80001000, 0x80001004});
    writer.Finalize();
  }
  return ArchiveReader(path);
}

TEST(ArchiveExperiment, ReadsBackValidIdentityMetadata) {
  ArchiveReader archive = ArchiveWithMeta(
      "meta_valid.wrl", {{"workload", "sed"}, {"personality", "mach"}, {"clock_period", "4096"},
                         {"dilation", "12.5"}, {"trace_buf_bytes", "4294967295"},
                         {"scavenge", "0"}, {"max_instructions", "18446744073709551615"},
                         {"scale", "0.05"}});
  double scale = 0;
  const ExperimentOptions options = ArchivedExperimentOptions(archive, &scale);
  EXPECT_EQ(options.personality, Personality::kMach);
  EXPECT_EQ(options.clock_period, 4096u);
  EXPECT_EQ(options.dilation, 12.5);
  EXPECT_EQ(options.trace_buf_bytes, 4294967295u);
  EXPECT_FALSE(options.scavenge);
  EXPECT_EQ(options.max_instructions, 18446744073709551615u);
  EXPECT_EQ(scale, 0.05);
}

// Each malformed identity value must fail loudly, naming its key and
// value, instead of silently becoming 0 or reaching an undefined
// float-to-integer conversion.  The archive is named after the test as
// well as the key: tests that share a key may run at once in separate
// processes.
void ExpectRejected(const std::string& key, const std::string& value) {
  SCOPED_TRACE(key + "=" + value);
  const std::string test = testing::UnitTest::GetInstance()->current_test_info()->name();
  ArchiveReader archive = ArchiveWithMeta("meta_" + test + "_" + key + ".wrl",
                                          {{"workload", "sed"}, {key, value}});
  try {
    ArchivedExperimentOptions(archive);
    ADD_FAILURE() << "accepted";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'" + key + "'"), std::string::npos) << message;
    EXPECT_NE(message.find("'" + value + "'"), std::string::npos) << message;
  }
}

TEST(ArchiveExperiment, RejectsNanDilation) { ExpectRejected("dilation", "nan"); }
TEST(ArchiveExperiment, RejectsHugeDilation) { ExpectRejected("dilation", "1e300"); }
TEST(ArchiveExperiment, RejectsMalformedClockPeriod) { ExpectRejected("clock_period", "12x"); }
TEST(ArchiveExperiment, RejectsOutOfRangeTraceBuffer) {
  ExpectRejected("trace_buf_bytes", "99999999999");
}
TEST(ArchiveExperiment, RejectsInfiniteScale) { ExpectRejected("scale", "inf"); }

TEST(ArchiveExperiment, RejectsOtherMalformedIdentityValues) {
  ExpectRejected("dilation", "-1");
  ExpectRejected("dilation", "15 ");
  ExpectRejected("clock_period", "-5");
  ExpectRejected("clock_period", "+5");
  ExpectRejected("scavenge", "2");
  ExpectRejected("max_instructions", "18446744073709551616");
  ExpectRejected("scale", "2048");
  ExpectRejected("scale", "0x1p3");
}

TEST(ArchiveExperiment, PipelinedAndSynchronousTeesWriteIdenticalArchives) {
  const std::string path_a = TempPath("tee_sync.wrl");
  const std::string path_b = TempPath("tee_pipe.wrl");
  ExperimentOptions sync_options;
  sync_options.pipeline = false;
  sync_options.archive_path = path_a;
  ExperimentOptions pipe_options;
  pipe_options.pipeline = true;
  pipe_options.archive_path = path_b;
  RunExperiment(UnitWorkload(), sync_options);
  RunExperiment(UnitWorkload(), pipe_options);

  ArchiveReader a(path_a);
  ArchiveReader b(path_b);
  ASSERT_EQ(a.chunk_count(), b.chunk_count());
  EXPECT_EQ(a.word_count(), b.word_count());
  std::vector<uint32_t> wa;
  std::vector<uint32_t> wb;
  for (size_t i = 0; i < a.chunk_count(); ++i) {
    a.DecodeChunk(i, wa);
    b.DecodeChunk(i, wb);
    EXPECT_EQ(wa, wb) << "chunk " << i;
  }
}

}  // namespace
}  // namespace wrl
