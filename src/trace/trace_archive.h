// Durable wrltrace/1 trace archives: crash-safe on-disk capture and
// cross-run replay (the record-and-replay lesson — rr, HMTT — applied to
// the paper's capture-and-analyze pipeline: the trace stream is a
// first-class storable artifact, not a process-lifetime byproduct).
//
// File layout (all integers little-endian):
//
//   header   "wrlt" | version u32 | flags u32 | meta_bytes u32 |
//            meta_crc u32 | header_crc u32
//   metadata meta_bytes of compact JSON: a flat object of string values
//            carrying the capture's identity (workload, scale, personality,
//            clock period, dilation, epoxie/scavenge settings, ...) —
//            everything a fresh process needs to rebuild the capturing
//            system deterministically and replay the archive bit-identically.
//   chunks   a sequence of records, one per stretch of trace the traced
//            system published (a drain is published as one or more
//            chunks; kernel/system_build.h):
//              "wrlc" | payload_bytes u32 | word_count u32 |
//              payload_crc u32 | head_crc u32 | payload
//            The payload is the shared chunk codec's coding of the chunk
//            (trace/chunk_codec.h) — independently decodable, so any chunk
//            decodes without touching the ones before it.
//   footer   "wrlf" | chunk_count u32 | total_words u64 |
//            directory[chunk_count] {offset u64, payload_bytes u32,
//            word_count u32, payload_crc u32} | dir_crc u32 |
//            footer_bytes u64 | "wrle"
//
// Crash-safety protocol: the writer streams each chunk (flushed as it
// lands) and writes the footer only at Finalize().  A reader that finds a
// valid footer seeks any chunk through the directory in O(1).  A truncated
// or torn archive — missing footer, torn final chunk, interrupted write —
// is *recovered*, not rejected: the reader scans forward validating each
// chunk's framing CRC and payload CRC, keeps every chunk up to the last
// valid one, and surfaces a loud degraded-capture diagnostic.  Only a wrong
// magic or unknown version is a hard failure.  Every CRC is IEEE CRC-32.
#ifndef WRLTRACE_TRACE_TRACE_ARCHIVE_H_
#define WRLTRACE_TRACE_TRACE_ARCHIVE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "stats/stats.h"
#include "trace/chunk_source.h"

namespace wrl {

// IEEE CRC-32 (the zlib/gzip polynomial), used for every archive checksum.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

// Flat identity metadata: ordered key/value strings (kept generic here so
// the trace layer needs no knowledge of harness types; the harness and the
// wrltrace tool agree on the key vocabulary).
using ArchiveMeta = std::vector<std::pair<std::string, std::string>>;

constexpr uint32_t kArchiveVersion = 1;

// Streams a capture to disk.  Append() is chunk-granular and flushes, so a
// crash (or a never-called Finalize) loses at most the chunk being written;
// Finalize() writes the directory footer and fsyncs.  Throws wrl::Error on
// I/O failure.
class ArchiveWriter {
 public:
  struct Options {
    bool packed = true;  // Delta/varint payloads; false stores raw words.
  };

  ArchiveWriter(const std::string& path, const ArchiveMeta& meta, const Options& options);
  ArchiveWriter(const std::string& path, const ArchiveMeta& meta)
      : ArchiveWriter(path, meta, Options()) {}
  ~ArchiveWriter();
  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  // Appends one published chunk of trace words (a drain arrives as one or
  // more chunks; boundaries are preserved on replay).
  void Append(const uint32_t* words, size_t count);
  void Append(const std::vector<uint32_t>& words) { Append(words.data(), words.size()); }

  // Writes the chunk directory footer, fsyncs, and closes.  Idempotent;
  // Append() after Finalize() is an error.
  void Finalize();
  bool finalized() const { return finalized_; }

  const std::string& path() const { return path_; }
  uint64_t words() const { return words_; }
  uint64_t chunks() const { return directory_.size(); }
  // Total file bytes written so far (header + metadata + chunk records).
  uint64_t bytes_written() const { return bytes_written_; }
  // Raw capture bytes (4 per word) over the whole file's footprint.
  double CompressionRatio() const;

  // Binds writer-side counters into `registry`; the writer must outlive
  // snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "archive.");

 private:
  struct DirEntry {
    uint64_t offset = 0;  // File offset of the chunk record header.
    uint32_t payload_bytes = 0;
    uint32_t word_count = 0;
    uint32_t payload_crc = 0;
  };

  void WriteBytes(const void* data, size_t size);

  std::string path_;
  std::FILE* file_ = nullptr;
  bool packed_;
  bool finalized_ = false;
  std::vector<DirEntry> directory_;
  std::vector<uint8_t> scratch_;  // Reused payload encode buffer.
  uint64_t words_ = 0;
  uint64_t bytes_written_ = 0;
};

// Memory-maps a wrltrace/1 archive and serves it as a TraceChunkSource:
// ReplayEngine (and everything downstream — simulators, sweeps, profilers)
// replays an archive exactly as it would an in-memory TraceLog.  Every
// DecodeChunk verifies the chunk's CRC before trusting a byte, so a corrupt
// payload surfaces as a chunk-accurate wrl::Error, never as garbage
// references.
class ArchiveReader : public TraceChunkSource {
 public:
  // Opens and indexes the archive.  Wrong magic or unknown version throws
  // wrl::Error; a missing/torn footer or torn trailing chunk triggers the
  // recovery scan instead — the readable prefix is served and degraded()
  // reports true with diagnostics().
  explicit ArchiveReader(const std::string& path);
  ~ArchiveReader() override;
  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;

  // ---- TraceChunkSource ----
  size_t chunk_count() const override { return directory_.size(); }
  uint64_t word_count() const override { return words_; }
  void DecodeChunk(size_t index, std::vector<uint32_t>& out) const override;

  const std::string& path() const { return path_; }
  bool packed() const { return packed_; }
  uint64_t file_bytes() const { return file_bytes_; }
  // Sum of coded chunk payload bytes (the compressed capture proper).
  uint64_t payload_bytes() const { return payload_bytes_; }
  double CompressionRatio() const;

  // Identity metadata recorded by the writer.
  const ArchiveMeta& meta() const { return meta_; }
  // Value for `key`, or `fallback` when absent.
  std::string MetaValue(const std::string& key, const std::string& fallback = "") const;

  // True when the archive was recovered from a truncated/torn state: the
  // directory covers only the chunks whose CRCs survived, and
  // diagnostics() says exactly what was lost and where.
  bool degraded() const { return degraded_; }
  const std::vector<std::string>& diagnostics() const { return diagnostics_; }

  // Full integrity sweep: re-checks every directory entry's framing and
  // payload CRC and bounds-decodes every payload.  `findings` collects one
  // structured line per problem; returns true when the archive is clean
  // (recovery diagnostics count as findings).
  bool Verify(std::vector<std::string>* findings = nullptr) const;

 private:
  struct DirEntry {
    uint64_t offset = 0;  // File offset of the chunk record header.
    uint32_t payload_bytes = 0;
    uint32_t word_count = 0;
    uint32_t payload_crc = 0;
  };

  const uint8_t* data() const { return static_cast<const uint8_t*>(map_); }
  bool LoadFooter();
  void RecoverByScan(const std::string& reason);

  std::string path_;
  void* map_ = nullptr;
  uint64_t file_bytes_ = 0;
  bool packed_ = true;
  bool degraded_ = false;
  uint64_t words_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t data_start_ = 0;  // First chunk record offset.
  ArchiveMeta meta_;
  std::vector<DirEntry> directory_;
  std::vector<std::string> diagnostics_;
};

}  // namespace wrl

#endif  // WRLTRACE_TRACE_TRACE_ARCHIVE_H_
