// Capture-once trace storage (the "capture once, analyze many ways" leverage
// of hybrid tracing systems — HMTT, the CVA6 efficient-trace work).
//
// A TraceLog records the raw kernel-buffer words exactly as the trace
// transport delivered them, preserving chunk boundaries, so any number
// of analysis configurations can later replay the identical stream without
// re-running the traced machine.  Storage is packed with the shared chunk
// codec (trace/chunk_codec.h): per-bucket delta + zigzag + LEB128 varints.
// Typical system traces pack to roughly half their raw size — directly
// addressing the paper's §4.3 concern that buffer capacity bounds
// continuous tracing — and the achieved ratio is exported as a wrlstats
// metric rather than assumed.  Packing is lossless: Replay() reproduces
// the captured words bit-for-bit in the captured chunking.
//
// Chunks are *independently* coded (predictors reset per chunk, start
// offsets recorded), so TraceLog implements TraceChunkSource: any chunk
// decodes without touching the ones before it, and the analysis side
// treats an in-memory capture and an on-disk wrltrace/1 archive
// (trace_archive.h) interchangeably.
#ifndef WRLTRACE_TRACE_TRACE_LOG_H_
#define WRLTRACE_TRACE_TRACE_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats/stats.h"
#include "trace/chunk_source.h"

namespace wrl {

class TraceLog : public TraceChunkSource {
 public:
  // Appends one chunk of trace words as the traced system published it (a
  // drain is published as one or more chunks).  Chunk boundaries are
  // preserved and replayed as-is, so a replayed parser sees the same Feed()
  // granularity the live path saw.
  void Append(const uint32_t* words, size_t count);
  void Append(const std::vector<uint32_t>& words) { Append(words.data(), words.size()); }

  // ---- TraceChunkSource ----
  size_t chunk_count() const override { return chunk_words_.size(); }
  uint64_t word_count() const override { return words_; }
  void DecodeChunk(size_t index, std::vector<uint32_t>& out) const override;

  uint64_t words() const { return words_; }
  uint64_t chunks() const { return chunk_words_.size(); }
  // Raw payload size (4 bytes per captured word).
  uint64_t raw_bytes() const { return words_ * 4; }
  // Bytes actually held (the packed stream).
  uint64_t stored_bytes() const { return bytes_.size(); }
  // raw_bytes / stored_bytes; 1.0 for an empty log.
  double CompressionRatio() const;

  // Binds capture-side counters and the compression ratio into `registry`;
  // the log must outlive snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "tracelog.");

 private:
  std::vector<uint8_t> bytes_;         // Packed stream.
  std::vector<uint64_t> chunk_words_;  // Words per appended chunk.
  // Start of each chunk: byte offset into bytes_.  Chunks decode
  // independently from here.
  std::vector<uint64_t> chunk_starts_;
  uint64_t words_ = 0;
};

}  // namespace wrl

#endif  // WRLTRACE_TRACE_TRACE_LOG_H_
