// The replayable-capture abstraction: any store of independently decodable
// trace chunks — the in-memory TraceLog or an on-disk wrltrace/1 archive
// (trace_archive.h) — presents the same surface to the analysis side, so
// ReplayEngine, sweeps, and tools never care where a capture lives.
//
// The contract every source honors:
//   * chunks preserve the capture's chunk boundaries (the stretches the
//     traced system published), so a replayed parser sees the same Feed()
//     granularity the live path saw;
//   * DecodeChunk(i) depends only on chunk i (independent coding), which is
//     what makes O(1) seek possible;
//   * Replay() delivers the captured word sequence in the captured
//     chunking — the bit-identity invariant every analysis mode is tested
//     against.
#ifndef WRLTRACE_TRACE_CHUNK_SOURCE_H_
#define WRLTRACE_TRACE_CHUNK_SOURCE_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace wrl {

class TraceChunkSource {
 public:
  virtual ~TraceChunkSource() = default;

  // Chunks in capture order.
  virtual size_t chunk_count() const = 0;
  // Total trace words across every chunk.
  virtual uint64_t word_count() const = 0;
  // Decodes one chunk (0-based capture order) into `out` (cleared first).
  virtual void DecodeChunk(size_t index, std::vector<uint32_t>& out) const = 0;

  // Decodes the capture, invoking `sink` once per chunk in capture order.
  // The default decodes through DecodeChunk into one reused buffer.
  virtual void Replay(const std::function<void(const uint32_t*, size_t)>& sink) const;

  // Remains only for the wrlbench benchmark, which still overrides and
  // calls it: Replay(sink), whatever `workers` says.
  virtual void ReplayParallel(unsigned /*workers*/,
                              const std::function<void(const uint32_t*, size_t)>& sink) const {
    Replay(sink);
  }

  // The whole capture as one flat word vector.
  std::vector<uint32_t> Words() const;
};

}  // namespace wrl

#endif  // WRLTRACE_TRACE_CHUNK_SOURCE_H_
