// The per-chunk trace-word coding shared by the in-memory TraceLog and the
// on-disk wrltrace/1 archive (trace_archive.h): bucketed delta prediction +
// zigzag + LEB128 varints.
//
// Trace words are strongly clustered (block keys walk text pages, data
// addresses walk the data segment, markers live in one reserved page), so
// each word is delta-encoded against the last word seen in its 16-way
// bucket — a fold of the word's upper address nibbles — and the zigzagged
// delta is varint coded with the bucket id in the low four bits.  The
// predictors reset at every chunk boundary, so every chunk decodes
// independently (the foundation of the archive's O(1) seek).
//
// Keeping the coder in one header guarantees a TraceLog capture and an
// archive of the same words are byte-identical payloads: the archive's CRCs
// protect exactly the bytes the in-memory path would have produced.
#ifndef WRLTRACE_TRACE_CHUNK_CODEC_H_
#define WRLTRACE_TRACE_CHUNK_CODEC_H_

#include <cstdint>
#include <vector>

namespace wrl {
namespace codec {

// Zigzag keeps small negative deltas small: 0,-1,1,-2,2 -> 0,1,2,3,4.
inline uint32_t ZigZag(int32_t value) {
  return (static_cast<uint32_t>(value) << 1) ^ static_cast<uint32_t>(value >> 31);
}
inline int32_t UnZigZag(uint32_t value) {
  return static_cast<int32_t>((value >> 1) ^ (~(value & 1) + 1));
}

inline void PutVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

// Trusted decode (in-memory streams we encoded ourselves).
inline uint64_t GetVarint(const uint8_t* data, size_t& pos) {
  uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    uint8_t byte = data[pos++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
    shift += 7;
  }
}

// Bounds-checked decode for payloads read back from disk: returns false on
// buffer overrun or a varint wider than 64 bits (corrupt data must never
// walk past the mapped payload).
inline bool GetVarintBounded(const uint8_t* data, size_t size, size_t& pos, uint64_t& out) {
  uint64_t value = 0;
  unsigned shift = 0;
  while (pos < size && shift < 64) {
    uint8_t byte = data[pos++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      out = value;
      return true;
    }
    shift += 7;
  }
  return false;
}

// Predictor selection: fold every upper-address nibble (page-offset bits
// excluded) so interleaved streams that differ in *any* bit above the page
// offset — block keys vs data addresses, text vs stack — get separate delta
// predictors.  The bucket id travels in the coded stream, so this choice
// only affects the achieved ratio, never decodability.
inline unsigned Bucket(uint32_t word) {
  return ((word >> 12) ^ (word >> 16) ^ (word >> 20) ^ (word >> 24) ^ (word >> 28)) & 0xfu;
}

// Appends the packed coding of one chunk to `out`.
inline void EncodeChunk(const uint32_t* words, size_t count, std::vector<uint8_t>& out) {
  uint32_t prev[16] = {};
  for (size_t i = 0; i < count; ++i) {
    uint32_t word = words[i];
    unsigned bucket = Bucket(word);
    // Modular subtraction keeps the delta within int32 regardless of wrap.
    int32_t delta = static_cast<int32_t>(word - prev[bucket]);
    prev[bucket] = word;
    PutVarint(out, (static_cast<uint64_t>(ZigZag(delta)) << 4) | bucket);
  }
}

// Trusted decode of `count` words starting at `pos`; returns the position
// one past the chunk's last coded byte.
inline size_t DecodeChunk(const uint8_t* data, size_t pos, uint64_t count,
                          std::vector<uint32_t>& out) {
  uint32_t prev[16] = {};
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t coded = GetVarint(data, pos);
    unsigned bucket = coded & 0xf;
    uint32_t word =
        prev[bucket] + static_cast<uint32_t>(UnZigZag(static_cast<uint32_t>(coded >> 4)));
    prev[bucket] = word;
    out.push_back(word);
  }
  return pos;
}

// Bounds-checked decode of a whole payload read back from disk: exactly
// `count` words must consume exactly `size` bytes.  Returns false on
// overrun, short payload, or trailing bytes — any of which means the
// payload does not carry the words its framing claims.
inline bool DecodeChunkBounded(const uint8_t* data, size_t size, uint64_t count,
                               std::vector<uint32_t>& out) {
  uint32_t prev[16] = {};
  size_t pos = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t coded = 0;
    if (!GetVarintBounded(data, size, pos, coded)) {
      return false;
    }
    unsigned bucket = coded & 0xf;
    uint32_t word =
        prev[bucket] + static_cast<uint32_t>(UnZigZag(static_cast<uint32_t>(coded >> 4)));
    prev[bucket] = word;
    out.push_back(word);
  }
  return pos == size;
}

}  // namespace codec
}  // namespace wrl

#endif  // WRLTRACE_TRACE_CHUNK_CODEC_H_
