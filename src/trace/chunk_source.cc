#include "trace/chunk_source.h"

namespace wrl {

void TraceChunkSource::Replay(
    const std::function<void(const uint32_t*, size_t)>& sink) const {
  std::vector<uint32_t> buffer;
  const size_t n = chunk_count();
  for (size_t i = 0; i < n; ++i) {
    DecodeChunk(i, buffer);
    sink(buffer.data(), buffer.size());
  }
}

std::vector<uint32_t> TraceChunkSource::Words() const {
  std::vector<uint32_t> all;
  all.reserve(word_count());
  Replay([&all](const uint32_t* words, size_t count) {
    all.insert(all.end(), words, words + count);
  });
  return all;
}

}  // namespace wrl
