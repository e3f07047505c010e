// The memory-system timing model of the simulated DECstation.
//
// One implementation serves two masters:
//   * the "real machine" (src/mach) attaches a MemorySystem to charge stall
//     cycles while executing uninstrumented binaries — this produces the
//     *measured* numbers of Tables 2 and 3;
//   * the trace-driven analysis program (src/sim) feeds the same model with
//     references parsed from the trace — this produces the *predicted*
//     numbers.
//
// The configuration mirrors the DECstation 5000/200: split direct-mapped
// 64 KB instruction and data caches (16-byte I-lines, 4-byte D-lines),
// write-through/no-write-allocate data cache in front of a 6-deep write
// buffer, and a flat miss penalty.  Caches are physically indexed, which is
// why the page-mapping policy matters (paper §4.2).
#ifndef WRLTRACE_MEMSYS_MEMSYS_H_
#define WRLTRACE_MEMSYS_MEMSYS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/stats.h"

namespace wrl {

struct CacheConfig {
  uint32_t size_bytes = 64 * 1024;
  uint32_t line_bytes = 16;
};

// A direct-mapped, physically-indexed cache.  This sits on the per-
// instruction simulation path (one fetch plus up to one data access per
// step), so the geometry — power-of-two line size and line count — is
// turned into shifts/masks once at construction, the hot methods live in
// the header, and an impossible tag value stands in for a valid bit.
class DirectMappedCache {
 public:
  explicit DirectMappedCache(const CacheConfig& config);

  // Looks up `paddr`; on a miss the line is filled.  Returns true on hit.
  bool Access(uint32_t paddr) {
    uint32_t index = LineIndex(paddr);
    uint32_t tag = Tag(paddr);
    if (tags_[index] == tag) {
      return true;
    }
    tags_[index] = tag;
    return false;
  }
  // Write-through update: refreshes the line only if already present
  // (no write allocation).  Returns true if the line was present.
  bool Update(uint32_t paddr) { return tags_[LineIndex(paddr)] == Tag(paddr); }

  const CacheConfig& config() const { return config_; }

 private:
  // 32-bit physical addresses leave tags far below this sentinel.
  static constexpr uint32_t kInvalidTag = 0xffffffffu;

  uint32_t LineIndex(uint32_t paddr) const { return (paddr >> line_shift_) & index_mask_; }
  uint32_t Tag(uint32_t paddr) const { return paddr >> (line_shift_ + index_bits_); }

  CacheConfig config_;
  uint32_t line_shift_;
  uint32_t index_bits_;
  uint32_t index_mask_;
  std::vector<uint32_t> tags_;
};

// The write buffer between the write-through cache and memory.  Entries
// retire at a fixed rate; a store issued while the buffer is full stalls the
// CPU until a slot frees up.  Occupancy never exceeds `depth` entries (a
// push into a full buffer first stalls one entry out), so the retire queue
// is a fixed ring rather than a deque — stores are the hottest data
// references the simulation makes.
class WriteBuffer {
 public:
  WriteBuffer(unsigned depth, unsigned cycles_per_entry);

  // Issues a store at time `now`; returns the number of stall cycles.
  // Defined here, like the MemorySystem methods that call it, so every
  // simulated store inlines it.
  uint64_t Push(uint64_t now) {
    // Drop entries that have already retired.
    while (size_ > 0 && ring_[head_] <= now) {
      head_ = head_ + 1 == depth_ ? 0 : head_ + 1;
      --size_;
    }
    uint64_t stall = 0;
    if (size_ >= depth_) {
      stall = ring_[head_] - now;
      head_ = head_ + 1 == depth_ ? 0 : head_ + 1;
      --size_;
    }
    uint64_t issue = now + stall;
    unsigned tail = head_ + size_;
    if (tail >= depth_) {
      tail -= depth_;
    }
    unsigned back = tail == 0 ? depth_ - 1 : tail - 1;
    uint64_t retire = (size_ == 0 ? issue : std::max(issue, ring_[back])) + cycles_per_entry_;
    ring_[tail] = retire;
    ++size_;
    return stall;
  }

 private:
  unsigned depth_;
  unsigned cycles_per_entry_;
  std::vector<uint64_t> ring_;  // depth_ slots.
  unsigned head_ = 0;           // Oldest in-flight entry.
  unsigned size_ = 0;
};

struct MemSysConfig {
  CacheConfig icache{64 * 1024, 16};
  CacheConfig dcache{64 * 1024, 4};
  unsigned read_miss_penalty = 15;  // Cycles per I- or D-cache read miss.
  unsigned uncached_penalty = 15;   // Cycles per uncached read.
  unsigned wb_depth = 6;
  unsigned wb_cycles_per_entry = 5;
};

struct MemSysStats {
  uint64_t inst_fetches = 0;
  uint64_t icache_misses = 0;
  uint64_t data_reads = 0;
  uint64_t dcache_misses = 0;
  uint64_t data_writes = 0;
  uint64_t wb_stall_cycles = 0;
  uint64_t uncached_reads = 0;
  uint64_t uncached_writes = 0;

  bool operator==(const MemSysStats&) const = default;

  // Total memory-system stall cycles under `config` penalties: what
  // MemorySystem charged for these accesses.
  uint64_t StallCycles(const MemSysConfig& config) const {
    return (icache_misses + dcache_misses) * config.read_miss_penalty +
           uncached_reads * config.uncached_penalty + wb_stall_cycles;
  }
};

class MemorySystem {
 public:
  explicit MemorySystem(const MemSysConfig& config);

  // Each returns the stall cycles charged for the access at time `now`.
  // Defined here so the per-instruction simulation loop can inline them.
  uint64_t Fetch(uint32_t paddr, uint64_t /*now*/) {
    ++stats_.inst_fetches;
    if (icache_.Access(paddr)) {
      return 0;
    }
    ++stats_.icache_misses;
    return config_.read_miss_penalty;
  }
  uint64_t Load(uint32_t paddr, uint64_t /*now*/) {
    ++stats_.data_reads;
    if (dcache_.Access(paddr)) {
      return 0;
    }
    ++stats_.dcache_misses;
    return config_.read_miss_penalty;
  }
  uint64_t Store(uint32_t paddr, uint64_t now) {
    ++stats_.data_writes;
    dcache_.Update(paddr);  // Write-through, no write-allocate.
    uint64_t stall = write_buffer_.Push(now);
    stats_.wb_stall_cycles += stall;
    return stall;
  }
  // Counts `count` fetches that hit without a lookup: each reads the line
  // the previous fetch read, with no I-cache access between them.
  void CountFetchHits(uint64_t count) { stats_.inst_fetches += count; }
  uint64_t UncachedLoad(uint32_t /*paddr*/, uint64_t /*now*/) {
    ++stats_.uncached_reads;
    return config_.uncached_penalty;
  }
  uint64_t UncachedStore(uint32_t /*paddr*/, uint64_t now) {
    ++stats_.uncached_writes;
    uint64_t stall = write_buffer_.Push(now);
    stats_.wb_stall_cycles += stall;
    return stall;
  }

  const MemSysStats& stats() const { return stats_; }
  const MemSysConfig& config() const { return config_; }

  // Binds every counter of `stats()` plus a derived `stall_cycles` gauge
  // into `registry` under `prefix`.  The memory system must outlive
  // snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix);

 private:
  MemSysConfig config_;
  DirectMappedCache icache_;
  DirectMappedCache dcache_;
  WriteBuffer write_buffer_;
  MemSysStats stats_;
};

}  // namespace wrl

#endif  // WRLTRACE_MEMSYS_MEMSYS_H_
