#include "memsys/memsys.h"

#include "support/error.h"

namespace wrl {

namespace {

uint32_t Log2Exact(uint32_t value) {
  uint32_t shift = 0;
  while ((1u << shift) < value) {
    ++shift;
  }
  return shift;
}

}  // namespace

DirectMappedCache::DirectMappedCache(const CacheConfig& config) : config_(config) {
  WRL_CHECK(config.line_bytes > 0 && (config.line_bytes & (config.line_bytes - 1)) == 0);
  WRL_CHECK(config.size_bytes % config.line_bytes == 0);
  const uint32_t num_lines = config.size_bytes / config.line_bytes;
  // The shift/mask fast path needs a power-of-two line count too, and at
  // least one geometry bit so real (32-bit) tags stay below the sentinel.
  WRL_CHECK(num_lines > 0 && (num_lines & (num_lines - 1)) == 0);
  line_shift_ = Log2Exact(config.line_bytes);
  index_bits_ = Log2Exact(num_lines);
  index_mask_ = num_lines - 1;
  WRL_CHECK(line_shift_ + index_bits_ > 0);
  tags_.assign(num_lines, kInvalidTag);
}

WriteBuffer::WriteBuffer(unsigned depth, unsigned cycles_per_entry)
    : depth_(depth), cycles_per_entry_(cycles_per_entry) {
  WRL_CHECK(depth_ > 0);
  ring_.assign(depth_, 0);
}

MemorySystem::MemorySystem(const MemSysConfig& config)
    : config_(config),
      icache_(config.icache),
      dcache_(config.dcache),
      write_buffer_(config.wb_depth, config.wb_cycles_per_entry) {}

void MemorySystem::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "inst_fetches", &stats_.inst_fetches);
  registry.AddCounter(prefix + "icache_misses", &stats_.icache_misses);
  registry.AddCounter(prefix + "data_reads", &stats_.data_reads);
  registry.AddCounter(prefix + "dcache_misses", &stats_.dcache_misses);
  registry.AddCounter(prefix + "data_writes", &stats_.data_writes);
  registry.AddCounter(prefix + "wb_stall_cycles", &stats_.wb_stall_cycles);
  registry.AddCounter(prefix + "uncached_reads", &stats_.uncached_reads);
  registry.AddCounter(prefix + "uncached_writes", &stats_.uncached_writes);
  registry.AddGauge(prefix + "stall_cycles",
                    [this] { return static_cast<double>(stats_.StallCycles(config_)); });
}

}  // namespace wrl
