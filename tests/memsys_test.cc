#include "memsys/memsys.h"

#include <gtest/gtest.h>

#include "stats/stats.h"

namespace wrl {
namespace {

TEST(DirectMappedCache, HitAfterFill) {
  DirectMappedCache cache({1024, 16});
  EXPECT_FALSE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x100c));  // Same 16-byte line.
  EXPECT_FALSE(cache.Access(0x1010));  // Next line.
}

TEST(DirectMappedCache, ConflictEviction) {
  DirectMappedCache cache({1024, 16});  // 64 lines.
  EXPECT_FALSE(cache.Access(0x0000));
  EXPECT_FALSE(cache.Access(0x0400));  // Same index, different tag.
  EXPECT_FALSE(cache.Access(0x0000));  // Evicted.
}

TEST(DirectMappedCache, UpdateDoesNotAllocate) {
  DirectMappedCache cache({1024, 16});
  EXPECT_FALSE(cache.Update(0x2000));  // Not present; write-through only.
  EXPECT_FALSE(cache.Access(0x2000));  // Still a miss.
  EXPECT_TRUE(cache.Update(0x2000));   // Present now.
}

TEST(WriteBuffer, NoStallWhenNotFull) {
  WriteBuffer wb(4, 5);
  EXPECT_EQ(wb.Push(0), 0u);
  EXPECT_EQ(wb.Push(1), 0u);
  EXPECT_EQ(wb.Push(2), 0u);
  EXPECT_EQ(wb.Push(3), 0u);
}

TEST(WriteBuffer, StallsWhenFull) {
  WriteBuffer wb(2, 10);
  EXPECT_EQ(wb.Push(0), 0u);   // Retires at 10.
  EXPECT_EQ(wb.Push(0), 0u);   // Retires at 20.
  uint64_t stall = wb.Push(0);  // Must wait for the first entry.
  EXPECT_EQ(stall, 10u);
}

TEST(WriteBuffer, DrainsOverTime) {
  WriteBuffer wb(2, 10);
  wb.Push(0);
  wb.Push(0);
  // At time 25 both entries have retired.
  EXPECT_EQ(wb.Push(25), 0u);
}

TEST(WriteBuffer, BurstThenRecovery) {
  WriteBuffer wb(6, 5);
  uint64_t now = 0;
  uint64_t total_stall = 0;
  for (int i = 0; i < 20; ++i) {
    uint64_t stall = wb.Push(now);
    total_stall += stall;
    now += 1 + stall;
  }
  // 20 stores, drain rate 1/5 cycles: heavy stalling expected.
  EXPECT_GT(total_stall, 40u);
}

TEST(MemorySystem, FetchMissAccounting) {
  MemSysConfig config;
  config.icache = {256, 16};
  MemorySystem ms(config);
  EXPECT_EQ(ms.Fetch(0x0, 0), config.read_miss_penalty);
  EXPECT_EQ(ms.Fetch(0x4, 1), 0u);
  EXPECT_EQ(ms.stats().inst_fetches, 2u);
  EXPECT_EQ(ms.stats().icache_misses, 1u);
}

TEST(MemorySystem, LoadStoreAccounting) {
  MemSysConfig config;
  config.dcache = {256, 4};
  MemorySystem ms(config);
  ms.Load(0x100, 0);
  ms.Load(0x100, 1);
  ms.Store(0x200, 2);
  EXPECT_EQ(ms.stats().data_reads, 2u);
  EXPECT_EQ(ms.stats().dcache_misses, 1u);
  EXPECT_EQ(ms.stats().data_writes, 1u);
}

TEST(MemorySystem, UncachedCharged) {
  MemorySystem ms(MemSysConfig{});
  EXPECT_EQ(ms.UncachedLoad(0x1fd00008, 0), ms.config().uncached_penalty);
  EXPECT_EQ(ms.stats().uncached_reads, 1u);
}

TEST(MemorySystem, StallCyclesFormula) {
  MemSysConfig config;
  config.icache = {64, 16};
  config.dcache = {64, 4};
  MemorySystem ms(config);
  ms.Fetch(0, 0);           // miss
  ms.Load(0x1000, 0);       // miss
  ms.UncachedLoad(0x2000, 0);
  const MemSysStats& s = ms.stats();
  EXPECT_EQ(s.StallCycles(config), 3u * config.read_miss_penalty + s.wb_stall_cycles);
}

// The stall_cycles gauge is the sum of the stalls the model charged, with
// the read-miss and uncached penalties apart.
TEST(MemorySystem, StallCyclesGaugeMatchesChargedStalls) {
  MemSysConfig config;
  config.icache = {64, 16};
  config.dcache = {64, 4};
  config.read_miss_penalty = 15;
  config.uncached_penalty = 40;
  config.wb_depth = 1;
  MemorySystem ms(config);
  uint64_t charged = 0;
  uint64_t now = 0;
  auto charge = [&](uint64_t stall) {
    charged += stall;
    now += 1 + stall;
  };
  for (uint32_t i = 0; i < 8; ++i) {
    charge(ms.Fetch(i * 64, now));
    charge(ms.Load(0x1000 + i * 4, now));
    charge(ms.UncachedLoad(0x2000, now));
    charge(ms.Store(0x3000, now));
    charge(ms.UncachedStore(0x4000, now));
  }
  EXPECT_GT(ms.stats().uncached_reads, 0u);
  EXPECT_GT(ms.stats().wb_stall_cycles, 0u);
  EXPECT_EQ(ms.stats().StallCycles(config), charged);
  StatsRegistry registry;
  ms.RegisterStats(registry, "memsys.");
  EXPECT_DOUBLE_EQ(registry.Snapshot().GaugeValue("memsys.stall_cycles"),
                   static_cast<double>(charged));
}

// Property sweep: for any cache geometry, a linear scan touching each line
// once then repeated must miss exactly lines_touched times on the first pass
// and zero on the second (when the footprint fits).
struct Geometry {
  uint32_t size;
  uint32_t line;
};

class CacheSweepTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheSweepTest, LinearScanMissesOncePerLine) {
  const Geometry geometry = GetParam();
  DirectMappedCache cache({geometry.size, geometry.line});
  uint32_t misses = 0;
  for (uint32_t addr = 0; addr < geometry.size; addr += 4) {
    if (!cache.Access(addr)) {
      ++misses;
    }
  }
  EXPECT_EQ(misses, geometry.size / geometry.line);
  for (uint32_t addr = 0; addr < geometry.size; addr += 4) {
    EXPECT_TRUE(cache.Access(addr));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheSweepTest,
                         ::testing::Values(Geometry{256, 4}, Geometry{256, 16},
                                           Geometry{1024, 4}, Geometry{1024, 32},
                                           Geometry{64 * 1024, 16}, Geometry{64 * 1024, 4}));

}  // namespace
}  // namespace wrl
