#include "sim/predictor.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "isa/isa.h"
#include "mach/address_space.h"
#include "support/error.h"

namespace wrl {

namespace {

// The pages [first, end) that `words` words of text at `base` touch.
std::pair<uint64_t, uint64_t> PageSpan(uint32_t base, uint64_t words) {
  return {base / kPageBytes, (base + 4 * words + kPageBytes - 1) / kPageBytes};
}

}  // namespace

TraceDrivenSimulator::Lane::Lane(const MemSysConfig& config)
    : memsys(config),
      fetch_lookup_shift(std::max(2, std::countr_zero(config.icache.line_bytes))) {}

TraceDrivenSimulator::TraceDrivenSimulator(const PredictorConfig& config)
    : config_(config),
      tlb_(config.tlb_wired),
      translator_(config.page_map),
      lane0_(config.memsys) {}

void TraceDrivenSimulator::AddTextImage(const Executable& exe) {
  Image image{exe.text_base, std::vector<uint8_t>(exe.text.size() / 4)};
  const auto [first, end] = PageSpan(image.base, image.stall_cycles.size());
  WRL_CHECK_MSG(image.base % kPageBytes == 0 && end <= (uint64_t{1} << (32 - kPageShift)),
                "a text image must start on a page and end below 2^32");
  for (const Image& other : images_) {
    const auto [other_first, other_end] = PageSpan(other.base, other.stall_cycles.size());
    WRL_CHECK_MSG(end <= other_first || other_end <= first, "text images must not share a page");
  }
  for (size_t i = 0; i < image.stall_cycles.size(); ++i) {
    uint32_t word;
    std::memcpy(&word, exe.text.data() + 4 * i, 4);
    Op op = Decode(word).op;
    image.stall_cycles[i] = static_cast<uint8_t>(IsArithStall(op) ? ArithStallCycles(op) : 0);
  }
  images_.push_back(std::move(image));
}

size_t TraceDrivenSimulator::AddMemorySystem(const MemSysConfig& memsys) {
  // Every reference bumps exactly one of these, in every lane.
  const MemSysStats& s = lane0_.memsys.stats();
  const uint64_t refs =
      s.inst_fetches + s.data_reads + s.data_writes + s.uncached_reads + s.uncached_writes;
  WRL_CHECK_MSG(refs == 0, "memory-system lanes must be added before the first reference");
  more_lanes_.emplace_back(memsys);
  return more_lanes_.size();
}

uint64_t TraceDrivenSimulator::ArithStalls(uint32_t addr, size_t count) const {
  for (const Image& image : images_) {
    // Unsigned offsets wrap below the base, so one compare bounds both ends.
    const uint32_t word = (addr - image.base) / 4;
    if (word < image.stall_cycles.size()) {
      // Words past the end stall 0: no other image starts on this page.
      const auto first = image.stall_cycles.begin() + word;
      const auto last = first + std::min<size_t>(count, image.stall_cycles.size() - word);
      return std::accumulate(first, last, uint64_t{0});
    }
  }
  return 0;
}

template <bool kMoreLanes>
void TraceDrivenSimulator::Access(const TraceRef& ref, bool kernel) {
  const uint32_t paddr = translator_.Translate(ref);
  const bool uncached = InKseg1(ref.addr);
  // The one per-lane charge: each lane prices the access on its own clock.
  auto charge = [&](Lane& lane) {
    MemorySystem& memsys = lane.memsys;
    uint64_t stall = 0;
    switch (ref.kind) {
      case TraceRef::kIfetch:
        stall = uncached ? memsys.UncachedLoad(paddr, lane.now) : memsys.Fetch(paddr, lane.now);
        break;
      case TraceRef::kLoad:
        stall = uncached ? memsys.UncachedLoad(paddr, lane.now) : memsys.Load(paddr, lane.now);
        break;
      case TraceRef::kStore:
        stall = uncached ? memsys.UncachedStore(paddr, lane.now) : memsys.Store(paddr, lane.now);
        break;
    }
    lane.Stall(stall, kernel);
    lane.now += stall;
    if (ref.kind == TraceRef::kIfetch) {
      ++lane.now;  // One CPU cycle per instruction drives write-buffer drain.
    }
  };
  charge(lane0_);
  if constexpr (kMoreLanes) {
    for (Lane& lane : more_lanes_) {
      charge(lane);
    }
  }
}

template <bool kMoreLanes>
void TraceDrivenSimulator::FetchRun(uint32_t paddr, size_t count, bool kernel) {
  const uint32_t last = paddr + 4 * static_cast<uint32_t>(count - 1);
  // Only fetches touch the I-cache, so a fetch into the line the fetch
  // before it looked up hits: each lane looks up the run's first fetch
  // into each of its lines and counts the rest.  Fetch ignores the clock,
  // and no store falls inside the run for the clock to reach, so the run's
  // cycles are added at once.
  auto charge = [&](Lane& lane) {
    const unsigned shift = lane.fetch_lookup_shift;
    const uint32_t lookups = (last >> shift) - (paddr >> shift) + 1;
    uint64_t stall = 0;
    for (uint32_t i = 0; i < lookups; ++i) {
      stall += lane.memsys.Fetch(paddr + (i << shift), lane.now);
    }
    lane.memsys.CountFetchHits(count - lookups);
    lane.Stall(stall, kernel);
    lane.now += count + stall;
  };
  charge(lane0_);
  if constexpr (kMoreLanes) {
    for (Lane& lane : more_lanes_) {
      charge(lane);
    }
  }
}

void TraceDrivenSimulator::OnRef(const TraceRef& ref) { OnRefBatch(&ref, 1); }

void TraceDrivenSimulator::OnRefBatch(const TraceRef* refs, size_t count) {
  // The lane count is fixed once references flow, so the single-lane case
  // is chosen once per batch.
  if (more_lanes_.empty()) {
    Walk<false>(refs, count);
  } else {
    Walk<true>(refs, count);
  }
}

template <bool kMoreLanes>
void TraceDrivenSimulator::Walk(const TraceRef* refs, size_t count) {
  for (size_t i = 0; i < count;) {
    const TraceRef& ref = refs[i];
    // A data reference, a kseg1 fetch, or the first fetch of a run.
    const size_t run = FetchRunLength(refs + i, count - i);
    if (ref.kind == TraceRef::kIfetch) {
      events_.instructions += run;
      if (ref.idle) {
        events_.idle_instructions += run;
      } else if (ref.kernel) {
        events_.kernel_instructions += run;
      }
      if (!ref.kernel) {
        events_.user_instructions += run;
      }
      // Pixie-style arithmetic-stall estimate from the original text.
      events_.arith_stall_cycles += ArithStalls(ref.addr, run);
    }
    if (tlb_.OnRef(ref)) {
      // The synthesized handler runs ahead of the reference that missed
      // and is charged in its mode (counted, but not re-run through the
      // TLB): its fetches are one run, then its page-table load.
      const auto& handler = tlb_.handler();
      events_.synthesized_refs += TlbSimulator::kHandlerRefs;
      FetchRun<kMoreLanes>(translator_.Translate(handler.front()),
                           TlbSimulator::kHandlerInstructions, ref.kernel);
      Access<kMoreLanes>(handler.back(), ref.kernel);
    }
    if (run == 1) {
      Access<kMoreLanes>(ref, ref.kernel);
    } else {
      // The rest of the run is on the first fetch's page: it translates
      // to the next words of its frame.
      tlb_.CountPageHits(ref.addr, run - 1);
      FetchRun<kMoreLanes>(translator_.Translate(ref), run, ref.kernel);
    }
    i += run;
  }
}

Prediction TraceDrivenSimulator::Finish() {
  events_.utlb_misses = tlb_.stats().utlb_misses;
  events_.io_stall_cycles = static_cast<double>(events_.idle_instructions) * config_.dilation;
  return prediction(0);
}

Prediction TraceDrivenSimulator::prediction(size_t lane) const {
  const Lane& l = lane == 0 ? lane0_ : more_lanes_.at(lane - 1);
  Prediction p = events_;
  p.mem_stall_cycles = l.mem_stall_cycles;
  p.user_stall_cycles = l.user_stall_cycles;
  p.kernel_stall_cycles = l.kernel_stall_cycles;
  p.memsys_stats = l.memsys.stats();
  return p;
}

void TraceDrivenSimulator::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "instructions", &events_.instructions);
  registry.AddCounter(prefix + "idle_instructions", &events_.idle_instructions);
  registry.AddCounter(prefix + "mem_stall_cycles", &lane0_.mem_stall_cycles);
  registry.AddCounter(prefix + "arith_stall_cycles", &events_.arith_stall_cycles);
  registry.AddCounter(prefix + "synthesized_refs", &events_.synthesized_refs);
  registry.AddCounter(prefix + "user_instructions", &events_.user_instructions);
  registry.AddCounter(prefix + "kernel_instructions", &events_.kernel_instructions);
  registry.AddCounter(prefix + "user_stall_cycles", &lane0_.user_stall_cycles);
  registry.AddCounter(prefix + "kernel_stall_cycles", &lane0_.kernel_stall_cycles);
  registry.AddGauge(prefix + "predicted_cycles",
                    [this] { return prediction(0).PredictedCycles(); });
  registry.AddGauge(prefix + "io_stall_cycles", [this] { return events_.io_stall_cycles; });
  lane0_.memsys.RegisterStats(registry, prefix + "memsys.");
  tlb_.RegisterStats(registry, prefix + "tlbsim.");
}

}  // namespace wrl
