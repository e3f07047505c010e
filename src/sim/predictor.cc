#include "sim/predictor.h"

#include <cstring>

#include "isa/isa.h"
#include "mach/address_space.h"
#include "support/error.h"

namespace wrl {

TraceDrivenSimulator::TraceDrivenSimulator(const PredictorConfig& config)
    : config_(config),
      tlb_(config.tlb_wired),
      translator_(config.page_map),
      lane0_(config.memsys) {}

void TraceDrivenSimulator::AddTextImage(const Executable& exe) {
  Image image{exe.text_base, std::vector<uint8_t>(exe.text.size() / 4)};
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

unsigned TraceDrivenSimulator::ArithStallAt(uint32_t addr) const {
  for (const Image& image : images_) {
    // Unsigned offsets wrap below the base, so one compare bounds both ends.
    const uint32_t word = (addr - image.base) / 4;
    if (word < image.stall_cycles.size()) {
      return image.stall_cycles[word];
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
    lane.mem_stall_cycles += stall;
    if (kernel) {
      lane.kernel_stall_cycles += stall;
    } else {
      lane.user_stall_cycles += stall;
    }
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
  for (size_t i = 0; i < count; ++i) {
    const TraceRef& ref = refs[i];
    if (ref.kind == TraceRef::kIfetch) {
      ++events_.instructions;
      if (ref.idle) {
        ++events_.idle_instructions;
      } else if (ref.kernel) {
        ++events_.kernel_instructions;
      }
      if (!ref.kernel) {
        ++events_.user_instructions;
      }
      // Pixie-style arithmetic-stall estimate from the original text.
      events_.arith_stall_cycles += ArithStallAt(ref.addr);
    }
    if (tlb_.OnRef(ref)) {
      // The synthesized handler runs ahead of the reference that missed
      // and is charged in its mode (counted, but not re-run through the
      // TLB).
      events_.synthesized_refs += TlbSimulator::kHandlerRefs;
      for (const TraceRef& handler_ref : tlb_.handler()) {
        Access<kMoreLanes>(handler_ref, ref.kernel);
      }
    }
    Access<kMoreLanes>(ref, ref.kernel);
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
