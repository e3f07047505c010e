#include "sim/predictor.h"

#include <cstring>

#include "isa/isa.h"
#include "mach/address_space.h"

namespace wrl {

TraceDrivenSimulator::TraceDrivenSimulator(const PredictorConfig& config)
    : config_(config), memsys_(config.memsys), tlb_(config.tlb_wired),
      translator_(config.page_map) {
  tlb_.SetSynthesizedSink(&synth_sink_);
}

void TraceDrivenSimulator::SynthSink::OnRefBatch(const TraceRef* refs, size_t count) {
  owner_->result_.synthesized_refs += count;
  for (size_t i = 0; i < count; ++i) {
    owner_->Access(refs[i]);
  }
}

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

void TraceDrivenSimulator::Access(const TraceRef& ref) {
  uint32_t paddr = translator_.Translate(ref);
  bool uncached = InKseg1(ref.addr);
  uint64_t stall = 0;
  switch (ref.kind) {
    case TraceRef::kIfetch:
      stall = uncached ? memsys_.UncachedLoad(paddr, now_) : memsys_.Fetch(paddr, now_);
      break;
    case TraceRef::kLoad:
      stall = uncached ? memsys_.UncachedLoad(paddr, now_) : memsys_.Load(paddr, now_);
      break;
    case TraceRef::kStore:
      stall = uncached ? memsys_.UncachedStore(paddr, now_) : memsys_.Store(paddr, now_);
      break;
  }
  result_.mem_stall_cycles += stall;
  if (current_is_kernel_) {
    result_.kernel_stall_cycles += stall;
  } else {
    result_.user_stall_cycles += stall;
  }
  now_ += stall;
  if (ref.kind == TraceRef::kIfetch) {
    ++now_;  // One CPU cycle per instruction drives write-buffer drain.
  }
}

void TraceDrivenSimulator::OnRef(const TraceRef& ref) {
  current_is_kernel_ = ref.kernel;
  if (ref.kind == TraceRef::kIfetch) {
    ++result_.instructions;
    if (ref.idle) {
      ++result_.idle_instructions;
    } else if (ref.kernel) {
      ++result_.kernel_instructions;
    }
    if (!ref.kernel) {
      ++result_.user_instructions;
    }
    // Pixie-style arithmetic-stall estimate from the original text.
    result_.arith_stall_cycles += ArithStallAt(ref.addr);
  }
  tlb_.OnRef(ref);
  Access(ref);
}

void TraceDrivenSimulator::OnRefBatch(const TraceRef* refs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    OnRef(refs[i]);
  }
}

Prediction TraceDrivenSimulator::Finish() {
  result_.utlb_misses = tlb_.stats().utlb_misses;
  result_.io_stall_cycles = static_cast<double>(result_.idle_instructions) * config_.dilation;
  result_.memsys_stats = memsys_.stats();
  return result_;
}

void TraceDrivenSimulator::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "instructions", &result_.instructions);
  registry.AddCounter(prefix + "idle_instructions", &result_.idle_instructions);
  registry.AddCounter(prefix + "mem_stall_cycles", &result_.mem_stall_cycles);
  registry.AddCounter(prefix + "arith_stall_cycles", &result_.arith_stall_cycles);
  registry.AddCounter(prefix + "synthesized_refs", &result_.synthesized_refs);
  registry.AddCounter(prefix + "user_instructions", &result_.user_instructions);
  registry.AddCounter(prefix + "kernel_instructions", &result_.kernel_instructions);
  registry.AddCounter(prefix + "user_stall_cycles", &result_.user_stall_cycles);
  registry.AddCounter(prefix + "kernel_stall_cycles", &result_.kernel_stall_cycles);
  registry.AddGauge(prefix + "predicted_cycles", [this] { return result_.PredictedCycles(); });
  registry.AddGauge(prefix + "io_stall_cycles", [this] { return result_.io_stall_cycles; });
  memsys_.RegisterStats(registry, prefix + "memsys.");
  tlb_.RegisterStats(registry, prefix + "tlbsim.");
}

}  // namespace wrl
