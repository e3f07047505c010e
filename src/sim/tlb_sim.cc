#include "sim/tlb_sim.h"

namespace wrl {

TlbSimulator::TlbSimulator(unsigned wired) : tlb_(wired) {
  // The handler's fetches never change; a miss rewrites only its
  // page-table load.
  for (unsigned i = 0; i < kHandlerInstructions; ++i) {
    handler_[i] = {kVecUtlbMiss + 4 * i, TraceRef::kIfetch, 4, kKernelPid, true, false};
  }
  handler_[kHandlerInstructions] = {kKseg2, TraceRef::kLoad, 4, kKernelPid, true, false};
}

void TlbSimulator::Refill(uint32_t vaddr, const TlbEntry& entry) {
  const unsigned slot = tlb_.Random(instruction_counter_);
  tlb_.entry(slot) = entry;
  hint_[HintSlot(vaddr)] = static_cast<uint8_t>(slot);
}

bool TlbSimulator::OnHintMiss(uint32_t vaddr, uint8_t asid, bool kseg2) {
  const std::optional<unsigned> index = Find(vaddr, asid);
  if (kseg2) {
    if (!index) {
      ++stats_.ktlb_misses;
      Refill(vaddr, {MakeEntryHi(vaddr, asid), MakeEntryLo(vaddr & 0x0ffff000u, true, true, true)});
    }
    return false;
  }
  if (index && tlb_.entry(*index).valid()) {
    return false;
  }
  ++stats_.utlb_misses;
  Refill(vaddr, {MakeEntryHi(vaddr, asid), MakeEntryLo(0, true, true, false)});
  // The handler's linear page-table load: PTEBase + vpn*4.
  handler_[kHandlerInstructions].addr =
      kKseg2 + (static_cast<uint32_t>(asid) << 21) + ((vaddr >> 12) << 2);
  return true;
}

}  // namespace wrl
