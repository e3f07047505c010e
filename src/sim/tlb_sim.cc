#include "sim/tlb_sim.h"

#include "mach/address_space.h"

namespace wrl {

void TlbSimulator::Refill(uint32_t vaddr, const TlbEntry& entry) {
  const unsigned slot = tlb_.Random(instruction_counter_);
  tlb_.entry(slot) = entry;
  hint_[HintSlot(vaddr)] = static_cast<uint8_t>(slot);
}

bool TlbSimulator::OnRef(const TraceRef& ref) {
  if (ref.kind == TraceRef::kIfetch) {
    ++instruction_counter_;
  }
  uint32_t vaddr = ref.addr;
  if (InKseg0(vaddr) || InKseg1(vaddr)) {
    return false;  // Unmapped segments never touch the TLB.
  }
  uint8_t asid = (ref.pid == kKernelPid) ? 0 : ref.pid;
  if (InKseg2(vaddr)) {
    // Mapped kernel segment: global entries.
    if (!Find(vaddr, asid)) {
      ++stats_.ktlb_misses;
      Refill(vaddr, {MakeEntryHi(vaddr, asid), MakeEntryLo(vaddr & 0x0ffff000u, true, true, true)});
    }
    return false;
  }
  // kuseg: the user segment (the kernel also reaches user buffers here).
  // The ASID must be the *owning* process's — for kernel references we use
  // the current process context recorded in the trace; kernel refs carry
  // pid of the interrupted user where known.  Our parser tags kernel refs
  // with kKernelPid, so attribute them to ASID of the last user context via
  // the pid embedded in the reference when not kernel.
  ++stats_.user_refs;
  if (ref.pid != kKernelPid) {
    asid = ref.pid;
  } else {
    asid = last_user_asid_ == 0 ? 1 : last_user_asid_;
  }
  if (ref.pid != kKernelPid) {
    last_user_asid_ = ref.pid;
  }
  auto index = Find(vaddr, asid);
  if (index && tlb_.entry(*index).valid()) {
    return false;
  }
  ++stats_.utlb_misses;
  Refill(vaddr, {MakeEntryHi(vaddr, asid), MakeEntryLo(0, true, true, false)});
  SynthesizeHandler({vaddr, ref.kind, 4, asid, false, false});
  return true;
}

void TlbSimulator::SynthesizeHandler(const TraceRef& ref) {
  if (synth_sink_ == nullptr) {
    return;
  }
  // One batch per miss: thirteen fetches at the dedicated refill vector,
  // then the linear page-table load in kseg2 (PTEBase + vpn*4).
  TraceRef handler[kHandlerInstructions + 1];
  for (unsigned i = 0; i < kHandlerInstructions; ++i) {
    handler[i] = {kVecUtlbMiss + 4 * i, TraceRef::kIfetch, 4, kKernelPid, true, false};
  }
  uint32_t pte_addr = kKseg2 + (static_cast<uint32_t>(ref.pid) << 21) + ((ref.addr >> 12) << 2);
  handler[kHandlerInstructions] = {pte_addr, TraceRef::kLoad, 4, kKernelPid, true, false};
  synth_sink_->OnRefBatch(handler, kHandlerInstructions + 1);
}

}  // namespace wrl
