#include "mach/tlb.h"

#include "mach/address_space.h"

namespace wrl {

std::optional<unsigned> Tlb::Lookup(uint32_t vaddr, uint8_t asid) const {
  uint32_t vpn = vaddr >> 12;
  for (unsigned i = 0; i < kEntries; ++i) {
    if (entries_[i].Matches(vpn, asid)) {
      return i;
    }
  }
  return std::nullopt;
}

void Tlb::Reset() {
  // Park every entry on a distinct kseg0 VPN: kseg0 is unmapped, so these
  // can never match a lookup.  (Real R3000 kernels flush the TLB the same
  // way — a freshly zeroed TLB would spuriously match VPN 0.)
  for (unsigned i = 0; i < kEntries; ++i) {
    entries_[i].entry_hi = MakeEntryHi(kKseg0 + i * kPageBytes, 0);
    entries_[i].entry_lo = 0;
  }
}

}  // namespace wrl
