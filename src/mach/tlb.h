// The R3000-style software-managed TLB: 64 fully-associative entries,
// tlbwr-based random replacement with a free-running Random register
// confined to the unwired range, and an ASID tag so address spaces need not
// be flushed on context switch.
#ifndef WRLTRACE_MACH_TLB_H_
#define WRLTRACE_MACH_TLB_H_

#include <array>
#include <cstdint>
#include <optional>

namespace wrl {

// EntryHi layout: VPN in 31:12, ASID in 11:6.
// EntryLo layout: PFN in 31:12, N=11 (uncached), D=10 (dirty/writable),
//                 V=9 (valid), G=8 (global: ignore ASID).
struct TlbEntry {
  uint32_t entry_hi = 0;
  uint32_t entry_lo = 0;

  uint32_t vpn() const { return entry_hi >> 12; }
  uint8_t asid() const { return static_cast<uint8_t>((entry_hi >> 6) & 63); }
  uint32_t pfn() const { return entry_lo >> 12; }
  bool uncached() const { return (entry_lo >> 11) & 1; }
  bool dirty() const { return (entry_lo >> 10) & 1; }
  bool valid() const { return (entry_lo >> 9) & 1; }
  bool global() const { return (entry_lo >> 8) & 1; }

  // The associative match rule: VPN equality and (global || ASID match);
  // validity and dirtiness are the caller's business, as on real hardware.
  bool Matches(uint32_t page, uint8_t match_asid) const {
    return vpn() == page && (global() || asid() == match_asid);
  }
};

inline uint32_t MakeEntryHi(uint32_t vaddr, uint8_t asid) {
  return (vaddr & 0xfffff000u) | (uint32_t{asid} << 6);
}
inline uint32_t MakeEntryLo(uint32_t paddr, bool dirty, bool valid, bool global,
                            bool uncached = false) {
  return (paddr & 0xfffff000u) | (uint32_t{uncached} << 11) | (uint32_t{dirty} << 10) |
         (uint32_t{valid} << 9) | (uint32_t{global} << 8);
}

class Tlb {
 public:
  static constexpr unsigned kEntries = 64;
  // Entries below this index are wired: tlbwr never replaces them.
  static constexpr unsigned kWired = 8;

  explicit Tlb(unsigned wired = kWired) : wired_(wired) { Reset(); }

  // Associative lookup (TlbEntry::Matches).  Returns the first matching
  // entry's index, or nullopt.
  std::optional<unsigned> Lookup(uint32_t vaddr, uint8_t asid) const;

  TlbEntry& entry(unsigned index) { return entries_[index]; }
  const TlbEntry& entry(unsigned index) const { return entries_[index]; }

  // The Random register: decrements every instruction, wrapping within
  // [wired, kEntries).  Deterministic given the instruction count.
  unsigned Random(uint64_t instruction_count) const {
    unsigned range = kEntries - wired_;
    return wired_ + static_cast<unsigned>((kEntries - 1 - (instruction_count % range)) % range);
  }

  unsigned wired() const { return wired_; }
  void Reset();

 private:
  unsigned wired_;
  std::array<TlbEntry, kEntries> entries_{};
};

}  // namespace wrl

#endif  // WRLTRACE_MACH_TLB_H_
