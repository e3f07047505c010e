// Physical and virtual layout of the simulated operating system, plus the
// boot-parameter protocol between the host loader and the kernel.
//
// The kernel is real DS32 code: it is assembled, optionally instrumented by
// epoxie, linked, and executed on the simulated machine.  The host loader
// plays the role of boot firmware: it places the kernel image, preloads the
// user process images into physical frames chosen by the page-mapping
// policy (paper §4.2), writes the boot parameter block, and starts the
// machine at the reset vector.
#ifndef WRLTRACE_KERNEL_KERNEL_CONFIG_H_
#define WRLTRACE_KERNEL_KERNEL_CONFIG_H_

#include <cstdint>

#include "mach/address_space.h"

namespace wrl {

// ---- Physical memory layout (128 MB machine for OS runs) ----
constexpr uint32_t kOsPhysBytes = 128u << 20;
// Kernel text at phys 0 (kseg0 0x80000000); the traced kernel's bigger text
// must still fit below the boot block.
constexpr uint32_t kBootParamsPhys = 0x00100000;  // Boot parameter block (1 MB).
constexpr uint32_t kStatsPhys = 0x00180000;       // Kernel-written final stats.
// Kernel data/bss pinned here in *both* kernel builds so traced-kernel data
// addresses match the original kernel (paper §3.2).
constexpr uint32_t kKernelDataBase = kKseg0 + 0x00200000;
// Kernel stack (grows down from the top of its region).
constexpr uint32_t kKernelStackTop = kKseg0 + 0x005ff000;
// Page-table frame pool.
constexpr uint32_t kPtPoolPhysBase = 0x00600000;
constexpr uint32_t kPtPoolPages = 512;  // 2 MB of PT frames.
// Kernel tracing state: bookkeeping + the large in-kernel buffer (§4.3).
constexpr uint32_t kKernelBkAddr = kKseg0 + 0x00800000;
constexpr uint32_t kKernelScratchTraceAddr = kKseg0 + 0x00810000;  // Discard area.
constexpr uint32_t kKernelScratchTraceBytes = 256 * 1024;
constexpr uint32_t kKernelTraceBufAddr = kKseg0 + 0x00900000;
constexpr uint32_t kKernelTraceBufMaxBytes = 55u << 20;  // Up to 0x04000000.
// User frame regions start here; the loader carves per-process regions.
constexpr uint32_t kUserFramePoolPhys = 0x04000000;

// ---- User virtual layout ----
constexpr uint32_t kUserTextBase = 0x00400000;        // Original binaries.
constexpr uint32_t kUserTracedTextBase = 0x10000000;  // Instrumented binaries.
constexpr uint32_t kUserStackTop = 0x7fd00000;
constexpr uint32_t kUserStackPages = 16;
// Each process's heap limit past its bss.
constexpr uint32_t kUserHeapBytes = 8u << 20;
// kUserTraceBufBase / kUserBkBase come from trace/abi.h.

// Per-process linear page tables in kseg2: PTEBase(p) = kseg2 + p * 2 MB.
constexpr uint32_t kPteRegionBytes = 0x00200000;

// ---- Syscall numbers (in $v0) ----
enum Syscall : uint32_t {
  kSysExit = 1,
  kSysWrite = 2,
  kSysRead = 3,
  kSysOpen = 4,
  kSysClose = 5,
  kSysSbrk = 6,
  kSysGetTime = 7,
  kSysGetPid = 8,
  kSysUtlbCount = 9,
  kSysYield = 10,
  kSysMsgSend = 12,   // Mach personality.
  kSysMsgRecv = 13,   // Mach personality.
  kSysDevDiskRead = 14,   // Mach: server-only device access.
  kSysDevDiskWrite = 15,  // Mach: server-only device access.
  kSysVmCopy = 16,        // Mach: server-only cross-address-space copy.
};

// ---- Flat filesystem on the simulated disk ----
// Sector 0 holds 16 directory entries of 32 bytes:
//   name[24] (NUL padded), start_sector (u32), length_bytes (u32).
constexpr uint32_t kFsDirEntries = 16;
constexpr uint32_t kFsNameBytes = 24;
constexpr uint32_t kFsBlockBytes = 4096;           // Buffer-cache block.
constexpr uint32_t kFsBlockSectors = kFsBlockBytes / 512;

// ---- Boot parameter block (all u32 little-endian words) ----
// Header:
//   +0   magic (0x424f4f54 "BOOT")
//   +4   personality: 0 = ultrix (monolithic), 1 = mach (microkernel+server)
//   +8   tracing on/off
//   +12  clock period in cycles (0 = off)
//   +16  number of processes
//   +20  trace buffer phys base
//   +24  trace buffer bytes
//   +28  page policy: 0 linear, 1 scrambled (mach random mapping)
//   +32  policy multiplier (odd; used by the scrambled policy)
//   +36  server pid (mach; 0 = none)
//   +40  pt pool phys page number
//   +44  pt pool pages
//   +48  mapping array phys address
//   +52  analysis cost per drained word (cycles; host-charged analysis time)
// Then per-process entries of 64 bytes starting at +64:
//   +0   entry pc          +4  initial sp
//   +8   frame region base (phys page number)
//   +12  frame region pages
//   +16  heap start vaddr  +20 heap limit vaddr
//   +24  premap count      +28 premap start index (into mapping array)
//   +32  heap scramble offset (pages already consumed in the region)
// Mapping array entries are pairs of u32: (vpn | flags<<24, pfn).
//   flag bit 0: writable.
constexpr uint32_t kBootMagic = 0x424f4f54;
constexpr uint32_t kBootHeaderBytes = 64;
constexpr uint32_t kBootProcStride = 64;
constexpr uint32_t kMaxProcs = 8;
// The analysis cost per drained trace word (boot parameter +52): the host
// charges it to the traced machine at each drain.
constexpr uint32_t kAnalysisCyclesPerWord = 20;

// Offsets within the kernel-written stats block:
//   +0   magic 0x53544154 "STAT"
//   +4   utlb miss count (kernel counter — Table 3's measured side)
//   +8   tlbdropin/tlb_map_random count
//   +12  ktlb (kseg2) refill count
//   +16  clock ticks
//   +20  context switches
//   +24  trace words written (traced runs)
//   +28  analysis mode switches
//   +32 + pid*16: per-process {start cycles lo, end cycles lo, exit code, flags}
constexpr uint32_t kStatsMagic = 0x53544154;

}  // namespace wrl

#endif  // WRLTRACE_KERNEL_KERNEL_CONFIG_H_
