// Memory-mapped devices of the simulated DECstation.
//
// All devices live in one page of kseg1 (see address_space.h):
//
//   +0x00  CONSOLE_PUTC   (w)  emit one character
//   +0x04  HALT           (w)  stop the machine; value = exit code
//   +0x08  CYCLE_LO       (r)  low 32 bits of the cycle counter; latches HI
//   +0x0c  CYCLE_HI       (r)  latched high 32 bits
//   +0x10  CLOCK_PERIOD   (rw) cycles between clock interrupts (0 = off)
//   +0x14  CLOCK_ACK      (w)  acknowledge a clock interrupt
//   +0x20  DISK_SECTOR    (rw) first sector of the transfer
//   +0x24  DISK_ADDR      (rw) physical byte address of the DMA buffer
//   +0x28  DISK_COUNT     (rw) sectors to transfer
//   +0x2c  DISK_CMD       (w)  1 = read, 2 = write
//   +0x30  DISK_STATUS    (r)  0 idle, 1 busy, 2 done (interrupt pending)
//   +0x34  DISK_ACK       (w)  acknowledge a disk interrupt
//   +0x40  HOSTCALL       (rw) write: invoke the host callback with the
//                              value; read: the callback's last reply.  The
//                              traced kernel uses this to hand the in-kernel
//                              buffer to the analysis program.
//   +0x44  CONSOLE_PUTDEC (w)  emit a decimal number (debug convenience)
//
// The disk charges a latency in *machine cycles* before completing a
// transfer and raising its interrupt, so a workload doing synchronous I/O
// spends real simulated time in the kernel idle loop — the raw material for
// the paper's time-dilation and read-ahead discussions (§4.1, §5.1).
#ifndef WRLTRACE_MACH_DEVICES_H_
#define WRLTRACE_MACH_DEVICES_H_

#include <cstdint>
#include <functional>
#include <string>

#include "mach/phys_mem.h"

namespace wrl {

// Device register offsets within the device page.
enum DeviceReg : uint32_t {
  kDevConsolePutc = 0x00,
  kDevHalt = 0x04,
  kDevCycleLo = 0x08,
  kDevCycleHi = 0x0c,
  kDevClockPeriod = 0x10,
  kDevClockAck = 0x14,
  kDevDiskSector = 0x20,
  kDevDiskAddr = 0x24,
  kDevDiskCount = 0x28,
  kDevDiskCmd = 0x2c,
  kDevDiskStatus = 0x30,
  kDevDiskAck = 0x34,
  kDevHostcall = 0x40,
  kDevConsolePutdec = 0x44,
};

constexpr uint32_t kDiskSectorBytes = 512;

struct DiskConfig {
  uint32_t num_sectors = 32 * 1024;      // 16 MB disk.
  uint64_t seek_cycles = 200000;         // Fixed per-operation latency.
  uint64_t per_sector_cycles = 10000;    // Transfer time per sector.
};

// The DMA disk.  Owns the disk image: a flat byte array in a PhysMem, so
// only the pages something writes (the host's BuildDiskImage, or a DMA
// write) are ever committed.  A sector nobody wrote reads as zeros.
class Disk {
 public:
  explicit Disk(const DiskConfig& config);

  PhysMem& image() { return image_; }
  const DiskConfig& config() const { return config_; }

  // Register interface (called by the machine's MMIO dispatch).
  void WriteReg(uint32_t reg, uint32_t value, uint64_t now);
  uint32_t ReadReg(uint32_t reg) const;

  // Advances device time; performs DMA on completion.  Returns true while
  // the completion interrupt should be asserted.  When a read transfer
  // completes, `*dma_paddr`/`*dma_bytes` (if non-null) report the physical
  // range the DMA wrote, so the machine can invalidate predecoded pages.
  bool Tick(uint64_t now, PhysMem& phys_mem, uint32_t* dma_paddr = nullptr,
            uint32_t* dma_bytes = nullptr);

  bool busy() const { return status_ == 1; }
  bool irq() const { return irq_; }
  uint64_t completion_time() const { return completion_time_; }
  uint64_t operations() const { return operations_; }

 private:
  DiskConfig config_;
  PhysMem image_;
  uint32_t sector_ = 0;
  uint32_t dma_addr_ = 0;
  uint32_t count_ = 0;
  uint32_t command_ = 0;
  uint32_t status_ = 0;  // 0 idle, 1 busy, 2 done.
  bool irq_ = false;
  uint64_t completion_time_ = 0;
  uint64_t operations_ = 0;
};

// The programmable interval clock.
class Clock {
 public:
  void WriteReg(uint32_t reg, uint32_t value, uint64_t now);
  uint32_t ReadReg(uint32_t /*reg*/) const { return period_; }
  // Returns true while the clock interrupt should be asserted.
  bool Tick(uint64_t now);

  uint32_t period() const { return period_; }
  bool irq() const { return irq_; }
  // The next cycle at which Tick can change state (only meaningful while
  // the clock is running, i.e. period() != 0).
  uint64_t next_tick() const { return next_tick_; }
  uint64_t ticks() const { return ticks_; }

 private:
  uint32_t period_ = 0;
  uint64_t next_tick_ = 0;
  uint64_t ticks_ = 0;
  bool irq_ = false;
};

// The console: collects output for the harness/tests.
class Console {
 public:
  void PutChar(char c) { output_.push_back(c); }
  void PutDec(uint32_t value) { output_ += std::to_string(value); }
  const std::string& output() const { return output_; }
  void Clear() { output_.clear(); }

 private:
  std::string output_;
};

}  // namespace wrl

#endif  // WRLTRACE_MACH_DEVICES_H_
