#include "mach/devices.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"
#include "support/strings.h"

namespace wrl {

Disk::Disk(const DiskConfig& config)
    : config_(config), image_(static_cast<size_t>(config.num_sectors) * kDiskSectorBytes) {}

void Disk::WriteReg(uint32_t reg, uint32_t value, uint64_t now) {
  switch (reg) {
    case kDevDiskSector:
      sector_ = value;
      break;
    case kDevDiskAddr:
      dma_addr_ = value;
      break;
    case kDevDiskCount:
      count_ = value;
      break;
    case kDevDiskCmd:
      if (status_ == 1) {
        throw Error("disk command issued while busy");
      }
      if (value != 1 && value != 2) {
        throw Error(StrFormat("bad disk command %u", value));
      }
      if (static_cast<uint64_t>(sector_) + count_ > config_.num_sectors) {
        throw Error(StrFormat("disk transfer beyond end of disk (sector %u count %u)", sector_,
                              count_));
      }
      command_ = value;
      status_ = 1;
      completion_time_ = now + config_.seek_cycles +
                         static_cast<uint64_t>(count_) * config_.per_sector_cycles;
      ++operations_;
      break;
    case kDevDiskAck:
      irq_ = false;
      if (status_ == 2) {
        status_ = 0;
      }
      break;
    default:
      throw Error(StrFormat("bad disk register write 0x%x", reg));
  }
}

uint32_t Disk::ReadReg(uint32_t reg) const {
  switch (reg) {
    case kDevDiskSector: return sector_;
    case kDevDiskAddr: return dma_addr_;
    case kDevDiskCount: return count_;
    case kDevDiskStatus: return status_;
    default:
      throw Error(StrFormat("bad disk register read 0x%x", reg));
  }
}

bool Disk::Tick(uint64_t now, PhysMem& phys_mem, uint32_t* dma_paddr, uint32_t* dma_bytes) {
  if (status_ == 1 && now >= completion_time_) {
    size_t bytes = static_cast<size_t>(count_) * kDiskSectorBytes;
    size_t disk_off = static_cast<size_t>(sector_) * kDiskSectorBytes;
    WRL_CHECK_MSG(static_cast<size_t>(dma_addr_) + bytes <= phys_mem.size(),
                  StrFormat("disk DMA out of physical memory at 0x%08x", dma_addr_));
    // The command write checked the range, but the guest may rewrite the
    // sector and count registers while the transfer is in flight.
    WRL_CHECK_MSG(disk_off + bytes <= image_.size(),
                  StrFormat("disk DMA beyond end of disk (sector %u count %u)", sector_, count_));
    if (command_ == 1) {
      std::memcpy(phys_mem.data() + dma_addr_, image_.data() + disk_off, bytes);
      if (dma_paddr != nullptr) {
        *dma_paddr = dma_addr_;
        *dma_bytes = static_cast<uint32_t>(bytes);
      }
    } else {
      std::memcpy(image_.data() + disk_off, phys_mem.data() + dma_addr_, bytes);
    }
    status_ = 2;
    irq_ = true;
  }
  return irq_;
}

void Clock::WriteReg(uint32_t reg, uint32_t value, uint64_t now) {
  switch (reg) {
    case kDevClockPeriod:
      period_ = value;
      next_tick_ = (value == 0) ? 0 : now + value;
      break;
    case kDevClockAck:
      irq_ = false;
      break;
    default:
      throw Error(StrFormat("bad clock register write 0x%x", reg));
  }
}

bool Clock::Tick(uint64_t now) {
  if (period_ != 0 && now >= next_tick_) {
    irq_ = true;
    ++ticks_;
    next_tick_ = now + period_;
  }
  return irq_;
}

}  // namespace wrl
