// Physical memory for the simulated machine, and the disk's image.
//
// A thin owning buffer that replaces the old `std::vector<uint8_t>` backing
// store.  The difference is construction cost: a vector value-initializes
// (memsets) every byte up front, which made *building* a 64 MB machine cost
// more than *running* a small workload on it — visible as the dominant term
// of BM_TracedExecution, which boots a fresh machine per iteration.  PhysMem
// maps anonymous memory, so a simulated memory comes straight from the OS
// as lazily-faulted zero pages and construction is O(1); only pages the
// workload actually touches ever get committed, and destruction returns
// them.  The 16 MB disk image (mach/devices.h) is a PhysMem for the same
// reason: a workload's files fill a few of its pages.
//
// The mapping is explicit because calloc is not enough at disk size: once
// a 16 MB block is freed, glibc raises its dynamic mmap threshold past it,
// serves the next one from the heap, and calloc memsets all of it — a
// whole-image zero fill on every system build after the first.
#ifndef WRLTRACE_MACH_PHYS_MEM_H_
#define WRLTRACE_MACH_PHYS_MEM_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>

namespace wrl {

class PhysMem {
 public:
  explicit PhysMem(size_t bytes) : size_(bytes) {
    void* map = ::mmap(nullptr, MapBytes(), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (map == MAP_FAILED) {
      throw std::bad_alloc();
    }
    data_ = static_cast<uint8_t*>(map);
  }
  ~PhysMem() { ::munmap(data_, MapBytes()); }

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  uint8_t& operator[](size_t i) { return data_[i]; }
  uint8_t operator[](size_t i) const { return data_[i]; }

 private:
  size_t MapBytes() const { return size_ == 0 ? 1 : size_; }  // mmap rejects length 0.

  uint8_t* data_ = nullptr;
  size_t size_;
};

}  // namespace wrl

#endif  // WRLTRACE_MACH_PHYS_MEM_H_
