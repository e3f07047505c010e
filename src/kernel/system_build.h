// Building and booting complete systems: kernel + user processes + disk.
//
// The host side plays boot firmware and, for traced runs, the analysis
// program's transport: it compiles and links the kernel and the workload
// (original and instrumented variants), chooses physical frames for every
// user page according to the page-mapping policy (paper §4.2), writes the
// boot parameter block, preloads the images ("warmed" memory, like the
// paper's warmed buffer cache), builds the disk image for the flat
// filesystem, and services HOSTCALL drains of the in-kernel trace buffer.
// While a traced system runs, the host also publishes the buffer's finished
// prefix to the trace sink, so the analysis works during the traced run
// rather than after it; it only reads simulated memory to do so.
#ifndef WRLTRACE_KERNEL_SYSTEM_BUILD_H_
#define WRLTRACE_KERNEL_SYSTEM_BUILD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "epoxie/epoxie.h"
#include "kernel/kernel_config.h"
#include "mach/machine.h"
#include "obj/object_file.h"
#include "stats/events.h"
#include "stats/stats.h"
#include "trace/parser.h"

namespace wrl {

enum class Personality : uint32_t { kUltrix = 0, kMach = 1 };
enum class PagePolicy : uint32_t { kLinear = 0, kScrambled = 1 };

struct DiskFile {
  std::string name;  // Max 23 chars.
  std::vector<uint8_t> content;
  // Extra zero-filled capacity after the content (for writable files).
  uint32_t extra_capacity = 0;
};

struct SystemConfig {
  Personality personality = Personality::kUltrix;
  bool tracing = false;
  // Clock period in cycles.  Traced systems scale this by the dilation
  // factor (paper §4.1: interrupts at 1/15th the standard rate).
  uint32_t clock_period = 200000;
  PagePolicy policy = PagePolicy::kLinear;
  uint32_t policy_mult = 9;  // Odd multiplier for the scrambled permutation.
  uint32_t trace_buf_bytes = 8u << 20;
  // Liveness-driven scavenging in epoxie (header `sw ra` elision, shadow
  // windows through dead scratch registers).  The reconstructed reference
  // stream and every prediction are bit-identical either way; only the
  // instrumented text growth (and thus dilation) changes.
  bool scavenge = ScavengeEnabled();
  // The workload program (defines `main`).  Under Mach a UNIX-server
  // process is added automatically as pid 2.
  std::string program_source;
  std::string program_name = "workload";
  std::vector<DiskFile> files;
  DiskConfig disk;
  // The underlying machine's simulation fast path (architectural results
  // are identical either way; see MachineConfig::fastpath).
  bool fastpath = true;
  // Optional timeline: trace drains (mode switches) become instant events.
  EventRecorder* events = nullptr;
};

// Everything known about one bootable instance.
class SystemInstance {
 public:
  SystemInstance() = default;

  Machine& machine() { return *machine_; }
  const Executable& kernel_exe() const { return kernel_exe_; }
  // Original (uninstrumented) images — the address space the reconstructed
  // trace refers to; symbolization sources for the profiler.  For untraced
  // systems kernel_orig == kernel_exe and server_orig == server_exe.
  const Executable& kernel_orig() const { return kernel_orig_; }
  const Executable& workload_orig() const { return workload_orig_; }
  const Executable& server_orig() const { return server_orig_; }
  // Runs to halt or until `max_instructions` more instructions retire.  A
  // traced system runs in fixed instruction slices: after each it hands the
  // sink the finished words of the in-kernel buffer once enough have built
  // up, and it services the kernel's drains along the way.  A run that
  // stops on its budget hands over every finished word; the run that halts
  // the machine performs the final drain, once.  Splitting a budget across
  // calls therefore delivers exactly the words one call would.
  RunResult Run(uint64_t max_instructions);

  // ---- Results ----
  std::string ConsoleOutput() const;
  // Kernel-written stats block fields.
  uint32_t StatsWord(uint32_t offset) const;
  uint64_t UtlbMissCount() const { return StatsWord(4); }
  uint64_t TlbDropins() const { return StatsWord(8); }
  uint64_t KtlbRefills() const { return StatsWord(12); }
  uint64_t ContextSwitches() const { return StatsWord(20); }
  uint64_t AnalysisSwitches() const { return StatsWord(28); }
  // Per-pid cycles between first schedule and exit.
  uint64_t ProcessCycles(uint32_t pid) const;
  uint32_t ProcessExitCode(uint32_t pid) const;

  // ---- Tracing ----
  // Registers the consumer of raw trace words.  Each call hands over the
  // next stretch of the kernel's trace in order: a drain (mode switch, or
  // the final one at halt) is published as one or more chunks, the earlier
  // ones while the machine still runs.  Only meaningful when tracing.
  void SetTraceSink(std::function<void(const uint32_t*, size_t)> sink) {
    trace_sink_ = std::move(sink);
  }
  const TraceInfoTable& kernel_table() const { return kernel_table_; }
  const TraceInfoTable& user_table() const { return user_table_; }
  // One user address space the trace covers: the table its trace keys
  // resolve against and the original image its references name.
  struct UserSpace {
    uint8_t pid;
    const TraceInfoTable* table;
    const Executable* orig;
    std::string name;
  };
  // The workload (pid 1) and, under Mach, the UNIX server (pid 2).
  std::vector<UserSpace> user_spaces() const;
  uint64_t trace_words_drained() const { return trace_words_drained_; }

  // The page-mapping function the simulator should use for prediction
  // (paper §4.2: either implement the policy or extract the map).
  // `mult_override` substitutes a different permutation multiplier — used to
  // model the unpredictability of Mach's random mapping policy.
  uint32_t TranslateUserPage(uint32_t pid, uint32_t vpn, uint32_t mult_override = 0) const;
  std::function<uint32_t(uint32_t, uint32_t)> PageMap(uint32_t mult_override = 0) const {
    return [this, mult_override](uint32_t pid, uint32_t vpn) {
      return TranslateUserPage(pid, vpn, mult_override);
    };
  }

  // Idle-loop text range of this kernel build (for machine-side counters).
  std::pair<uint32_t, uint32_t> IdleRange() const;

  // ---- Observability ----
  // Binds this instance's counters into `registry` under `prefix`: the
  // machine (and its memory system), the kernel stats-block words as
  // gauges, the trace transport (drain-size histogram, buffer fill
  // levels), and the epoxie text-dilation ratios of every instrumented
  // image.  The instance must outlive snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "system.");
  // Epoxie text growth of the instrumented images (1.0 when untraced).
  double kernel_text_growth() const { return kernel_text_growth_; }
  double workload_text_growth() const { return workload_text_growth_; }
  // Scavenging outcome summed over every instrumented object (zero when
  // untraced or SystemConfig::scavenge is off).
  uint64_t elided_ra_saves() const { return elided_ra_saves_; }
  uint64_t scavenged_windows() const { return scavenged_windows_; }

 private:
  friend std::unique_ptr<SystemInstance> BuildSystem(const SystemConfig& config);

  // The kernel buffer's fill level in words, from its ktrace_ptr; nullopt
  // while the pointer is below the buffer (it reads 0 until boot arms it).
  // Simulated memory is untrusted: an unaligned pointer or one past the
  // buffer's end throws before any word reaches the sink.
  std::optional<size_t> TraceFillWords() const;
  // Hands the sink the finished words not yet published, if at least
  // `min_words` of them have built up.
  void PublishTrace(size_t min_words);
  // A kernel drain: hands over the unpublished rest of the fill and
  // accounts the whole fill as drained.
  void DrainTrace();

  SystemConfig config_;
  std::unique_ptr<Machine> machine_;
  Executable kernel_exe_;
  Executable kernel_orig_;
  Executable workload_orig_;
  Executable workload_exe_;  // The one actually mapped (orig or traced).
  Executable server_exe_;
  Executable server_orig_;
  TraceInfoTable kernel_table_;
  TraceInfoTable user_table_;    // Workload (pid 1).
  TraceInfoTable server_table_;  // Server (pid 2, Mach only).
  std::function<void(const uint32_t*, size_t)> trace_sink_;
  uint32_t ktrace_ptr_addr_ = 0;  // Phys address of the kernel's ktrace_ptr.
  uint32_t ktrace_base_ = 0;      // Phys address of the buffer.
  uint64_t trace_words_drained_ = 0;
  uint64_t last_drain_words_ = 0;
  uint64_t trace_drains_ = 0;
  Histogram drain_words_hist_;   // Buffer fill level (words) at each drain.
  size_t published_words_ = 0;   // Words of the current fill already handed over.
  // Fill level of the last drain while the buffer may still hold the
  // drained words (the kernel has not visibly reset its pointer yet).
  std::optional<size_t> drained_fill_;
  bool halt_drained_ = false;
  double kernel_text_growth_ = 1.0;
  double workload_text_growth_ = 1.0;
  double server_text_growth_ = 1.0;
  uint64_t elided_ra_saves_ = 0;
  uint64_t scavenged_windows_ = 0;

  struct ProcLayout {
    uint32_t region_base_page = 0;
    uint32_t region_pages = 0;
    uint32_t data_slice_page = 0;   // Within the region.
    uint32_t data_vpn0 = 0;
    uint32_t stack_slice_page = 0;
    uint32_t stack_vpn0 = 0;
    uint32_t trace_slice_page = 0;
    uint32_t trace_vpn0 = 0;
    uint32_t text_slice_page = 0;
    uint32_t text_vpn0 = 0;
    uint32_t data_slice_pages = 0;
  };
  std::vector<ProcLayout> layouts_;

  const TraceInfoTable* UserTableFor(uint32_t pid) const {
    return pid == 2 ? &server_table_ : &user_table_;
  }

 public:
  const TraceInfoTable& server_table() const { return server_table_; }
};

// Compiles, links, loads, and prepares a bootable system.  (Heap-allocated:
// the machine's host-call handler holds a pointer to the instance.)
std::unique_ptr<SystemInstance> BuildSystem(const SystemConfig& config);

// The user-side syscall wrapper library every workload links against.
std::string UserLibAsm();
// The Mach UNIX-server program (user-level filesystem over device I/O).
std::string ServerAsm();

// Writes the flat-filesystem directory and every file's contents into
// `image` in place.  The image must be all zeros (a fresh Disk's is), so
// each file's extra capacity and the unused directory entries read as
// zeros.  Throws Error, naming the file, when a file does not fit.
void BuildDiskImage(const std::vector<DiskFile>& files, PhysMem& image);

}  // namespace wrl

#endif  // WRLTRACE_KERNEL_SYSTEM_BUILD_H_
