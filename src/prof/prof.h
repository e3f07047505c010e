// wrlprof: trace-attribution profiling (the analysis-side answer to the
// paper's §5 distortion discussion).
//
// The raw trace answers "how many references" (wrlstats counters); the
// profiler answers "which code and which pages".  TraceProfiler is an
// ordinary RefBatchSink, so it consumes the reconstructed reference stream
// anywhere one exists — live behind the parser during a traced run, or as
// a ReplayEngine config over a captured TraceLog — and both paths produce
// bit-identical profiles (no wall clock, no floats, no iteration-order
// dependence in the accumulated state).
//
// Attribution mirrors the parser's cursor state machine from the sink side
// of the ABI.  Within one address space the parser only ever suspends a
// block at a data-await point (ifetch runs are emitted atomically per trace
// word), so a per-space cursor *stack* reattributes every reference to the
// basic block that generated it:
//
//   * an ifetch matching the top cursor's expected next address advances
//     that cursor (mid-block continuation);
//   * otherwise an ifetch naming a known block leader pushes a new cursor
//     (block entry — including nested kernel exceptions interrupting a
//     suspended block);
//   * a load/store is charged to the top cursor when it awaits one;
//   * anything else is counted as unattributed, never guessed.
//
// From the per-block tallies the profiler derives per-symbol rollups (via
// the original images' symbol tables), kernel/user/idle splits, per-page
// reference heatmaps, a windowed working-set curve, and — using the exact
// per-block instrumented sizes epoxie records — the trace-volume and
// dilation attribution of §5: every trace word and every epoxie-inserted
// instruction charged back to the block that caused it.
#ifndef WRLTRACE_PROF_PROF_H_
#define WRLTRACE_PROF_PROF_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obj/object_file.h"
#include "support/json.h"
#include "trace/parser.h"

namespace wrl {

struct ProfileOptions {
  // References per working-set window (every reference counts one).
  uint64_t window_refs = 1u << 18;
  // Heatmap granularity; must be a power of two.
  uint32_t page_bytes = 4096;
};

// Per-basic-block tally, keyed by (address space, original leader address).
struct BlockProfile {
  uint8_t pid = kKernelPid;     // Address space (kKernelPid for kernel).
  std::string space;            // Display name ("kernel", "workload", ...).
  std::string symbol;           // "symbol+0xOFF" covering the leader.
  uint32_t addr = 0;            // Original-binary leader address.
  uint32_t num_insts = 0;       // Static size (original instructions).
  uint32_t instr_words = 0;     // Static instrumented size (0 if unknown).
  uint32_t flags = 0;           // BlockFlags.
  uint64_t entries = 0;
  uint64_t insts = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t idle_insts = 0;

  // Trace words this block wrote: one key per entry + one per memory op
  // (exactly the parser's input, so Σ TraceWords() == parser.words minus
  // markers/operands).
  uint64_t TraceWords() const { return entries + loads + stores; }
  // Epoxie-inserted instructions executed on behalf of this block: each
  // entry runs the whole instrumented body in place of the original one.
  uint64_t OverheadInsts() const {
    return instr_words > num_insts ? entries * (instr_words - num_insts) : 0;
  }
};

// Per-symbol rollup of the blocks that fall inside it.
struct SymbolProfile {
  uint8_t pid = kKernelPid;
  std::string space;
  std::string name;             // "[unknown]" when no symbol covers the block.
  uint32_t addr = 0;            // Symbol address (0 for [unknown]).
  uint64_t blocks = 0;          // Distinct blocks rolled up.
  uint64_t entries = 0;
  uint64_t insts = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t trace_words = 0;
  uint64_t overhead_insts = 0;
};

// Per-page reference heatmap entry.
struct PageProfile {
  uint8_t pid = kKernelPid;
  std::string space;
  uint32_t page_addr = 0;       // Page-aligned virtual address.
  uint64_t ifetches = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;

  uint64_t Total() const { return ifetches + loads + stores; }
};

struct ProfileTotals {
  uint64_t refs = 0;
  uint64_t insts = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t kernel_insts = 0;
  uint64_t user_insts = 0;
  uint64_t idle_insts = 0;
  uint64_t block_entries = 0;
  uint64_t trace_words = 0;      // Σ per-block TraceWords().
  uint64_t overhead_insts = 0;   // Σ per-block OverheadInsts().
  // References the cursor mirror could not attribute to a block (corrupt
  // traces, spaces with no table).  Zero on a healthy trace.
  uint64_t unattributed_insts = 0;
  uint64_t unattributed_data = 0;
};

struct Profile {
  ProfileTotals totals;
  std::vector<BlockProfile> blocks;    // Hottest first (insts desc, pid, addr).
  std::vector<SymbolProfile> symbols;  // Hottest first (insts desc, pid, name).
  std::vector<PageProfile> pages;      // Hottest first (total desc, pid, addr).
  std::vector<uint64_t> working_set;   // Unique pages touched per window.
  uint64_t window_refs = 0;            // Window size the curve used.
  uint64_t tail_refs = 0;              // Refs in the final partial window.
  uint32_t page_bytes = 4096;

  // The `profile` block of wrlstats/1 reports and the payload of wrlprof/1
  // documents.  `top` caps blocks/symbols/pages arrays (0 = everything);
  // totals and the working-set curve are always complete.
  void WriteJson(JsonWriter& writer, size_t top = 0) const;
  // Flamegraph-compatible folded stacks: "space;symbol;block_0xADDR count".
  std::string FoldedStacks() const;
  // Canonical full serialization — the bit-identity comparand in tests.
  std::string CanonicalJson() const;
};

// Accumulates a Profile from a reference stream.  Wiring: AddTable() per
// address space (same tables the parser uses), AddSymbols() per original
// image, then deliver references (it is a RefBatchSink) and Finish().
class TraceProfiler : public RefBatchSink {
 public:
  explicit TraceProfiler(ProfileOptions options = ProfileOptions());
  // The lookup memos below point into this profiler's own tables.
  TraceProfiler(const TraceProfiler&) = delete;
  TraceProfiler& operator=(const TraceProfiler&) = delete;

  // Registers the block table for one address space (kKernelPid = kernel).
  // Spaces without a table accumulate only totals/pages as unattributed.
  void AddTable(uint8_t pid, const TraceInfoTable* table);
  // Registers the text symbols of the *original* image for the space:
  // global symbols within [text_base, TextEnd()) become rollup buckets.
  void AddSymbols(uint8_t pid, const Executable& exe);
  // Single-symbol form (tests, hand-built spaces).
  void AddSymbol(uint8_t pid, const std::string& name, uint32_t addr);
  // Display name for the space ("kernel"/"pid<N>" by default).
  void SetSpaceName(uint8_t pid, std::string name);

  void OnRefBatch(const TraceRef* refs, size_t count) override;
  void OnRef(const TraceRef& ref);

  // Sorts, rolls up, and returns the finished profile.  The profiler can
  // keep consuming references afterwards; Finish() snapshots current state.
  Profile Finish() const;

  const ProfileOptions& options() const { return options_; }
  // Resolves `addr` in space `pid` to "symbol+0xOFF" (hex address when no
  // symbol covers it) — the CLI's table renderer.
  std::string Symbolize(uint8_t pid, uint32_t addr) const;
  std::string SpaceName(uint8_t pid) const;

 private:
  struct BlockTally {
    const TraceBlockInfo* info = nullptr;
    uint64_t entries = 0;
    uint64_t insts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t idle_insts = 0;
  };

  struct Cursor {
    const TraceBlockInfo* info = nullptr;
    BlockTally* tally = nullptr;  // The block's tally in its space.
    uint32_t next_inst = 0;  // Next original instruction index expected.
    uint32_t next_mem = 0;   // Next info->mem_ops entry awaiting data.
    bool awaiting = false;   // An ifetched memory op awaits its data word.
  };

  // Exact lookup memos.  Each one holds pointers to elements of a map
  // that never erases them (the profiler never drops a space, tally or
  // page), and element pointers of std::map and std::unordered_map survive
  // insertion and rehash, so a memo hit names the element the map lookup
  // would find.
  static constexpr unsigned kMemoBits = 6;
  static unsigned MemoSlot(uint64_t key) {
    return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ull) >> (64 - kMemoBits));
  }
  // Working-set keys are (pid << 32 | page number), far below this.
  static constexpr uint64_t kNoKey = ~uint64_t{0};

  struct PageMemo {
    uint32_t page = 0;
    PageProfile* profile = nullptr;  // nullptr = empty slot.
  };

  struct Space {
    std::string name;
    const TraceInfoTable* table = nullptr;
    // Original leader address -> block info (duplicate leaders keep the
    // entry with the smallest key address, deterministically).
    std::unordered_map<uint32_t, const TraceBlockInfo*> leaders;
    std::unordered_map<uint32_t, uint32_t> leader_keys;  // leader -> key addr.
    std::unordered_map<uint32_t, BlockTally> tallies;
    std::unordered_map<uint32_t, PageProfile> pages;
    // Direct-mapped page -> pages entry memo.
    std::array<PageMemo, 1u << kMemoBits> page_memo{};
    // Sorted lazily on first lookup (mutable: Finish() is const).
    mutable std::vector<std::pair<uint32_t, std::string>> symbols;
    mutable bool symbols_sorted = true;
    std::vector<Cursor> stack;
  };

  Space& SpaceFor(uint8_t pid);
  const Space* FindSpace(uint8_t pid) const;
  // Charges one ifetch to `cursor`'s block and advances it; pops the cursor
  // when the block completes without pending memory ops.
  void AdvanceCursor(Space& space, const TraceRef& ref);
  void TouchPage(Space& space, const TraceRef& ref);
  void TouchWorkingSet(uint8_t pid, uint32_t addr);
  // Last sorted symbol at or below `addr`; nullptr when none.
  const std::pair<uint32_t, std::string>* SymbolAtOrBelow(const Space& space,
                                                          uint32_t addr) const;

  ProfileOptions options_;
  uint32_t page_shift_ = 12;
  // std::map: Finish() iterates spaces in pid order for determinism.
  std::map<uint8_t, Space> spaces_;
  // pid -> its element of spaces_ (nullptr until the space exists).
  std::array<Space*, 256> space_by_pid_{};
  ProfileTotals totals_;
  // Working-set curve state: pages touched in the current window.  Pages
  // from different spaces are distinct (key = pid << 32 | page number).
  std::unordered_set<uint64_t> window_pages_;
  // Direct-mapped keys inserted into window_pages_ in this window (kNoKey
  // = empty); cleared when the window closes, so a hit is a key the set
  // already holds.
  std::array<uint64_t, 1u << kMemoBits> window_filter_;
  uint64_t window_fill_ = 0;
  std::vector<uint64_t> working_set_;
};

}  // namespace wrl

#endif  // WRLTRACE_PROF_PROF_H_
