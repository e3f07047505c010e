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
// The profiler walks the stream a step at a time, as TraceDrivenSimulator
// does: a fetch run (FetchRunLength) charges its totals, its page tally
// and its working-set window at once, split where a window closes, and
// advances a cursor a block segment at a time, up to the block's next
// memory op or its end.  A block entry is one lookup in a dense index over
// the space's original text.  tests/analysis_oracle_test.cc holds the
// profile to a walk of one reference at a time.
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

#include "mach/address_space.h"
#include "obj/object_file.h"
#include "support/json.h"
#include "trace/parser.h"

namespace wrl {

struct ProfileOptions {
  // References per working-set window (every reference counts one).
  uint64_t window_refs = 1u << 18;
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
  uint32_t page_bytes = kPageBytes;    // Heatmap granularity: the machine page.

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
  // Call before the first reference; after it, this throws
  // wrl::InternalError, as it does for a table whose block leaders are not
  // word-aligned or span TraceInfoTable::kMaxKeySpanBytes or more.
  void AddTable(uint8_t pid, const TraceInfoTable* table);
  // Registers the text symbols of the *original* image for the space:
  // global symbols within [text_base, TextEnd()) become rollup buckets.
  void AddSymbols(uint8_t pid, const Executable& exe);
  // Single-symbol form (tests, hand-built spaces).
  void AddSymbol(uint8_t pid, const std::string& name, uint32_t addr);
  // Display name for the space ("kernel"/"pid<N>" by default).
  void SetSpaceName(uint8_t pid, std::string name);

  // A fetch run ends at the batch's end; any split of the stream gives
  // identical profiles.
  void OnRefBatch(const TraceRef* refs, size_t count) override;
  void OnRef(const TraceRef& ref) { OnRefBatch(&ref, 1); }

  // Sorts, rolls up, and returns the finished profile.  The profiler can
  // keep consuming references afterwards; Finish() snapshots current state.
  Profile Finish() const;

  const ProfileOptions& options() const { return options_; }
  // Resolves `addr` in space `pid` to "symbol+0xOFF" (hex address when no
  // symbol covers it) — the CLI's table renderer.
  std::string Symbolize(uint8_t pid, uint32_t addr) const;
  std::string SpaceName(uint8_t pid) const;

 private:
  // One block of a space's table, with its tally.
  struct Block {
    const TraceBlockInfo* info = nullptr;
    uint64_t entries = 0;
    uint64_t insts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t idle_insts = 0;
  };

  struct Cursor {
    Block* block = nullptr;
    uint32_t next_inst = 0;  // Next original instruction index expected.
    uint32_t next_mem = 0;   // Next block->info->mem_ops entry awaiting data.
    bool awaiting = false;   // An ifetched memory op awaits its data word.
  };

  // Exact lookup memos.  Each one holds pointers to elements of a map
  // that never erases them (the profiler never drops a space or page), and
  // element pointers of std::map and std::unordered_map survive insertion
  // and rehash, so a memo hit names the element the map lookup would find.
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
    // The block led at original address `leader`, or null.  Safe for any
    // address: the offset from the lowest leader is unsigned, so an
    // address below the span wraps past its end, and a misaligned address
    // leads no block.
    Block* Find(uint32_t leader) {
      const uint32_t offset = leader - index_base;
      if ((offset & 3) != 0 || offset / 4 >= index.size()) {
        return nullptr;
      }
      return index[offset / 4];
    }

    std::string name;
    // The table's blocks in leader order, one per leader (duplicate
    // leaders keep the entry with the smallest key address), and a dense
    // index over the words from the lowest leader to the highest.  Fixed
    // once references flow, so cursors and the index point into `blocks`.
    std::vector<Block> blocks;
    uint32_t index_base = 0;
    std::vector<Block*> index;
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
  // The `count` fetches of the run `first` starts (FetchRunLength).
  void OnFetchRun(Space& space, const TraceRef& first, uint32_t count);
  void OnData(Space& space, const TraceRef& ref);
  // Charges up to `count` fetches to the top cursor's block, which expects
  // the first of them, and returns how many it took: up to the block's
  // next memory op, which then awaits its data, or to the block's end,
  // which pops the cursor.
  uint32_t AdvanceCursor(Space& space, uint32_t count, bool idle);
  // The heatmap entry of the page holding `addr`.
  PageProfile& TouchPage(Space& space, uint32_t addr);
  // `count` references to the page holding `addr`, closing every window
  // they fill.
  void TouchWorkingSet(uint8_t pid, uint32_t addr, uint64_t count);
  // Last sorted symbol at or below `addr`; nullptr when none.
  const std::pair<uint32_t, std::string>* SymbolAtOrBelow(const Space& space,
                                                          uint32_t addr) const;

  ProfileOptions options_;
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
