// The trace-parsing library (paper §3.3/§3.5).
//
// Trace entries are single machine words.  A word is one of:
//   * a marker (reserved top page — see trace/abi.h), written by the
//     hand-instrumented kernel entry/exit paths;
//   * a basic-block key — the return address bbtrace recorded — which the
//     parser maps through a per-address-space lookup table to the block's
//     address in the *original, uninstrumented* binary plus its static
//     description (instruction count, positions and kinds of memory ops);
//   * a data address recorded by memtrace, attributed to the next memory
//     operation of the block in progress.
//
// The parser reconstructs the exact interleaving of instruction and data
// references and handles blocks interrupted mid-flight by exceptions: a
// KERNEL_ENTER marker suspends the current block (per-process for user
// contexts, on a stack for nested kernel exceptions — the Ultrix port's
// lesson from §3.5), and the matching KERNEL_EXIT resumes it.
//
// Defensive tracing (§4.3): the format's redundancy — known block lengths,
// known memory-op counts, address-space membership of keys — lets the
// parser detect missing or corrupt words with high probability.  Violations
// are recorded, counted, and surfaced; parsing continues where possible.
#ifndef WRLTRACE_TRACE_PARSER_H_
#define WRLTRACE_TRACE_PARSER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "epoxie/epoxie.h"
#include "stats/events.h"
#include "stats/stats.h"
#include "trace/abi.h"

namespace wrl {

// Static description of one basic block, keyed by absolute instrumented
// key address, describing the block in *original* address terms.
struct TraceBlockInfo {
  uint32_t orig_addr = 0;
  uint32_t num_insts = 0;
  uint32_t flags = 0;
  std::vector<MemOpStatic> mem_ops;
  // Instrumented words the block occupies (0 when the producer does not
  // know); lets consumers charge epoxie's inserted instructions back to
  // the block exactly.
  uint32_t instr_words = 0;
};

// The per-address-space lookup table ("static information about the binary
// image", §3.2).  Keys are the word-aligned return addresses bbtrace
// records, so the table indexes them densely: one slot per word of the
// span from its lowest key to its highest, which is the instrumented text
// the table describes.
class TraceInfoTable {
 public:
  // One block and the key it is found under.
  struct Entry {
    uint32_t key;
    TraceBlockInfo info;
  };

  // The index points into the table's own entries, which a move carries
  // along and a copy would not.
  TraceInfoTable() = default;
  TraceInfoTable(const TraceInfoTable&) = delete;
  TraceInfoTable& operator=(const TraceInfoTable&) = delete;
  TraceInfoTable(TraceInfoTable&&) noexcept = default;
  TraceInfoTable& operator=(TraceInfoTable&&) noexcept = default;

  // Rejects a duplicate or misaligned key, and a key that would stretch
  // the span past kMaxKeySpanBytes.
  void Add(uint32_t key_addr, TraceBlockInfo info);
  // Registers every block of an instrumented object, given where that
  // object's text landed in the instrumented and original links.
  void AddObject(const std::vector<BlockStatic>& blocks, uint32_t instrumented_text_base,
                 uint32_t original_text_base);
  // The block keyed at `key_addr`, or null.  Safe for any word: the offset
  // from the lowest key is unsigned, so a word below the span wraps past
  // its end, and a misaligned word is never a key.
  const TraceBlockInfo* Find(uint32_t key_addr) const {
    const uint32_t offset = key_addr - key_base_;
    if ((offset & 3) != 0 || offset / 4 >= index_.size()) {
      return nullptr;
    }
    return index_[offset / 4];
  }
  size_t size() const { return entries_.size(); }
  // Every block with its key, in the order added, for consumers (e.g. the
  // profiler) that index blocks by original leader address rather than by
  // key.
  const std::deque<Entry>& blocks() const { return entries_; }

  // The widest key span a table accepts: far above any image this
  // toolchain links, far below what would make the index a burden.
  static constexpr uint32_t kMaxKeySpanBytes = 16u << 20;

 private:
  // Widens the index to cover `key`.
  void Cover(uint32_t key);

  std::deque<Entry> entries_;  // A deque, so index_ pointers survive Add.
  uint32_t key_base_ = 0;      // The lowest key; index_[0] is its slot.
  std::vector<const TraceBlockInfo*> index_;
};

// One reconstructed reference, packed into 8 bytes: the 32-bit address
// first, so no padding precedes it, then one byte each for kind, access
// size and pid, and the two flags as 1-bit fields sharing the last byte.
// Every batch a sink reads is an array of these, so the size is the
// memory traffic per reference.  Aggregate initializers list the fields in
// declaration order: {addr, kind, bytes, pid, kernel, idle}.
struct TraceRef {
  enum Kind : uint8_t { kIfetch, kLoad, kStore };
  uint32_t addr;   // Original-binary virtual address.
  Kind kind;
  uint8_t bytes;
  uint8_t pid;     // 0xff for kernel.
  bool kernel : 1;
  bool idle : 1;   // Inside the kernel idle loop (per block flags).
};
static_assert(sizeof(TraceRef) == 8, "TraceRef must stay packed into 8 bytes");

constexpr uint8_t kKernelPid = 0xff;

// The references, at most `count` (at least 1), of the step refs[0] starts
// in a sink that prices a *fetch run* at once: consecutive instruction
// fetches at sequential word addresses inside one page, with equal pid,
// kernel and idle fields, outside kseg1.  A data reference or a kseg1
// fetch is a step of its own.  The fields are compared one by one: the
// rest of the bitfield byte is unspecified.
inline size_t FetchRunLength(const TraceRef* refs, size_t count) {
  const TraceRef& first = refs[0];
  if (first.kind != TraceRef::kIfetch || InKseg1(first.addr)) {
    return 1;
  }
  size_t n = 1;
  while (n < count) {
    const TraceRef& ref = refs[n];
    if (ref.kind != TraceRef::kIfetch || ref.addr != first.addr + 4 * n ||
        PageOf(ref.addr) != PageOf(first.addr) || ref.pid != first.pid ||
        ref.kernel != first.kernel || ref.idle != first.idle) {
      break;
    }
    ++n;
  }
  return n;
}

// ---- Batched reference delivery ----
//
// The parser reconstructs tens of references per trace word; delivering
// each one through an indirect call would cost a call per reference.
// Batch delivery amortizes that: references accumulate in a dense buffer
// and consumers receive ~4K at a time through this typed interface, paying
// one virtual call per batch and iterating a contiguous array in their own
// tight loop.  A batch capacity of 1 hands each reference over as soon as
// it is rebuilt; every capacity delivers the identical sequence.
constexpr size_t kRefBatchCapacity = 4096;

class RefBatchSink {
 public:
  virtual ~RefBatchSink() = default;
  virtual void OnRefBatch(const TraceRef* refs, size_t count) = 0;
};

// Adapts a per-ref functor to the batch interface, for consumers not worth
// converting.
class RefFnSink : public RefBatchSink {
 public:
  explicit RefFnSink(std::function<void(const TraceRef&)> fn) : fn_(std::move(fn)) {}
  void OnRefBatch(const TraceRef* refs, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      fn_(refs[i]);
    }
  }

 private:
  std::function<void(const TraceRef&)> fn_;
};

// Fans one batch stream out to several consumers (e.g. a cache simulator
// plus a profiler on the same run).  Delivery order is the order the sinks
// were added; each sink sees the identical batches.  The tee also times
// each sink's share of every batch, so a caller reads any sink's busy time
// back by the sink's own pointer.
class TeeBatchSink : public RefBatchSink {
 public:
  // Appends `sink`; a null sink is skipped, so optional analyses can be
  // added unconditionally.
  void Add(RefBatchSink* sink) {
    if (sink != nullptr) {
      sinks_.push_back({sink, 0});
    }
  }
  void OnRefBatch(const TraceRef* refs, size_t count) override;

  bool empty() const { return sinks_.empty(); }
  // References delivered to each sink.
  uint64_t refs() const { return refs_; }
  // Host wall microseconds `sink` spent consuming batches (0 for a sink the
  // tee does not hold).
  uint64_t busy_us(const RefBatchSink* sink) const;

 private:
  struct Entry {
    RefBatchSink* sink;
    uint64_t busy_ns;
  };
  std::vector<Entry> sinks_;
  uint64_t refs_ = 0;
};

struct TraceParserStats {
  uint64_t words = 0;
  uint64_t blocks = 0;
  uint64_t refs = 0;
  uint64_t ifetches = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t kernel_ifetches = 0;
  uint64_t user_ifetches = 0;
  uint64_t idle_instructions = 0;
  uint64_t markers = 0;
  uint64_t validation_errors = 0;
};

// Binds every field of `*stats` into `registry` under `prefix`; `*stats`
// must outlive snapshots of the registry.  Every registration of parser
// counters goes through here, so none can miss a field.
void BindParserStats(StatsRegistry& registry, const std::string& prefix,
                     TraceParserStats* stats);

// Rebuilds the reference stream a block at a time: the table of the current
// context is resolved when the context changes, a key costs one dense-index
// probe, and each run of instruction fetches up to the block's next memory
// operation is written straight into the batch and counted once.
class TraceParser {
 public:
  // `kernel_table` may be null for user-only traces.
  explicit TraceParser(const TraceInfoTable* kernel_table);

  void SetUserTable(uint8_t pid, const TraceInfoTable* table);
  // Reference delivery: references accumulate, in reconstruction order,
  // into batches of up to `capacity` handed to `sink`.  Batches flush when
  // full and at Finish(); call FlushBatch() to force an earlier flush.
  void SetBatchSink(RefBatchSink* sink, size_t capacity = kRefBatchCapacity);
  // Delivers any buffered references to the batch sink now.
  void FlushBatch();
  void SetMetaSink(std::function<void(MarkerCode, uint32_t)> sink) {
    meta_sink_ = std::move(sink);
  }
  // The parser starts in user context for `pid` (kKernelPid for kernel).
  void SetInitialContext(uint8_t pid) { SwitchTo(pid); }

  void Feed(const uint32_t* words, size_t count);
  void Feed(const std::vector<uint32_t>& words) { Feed(words.data(), words.size()); }
  // Declares end-of-trace: an in-flight block becomes a validation error.
  void Finish();

  const TraceParserStats& stats() const { return stats_; }
  const std::vector<std::string>& errors() const { return errors_; }
  // The parser's self time: host wall microseconds spent in Feed() and
  // Finish(), less the time their batch-sink calls took.  Behind the
  // analysis stage (chunk_ring.h) those calls are the copy into its ring
  // and any wait on it, so the sinks' own time never counts here.
  uint64_t self_us() const { return self_ns_ / 1000; }

  // Binds every field of `stats()` into `registry`; the parser must outlive
  // snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "parser.") {
    BindParserStats(registry, prefix, &stats_);
  }
  // Optional timeline: each Feed() batch becomes a scoped phase.
  void SetEventRecorder(EventRecorder* events) { events_ = events; }

 private:
  struct BlockCursor {
    const TraceBlockInfo* info = nullptr;
    uint32_t next_inst = 0;  // Next original instruction index to fetch.
    uint32_t next_mem = 0;   // Next entry of info->mem_ops awaiting data.
    bool active() const { return info != nullptr; }
  };

  struct Context {
    uint8_t pid = kKernelPid;
    BlockCursor cursor;
    bool idle = false;
  };

  void HandleMarker(uint32_t word);
  void HandleOperand(uint32_t word);
  void HandleKey(uint32_t word);
  void HandleData(uint32_t word);
  // Emits the block's fetches up to its next memory operation, or to its
  // end, which retires the cursor.
  void EmitRun();
  void EmitFetches(uint32_t first_addr, uint32_t count);
  void EmitRef(const TraceRef& ref);
  void RecordError(const std::string& message);
  // Makes `pid` the current context and resolves its table.
  void SwitchTo(uint8_t pid);
  void Restore(const Context& ctx);

  const TraceInfoTable* kernel_table_;
  std::array<const TraceInfoTable*, 256> user_tables_{};

  // Current context, and the table its keys resolve in.
  uint8_t pid_ = kKernelPid;
  const TraceInfoTable* table_ = nullptr;
  BlockCursor cursor_;
  bool idle_ = false;

  // Suspended user contexts (by pid) and nested kernel contexts (stack).
  std::unordered_map<uint8_t, Context> suspended_users_;
  std::vector<Context> kernel_stack_;
  uint8_t last_suspended_user_ = kKernelPid;

  // Marker operand in flight.
  bool expecting_operand_ = false;
  MarkerCode pending_marker_ = kMarkTraceOn;

  RefBatchSink* batch_sink_ = nullptr;
  // The batch: its first batch_fill_ of batch_capacity_ slots hold
  // references not yet delivered, and a few slots of slack follow, which a
  // run's last group of fetches may overrun (EmitFetches).
  std::vector<TraceRef> batch_;
  size_t batch_fill_ = 0;
  size_t batch_capacity_ = kRefBatchCapacity;
  std::function<void(MarkerCode, uint32_t)> meta_sink_;
  EventRecorder* events_ = nullptr;
  uint64_t self_ns_ = 0;
  uint64_t sink_ns_ = 0;  // Every batch-sink call's wall time.
  TraceParserStats stats_;
  std::vector<std::string> errors_;
};

}  // namespace wrl

#endif  // WRLTRACE_TRACE_PARSER_H_
