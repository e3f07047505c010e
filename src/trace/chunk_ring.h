// The pipelined trace transport: bounded FIFOs between the stages behind
// the traced machine (simulate ∥ parse ∥ analyze).
//
// Chen's argument is that software tracing pays off when the trace is
// consumed on the fly — but a synchronous on-the-fly consumer makes the
// traced machine stall for the full cost of every drain.  HMTT-style
// decoupling fixes that: each stage hands its output to the next through a
// bounded ring and immediately goes on, while a thread behind the ring
// consumes it in order.  Two stages use it:
//   * the traced machine (producer) copies each chunk of finished trace
//     words into a ring of words, and a parse thread feeds the chunks to
//     the parser in trace order.  A drain is published as one or more
//     chunks: the traced system hands over the buffer's finished prefix
//     while the machine still runs (kernel/system_build.h), so the parse
//     works during the traced run, not only after it;
//   * the parser flushes each batch of references into a ring of batches
//     (RefBatchPipeline), and an analysis thread runs the analysis sinks
//     behind it over the batches in order — in live runs the simulators
//     behind the parse thread, which runs the profiler and the sweep
//     itself, and in archive replay every sink behind the caller's decode
//     and parse.
//
// Ordering/identity invariant: each ring is strictly FIFO and its consumer
// is a single thread, so the consumer observes exactly the chunk sequence
// (and chunk boundaries) a synchronous consumer would have seen.  Every
// counter, trace word, profile, and report byte is therefore identical to
// the synchronous path; only wall-clock overlap changes.  The overlap is
// observable through the producer-stall / consumer-starve / ring-occupancy
// counters each ring exports as `trace.pipeline.*` wrlstats metrics.
//
// Degradation: the pipeline only helps when a second hardware thread can
// run the consumer, so PipelineEnabled() defaults to on for multi-core
// hosts and off (synchronous) for single-core ones.  WRL_PIPELINE=1 forces
// it on (the tests do this to exercise the threaded path everywhere);
// WRL_PIPELINE=0 forces the synchronous path, both stages at once.
#ifndef WRLTRACE_TRACE_CHUNK_RING_H_
#define WRLTRACE_TRACE_CHUNK_RING_H_

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stats/events.h"
#include "stats/stats.h"
#include "trace/parser.h"

namespace wrl {

// Default ring capacity, in chunks.  A chunk is one published stretch of
// the trace buffer (a drain is published as one or more chunks), at least
// 64 KB unless it ends a drain or a run, so even a shallow ring lets the
// machine run well ahead of the analysis; deeper rings only buy slack
// against bursty drains.
constexpr size_t kDefaultPipelineDepth = 8;

// The analysis stage's ring capacity, in batches of up to
// kRefBatchCapacity references (32 KB each).  Its slots are reserved up
// front, so the depth is memory held for the whole run.  Chosen by
// measurement (DESIGN.md §12): 4 batches kept archive replay's whole gain
// over 2, and 8 or 16 added memory for no resolvable gain.
constexpr size_t kRefPipelineDepth = 4;

// The pipeline default: on when a second hardware thread exists to run the
// consumer, overridable either way with WRL_PIPELINE=1 / WRL_PIPELINE=0.
inline bool PipelineEnabled() {
  if (const char* env = std::getenv("WRL_PIPELINE")) {
    return std::strcmp(env, "0") != 0;
  }
  return std::thread::hardware_concurrency() > 1;
}

// Remains only for the wrlbench benchmark, whose span run still passes it
// to ReplayEngine::Options::decode_workers, which nothing reads: 1 when
// the pipeline is disabled, otherwise the host's hardware threads, clamped
// to [2, 8].
inline unsigned PipelineDecodeWorkers() {
  if (!PipelineEnabled()) {
    return 1;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw < 2 ? 2 : (hw > 8 ? 8 : hw);
}

// The name under which a ring reports the elements it carried.
template <typename T>
inline constexpr const char* kRingItemName = nullptr;
template <>
inline constexpr const char* kRingItemName<uint32_t> = "words";
template <>
inline constexpr const char* kRingItemName<TraceRef> = "refs";

// A bounded FIFO of chunks of T: trace words (ChunkRing) or reference
// batches.  Push copies the chunk (the producer's buffer is reused as soon
// as Push returns: the live kernel trace buffer, or the parser's batch);
// Pop moves the oldest chunk out by swap, so slot storage recycles between
// the two threads without reallocating once the ring reaches steady state.
//
// One producer at a time calls Push/Close, and one consumer thread Pop;
// Cancel may be called from either side.  The producer may change threads
// when the hand-over is ordered (the live analysis ring is fed by the parse
// thread, then, after the caller has joined that thread, by the parser's
// final flush on the caller).  The counter accessors take the ring's lock,
// so either side may read them mid-stream; the occupancy histogram and
// RegisterStats are for after the ring has quiesced (Close + drained, or
// Cancel).  Instantiated for uint32_t and TraceRef (chunk_ring.cc).
template <typename T>
class BasicChunkRing {
 public:
  // Each slot reserves `reserve` elements here, on the constructing thread,
  // so chunks no longer than that never allocate on either side.
  explicit BasicChunkRing(size_t capacity = kDefaultPipelineDepth, size_t reserve = 0);

  // Copies one chunk into the ring, blocking while the ring is full (a
  // producer stall — the producer outran its consumer).  Returns false,
  // dropping the chunk, once the ring has been cancelled.
  bool Push(const T* items, size_t count);
  // Moves the oldest chunk into `out`, blocking while the ring is empty (a
  // consumer starve — the consumer outran its producer).  Returns false
  // once the ring is closed and drained, or cancelled.
  bool Pop(std::vector<T>& out);
  // Producer side: no more chunks; the consumer drains what remains.
  void Close();
  // Error path (either side): unblocks both threads and drops queued
  // chunks.  Push returns false afterwards.
  void Cancel();

  bool cancelled() const;

  // ---- Observability ----
  uint64_t chunks() const { return Locked(chunks_); }
  uint64_t items() const { return Locked(items_); }
  uint64_t producer_stalls() const { return Locked(producer_stalls_); }
  // Host wall microseconds Push spent blocked on a full ring.
  uint64_t producer_stall_us() const { return Locked(producer_stall_ns_) / 1000; }
  uint64_t consumer_starves() const { return Locked(consumer_starves_); }
  uint64_t max_occupancy() const { return Locked(max_occupancy_); }
  size_t capacity() const { return slots_.size(); }
  // Quiesced ring only.
  const Histogram& occupancy_hist() const { return occupancy_hist_; }

  // Binds the ring's counters into `registry` under `prefix`
  // ("trace.pipeline." for the word ring in the experiment harness); the
  // element count is named after the element (kRingItemName).  The ring
  // must have quiesced and must outlive snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "trace.pipeline.");

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<std::vector<T>> slots_;
  size_t head_ = 0;  // Oldest occupied slot.
  size_t size_ = 0;  // Occupied slots.
  bool closed_ = false;
  bool cancelled_ = false;

  // Transport accounting (mutated under mutex_; read once quiesced).
  uint64_t chunks_ = 0;
  uint64_t items_ = 0;
  uint64_t producer_stalls_ = 0;
  uint64_t producer_stall_ns_ = 0;
  uint64_t consumer_starves_ = 0;
  uint64_t max_occupancy_ = 0;
  Histogram occupancy_hist_;  // Ring occupancy after each push.

  uint64_t Locked(const uint64_t& counter) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counter;
  }
};

using ChunkRing = BasicChunkRing<uint32_t>;

// The harness-facing wrapper: owns the ring and the consumer thread.  The
// producer calls Produce; the consumer thread invokes `consume` once per
// chunk, in order.  Finish() closes the ring, joins the consumer, and
// rethrows anything the consumer chain threw — so a parser/sink failure
// mid-stream surfaces on the producer thread as the same exception the
// synchronous path would have thrown.  The ring's one-producer-at-a-time
// rule holds for Produce and Finish.
template <typename T>
class BasicTracePipeline {
 public:
  using ChunkFn = std::function<void(const T*, size_t)>;

  // `reserve` is the ring's per-slot reservation (BasicChunkRing); the
  // consumer's own buffer reserves as much, also on this thread.  With
  // `events`, the consumer thread records one `phase` on its own track,
  // from its start to its last chunk.
  explicit BasicTracePipeline(ChunkFn consume, size_t depth = kDefaultPipelineDepth,
                              size_t reserve = 0, EventRecorder* events = nullptr,
                              std::string phase = {});
  // Joins without throwing (Finish is the throwing path; the destructor
  // only cleans up after an abandoned pipeline during unwinding).
  ~BasicTracePipeline();

  BasicTracePipeline(const BasicTracePipeline&) = delete;
  BasicTracePipeline& operator=(const BasicTracePipeline&) = delete;

  // Producer side.  If the consumer has already failed, joins it and
  // rethrows its error — the producer learns of a dead consumer at its
  // next chunk, not at the end of the run.
  void Produce(const T* items, size_t count);
  // Closes the ring, joins the consumer, rethrows its error.  Idempotent.
  void Finish();

  const BasicChunkRing<T>& ring() const { return ring_; }
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "trace.pipeline.") {
    ring_.RegisterStats(registry, prefix);
  }

 private:
  void Join();  // Close + join, no throw.

  BasicChunkRing<T> ring_;
  std::vector<T> buffer_;  // The consumer's chunk, swapped with the ring's slots.
  std::thread consumer_;
  std::exception_ptr error_;  // Written by the consumer thread before exit.
  bool finished_ = false;
};

using TracePipeline = BasicTracePipeline<uint32_t>;

// The analysis stage (parse ∥ analyze): the parser's batch sink, which
// copies each batch into a ring of kRefPipelineDepth batches and returns,
// while one analysis thread hands the batches to `sink` (the experiment's
// or the replay's tee), in order.  Slots and the consumer's buffer are
// reserved here, so the steady state allocates nothing and no batch storage
// lands in the threads' own malloc arenas.  Finish() drains the ring, joins
// the thread and rethrows what a sink threw; a batch flushed after a sink
// failed rethrows it at once.
class RefBatchPipeline : public RefBatchSink {
 public:
  // With `events`, the analysis thread records one `analysis.sinks` phase
  // on its own track.
  explicit RefBatchPipeline(RefBatchSink* sink, EventRecorder* events = nullptr);

  void OnRefBatch(const TraceRef* refs, size_t count) override { pipeline_.Produce(refs, count); }
  void Finish() { pipeline_.Finish(); }

  const BasicChunkRing<TraceRef>& ring() const { return pipeline_.ring(); }
  void RegisterStats(StatsRegistry& registry,
                     const std::string& prefix = "trace.pipeline.analysis.") {
    pipeline_.RegisterStats(registry, prefix);
  }

 private:
  BasicTracePipeline<TraceRef> pipeline_;
};

}  // namespace wrl

#endif  // WRLTRACE_TRACE_CHUNK_RING_H_
