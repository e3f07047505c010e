// The pipelined trace transport (the ISSUE-7 producer/consumer split).
//
// Chen's argument is that software tracing pays off when the trace is
// consumed on the fly — but a synchronous on-the-fly consumer makes the
// traced machine stall for the full cost of every drain.  HMTT-style
// decoupling fixes that: the traced machine (producer) copies each chunk of
// finished trace words into a bounded single-producer/single-consumer ring
// and immediately resumes simulating, while a consumer thread runs the
// parser + analysis sink chain over the chunks in trace order
// (simulate ∥ parse ∥ analyze).  A drain is published as one or more
// chunks: the traced system hands over the buffer's finished prefix while
// the machine still runs (kernel/system_build.h), so the consumer works
// during the traced run, not only after it.
//
// Ordering/identity invariant: the ring is strictly FIFO and the consumer
// is a single thread, so the consumer observes exactly the chunk sequence
// (and chunk boundaries) a synchronous sink would have seen.  Every
// counter, trace word, profile, and report byte is therefore identical to
// the synchronous path; only wall-clock overlap changes.  The overlap is
// observable through the producer-stall / consumer-starve / ring-occupancy
// counters each ring exports as `trace.pipeline.*` wrlstats metrics.
//
// Degradation: the pipeline only helps when a second hardware thread can
// run the consumer, so PipelineEnabled() defaults to on for multi-core
// hosts and off (synchronous) for single-core ones.  WRL_PIPELINE=1 forces
// it on (the tests do this to exercise the threaded path everywhere);
// WRL_PIPELINE=0 forces today's synchronous path.
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

#include "stats/stats.h"

namespace wrl {

// Default ring capacity, in chunks.  A chunk is one published stretch of
// the trace buffer (a drain is published as one or more chunks), at least
// 64 KB unless it ends a drain or a run, so even a shallow ring lets the
// machine run well ahead of the analysis; deeper rings only buy slack
// against bursty drains.
constexpr size_t kDefaultPipelineDepth = 8;

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

// A bounded SPSC ring of trace-word chunks.  Push copies the chunk (the
// producer's buffer is the live kernel trace buffer, reused immediately
// after the drain returns); Pop moves the oldest chunk out by swap, so
// slot storage recycles between the two threads without reallocating once
// the ring reaches steady state.
//
// Exactly one producer thread may call Push/Close and one consumer thread
// Pop; Cancel may be called from either side.  The counter accessors take
// the ring's lock, so either side may read them mid-stream; the occupancy
// histogram and RegisterStats are for after the ring has quiesced (Close +
// drained, or Cancel).
class ChunkRing {
 public:
  explicit ChunkRing(size_t capacity = kDefaultPipelineDepth);

  // Copies one chunk into the ring, blocking while the ring is full (a
  // producer stall — the machine outran the analysis).  Returns false,
  // dropping the chunk, once the ring has been cancelled.
  bool Push(const uint32_t* words, size_t count);
  // Moves the oldest chunk into `out`, blocking while the ring is empty (a
  // consumer starve — the analysis outran the machine).  Returns false
  // once the ring is closed and drained, or cancelled.
  bool Pop(std::vector<uint32_t>& out);
  // Producer side: no more chunks; the consumer drains what remains.
  void Close();
  // Error path (either side): unblocks both threads and drops queued
  // chunks.  Push returns false afterwards.
  void Cancel();

  bool cancelled() const;

  // ---- Observability ----
  uint64_t chunks() const { return Locked(chunks_); }
  uint64_t words() const { return Locked(words_); }
  uint64_t producer_stalls() const { return Locked(producer_stalls_); }
  uint64_t consumer_starves() const { return Locked(consumer_starves_); }
  uint64_t max_occupancy() const { return Locked(max_occupancy_); }
  size_t capacity() const { return slots_.size(); }
  // Quiesced ring only.
  const Histogram& occupancy_hist() const { return occupancy_hist_; }

  // Binds the ring's counters into `registry` under `prefix`
  // ("trace.pipeline." in the experiment harness).  The ring must have
  // quiesced and must outlive snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "trace.pipeline.");

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<std::vector<uint32_t>> slots_;
  size_t head_ = 0;  // Oldest occupied slot.
  size_t size_ = 0;  // Occupied slots.
  bool closed_ = false;
  bool cancelled_ = false;

  // Transport accounting (mutated under mutex_; read once quiesced).
  uint64_t chunks_ = 0;
  uint64_t words_ = 0;
  uint64_t producer_stalls_ = 0;
  uint64_t consumer_starves_ = 0;
  uint64_t max_occupancy_ = 0;
  Histogram occupancy_hist_;  // Ring occupancy after each push.

  uint64_t Locked(const uint64_t& counter) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counter;
  }
};

// The harness-facing wrapper: owns the ring and the consumer thread.  The
// traced machine's trace sink calls Produce; the consumer thread invokes
// `consume` once per chunk, in trace order.  Finish() closes the ring,
// joins the consumer, and rethrows anything the consumer chain threw — so
// a parser/sink failure mid-stream surfaces on the producer thread as the
// same exception the synchronous path would have thrown.
class TracePipeline {
 public:
  using ChunkFn = std::function<void(const uint32_t*, size_t)>;

  explicit TracePipeline(ChunkFn consume, size_t depth = kDefaultPipelineDepth);
  // Joins without throwing (Finish is the throwing path; the destructor
  // only cleans up after an abandoned pipeline during unwinding).
  ~TracePipeline();

  TracePipeline(const TracePipeline&) = delete;
  TracePipeline& operator=(const TracePipeline&) = delete;

  // Producer side (the trace sink).  If the consumer has already failed,
  // joins it and rethrows its error — the producer learns of a dead
  // analysis at the next drain, not at the end of the run.
  void Produce(const uint32_t* words, size_t count);
  // Closes the ring, joins the consumer, rethrows its error.  Idempotent.
  void Finish();

  const ChunkRing& ring() const { return ring_; }
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "trace.pipeline.") {
    ring_.RegisterStats(registry, prefix);
  }

 private:
  void Join();  // Close + join, no throw.

  ChunkRing ring_;
  std::thread consumer_;
  std::exception_ptr error_;  // Written by the consumer thread before exit.
  bool finished_ = false;
};

}  // namespace wrl

#endif  // WRLTRACE_TRACE_CHUNK_RING_H_
