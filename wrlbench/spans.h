// The span run's ledger: spans recorded from the benchmark's own code around
// every call into a layer of the pipeline (no instrumentation inside the
// program).  Spans are kept in memory and written out when the run ends.
//
// Each span records its name, start, end, parent span, experiment id, and
// host thread.  A span opened on a thread with no open span of its own (the
// pipeline's consumer thread) is parented to the current experiment span, so
// the live parse that overlaps the traced machine run is still a child of
// its experiment.  A span's self time is its duration minus the part of its
// interval that its children cover; an experiment span's self time is the
// wall time no named layer accounts for.
#ifndef WRLBENCH_SPANS_H_
#define WRLBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/chunk_source.h"
#include "trace/parser.h"

namespace wrlbench {

struct Span {
  const char* name = "";  // Static string: "<layer>.<what>" or "<layer>".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int32_t exp = -1;
  uint32_t tid = 0;
  uint64_t work = 0;  // Work count the caller attached (words, refs).
};

// Per-name totals over a set of spans.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  uint64_t work = 0;
};

class Ledger {
 public:
  Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  int Begin(const char* name);
  void End(int id, uint64_t work = 0);

  // Opens/closes the root span of one experiment (main thread only).
  void BeginExperiment(int exp);
  void EndExperiment();

  // Drops every recorded span (between passes).
  void Clear();
  std::vector<Span> spans() const;

 private:
  int64_t epoch_ns_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<int> exp_{-1};
  std::atomic<int> root_{-1};
};

// RAII span; a null ledger makes it a no-op (the plain run).
class SpanScope {
 public:
  SpanScope(Ledger* ledger, const char* name) : ledger_(ledger) {
    if (ledger_ != nullptr) {
      id_ = ledger_->Begin(name);
    }
  }
  ~SpanScope() {
    if (ledger_ != nullptr) {
      ledger_->End(id_, work_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_work(uint64_t work) { work_ = work; }

 private:
  Ledger* ledger_;
  int id_ = -1;
  uint64_t work_ = 0;
};

// A `harness.teardown` span that ends when this object is destroyed.
// Declared first in a function and opened just before it returns, it covers
// the destruction of every other local (systems, simulators, streams).
class TeardownSpan {
 public:
  explicit TeardownSpan(Ledger* ledger) : ledger_(ledger) {}
  ~TeardownSpan() {
    if (id_ >= 0) {
      ledger_->End(id_);
    }
  }
  TeardownSpan(const TeardownSpan&) = delete;
  TeardownSpan& operator=(const TeardownSpan&) = delete;

  void Open() {
    if (ledger_ != nullptr) {
      id_ = ledger_->Begin("harness.teardown");
    }
  }

 private:
  Ledger* ledger_;
  int id_ = -1;
};

// Self time of every span (same order as `spans`).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Totals keyed by span name.
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

// Chrome trace_event JSON ("X" complete events, microsecond timestamps).
std::string ChromeTraceJson(const std::vector<Span>& spans);

// Self-time table: one row per span name, grouped by layer (the name up to
// the first '.'), with shares of the summed experiment wall time.
std::string SelfTimeTable(const std::vector<Span>& spans);

// A non-owning or owning pass-through sink that records one span per batch.
// It is also the benchmark's ReplayEngine config sink (the engine wants to
// own its sinks); with a null ledger it is a plain borrowed sink.
class TimedSink : public wrl::RefBatchSink {
 public:
  TimedSink(Ledger* ledger, const char* name, wrl::RefBatchSink* target)
      : ledger_(ledger), name_(name), target_(target) {}
  TimedSink(Ledger* ledger, const char* name, std::unique_ptr<wrl::RefBatchSink> owned)
      : ledger_(ledger), name_(name), target_(owned.get()), owned_(std::move(owned)) {}

  void OnRefBatch(const wrl::TraceRef* refs, size_t count) override {
    SpanScope span(ledger_, name_);
    span.set_work(count);
    target_->OnRefBatch(refs, count);
  }
  wrl::RefBatchSink* target() const { return target_; }

 private:
  Ledger* ledger_;
  const char* name_;
  wrl::RefBatchSink* target_;
  std::unique_ptr<wrl::RefBatchSink> owned_;
};

// Wraps a chunk source so the replay's decode and parse separate: the whole
// Replay is a `trace.decode` span and each chunk handed to the parser a
// `trace.parse` child, so decode self time is Replay minus parse.
class TimedSource : public wrl::TraceChunkSource {
 public:
  TimedSource(Ledger* ledger, const wrl::TraceChunkSource* inner)
      : ledger_(ledger), inner_(inner) {}

  size_t chunk_count() const override { return inner_->chunk_count(); }
  uint64_t word_count() const override { return inner_->word_count(); }
  void DecodeChunk(size_t index, std::vector<uint32_t>& out) const override {
    inner_->DecodeChunk(index, out);
  }
  void Replay(const std::function<void(const uint32_t*, size_t)>& sink) const override;
  void ReplayParallel(unsigned workers,
                      const std::function<void(const uint32_t*, size_t)>& sink) const override;

 private:
  std::function<void(const uint32_t*, size_t)> Timed(
      const std::function<void(const uint32_t*, size_t)>& sink) const;

  Ledger* ledger_;
  const wrl::TraceChunkSource* inner_;
};

}  // namespace wrlbench

#endif  // WRLBENCH_SPANS_H_
