// The event timeline: a dedicated observation channel, separate from the
// trace payload itself (the tracer/driver split — see PAPERS.md on
// Deransart's observational semantics and HMTT's semantic-event tagging).
//
// Components record scoped phases (image build, trace-generation epochs,
// analysis-mode switches, parser Feed batches) and instant events (trace
// drains) against two clocks at once: host wall-clock microseconds and the
// simulated machine's cycle counter.  Any thread may record into any
// recorder; each thread records on a track of its own, so the measured
// run's helper thread and the pipeline's consumer thread never interleave
// with the caller's phases.  The recording is append-only and cheap;
// rendering targets the Chrome trace_event JSON format, one `tid` per
// track, so a run report drops straight into chrome://tracing or
// ui.perfetto.dev.
#ifndef WRLTRACE_STATS_EVENTS_H_
#define WRLTRACE_STATS_EVENTS_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace wrl {

class JsonWriter;

struct TimelineEvent {
  std::string name;
  std::string category;
  uint64_t wall_start_us = 0;  // On the process-wide clock (EventRecorder::NowUs).
  uint64_t wall_dur_us = 0;
  uint64_t cycle_start = 0;  // Simulated cycles (0 when no cycle source).
  uint64_t cycle_dur = 0;
  // The recording thread's track: its process-wide number, the Chrome
  // `tid`, the same in every recorder.
  uint32_t tid = 0;
  int depth = 0;        // Nesting depth on its track at Begin time (0 = top level).
  bool instant = false;  // Instant event: durations are zero.
  // Optional single numeric argument (drain word count, fill level, ...).
  bool has_arg = false;
  std::string arg_name;
  uint64_t arg = 0;
};

// Records nested phases plus instant events from any number of threads,
// one track per thread: each track has its own nesting depth and its own
// cycle source, and every recorder stamps the same process-wide wall
// clock, so timelines from different recorders concatenate as they are.
// All methods are null-tolerant through EventRecorder::Scope, so
// components can hold an optional `EventRecorder*` and pay nothing when
// unobserved.
class EventRecorder {
 public:
  // The calling thread's simulated-cycle clock on this recorder; typically
  // `[&m] { return m.cycles(); }`, called only on this thread.  Prefer
  // CycleScope, which cannot outlive the machine it reads.
  void SetCycleSource(std::function<uint64_t()> source);

  // Opens a phase on the calling thread's track.
  void Begin(std::string name, std::string category = "phase");
  // Closes the calling thread's innermost open phase and appends its
  // completed event.
  void End();
  void Instant(std::string name, std::string category = "event");
  void Instant(std::string name, std::string category, std::string arg_name, uint64_t arg);

  // Open phases on the calling thread's track.
  size_t open_scopes() const;
  // Completed events of every track, in completion order (instants
  // interleaved).  Read them only while no other thread records.
  const std::vector<TimelineEvent>& events() const { return events_; }

  // Microseconds on the process-wide clock every recorder stamps.
  static uint64_t NowUs();

  // Emits the timeline as a Chrome trace_event JSON array ("X" complete
  // events and "i" instants).  Open scopes are not emitted.
  void WriteChromeTrace(JsonWriter& writer) const;
  // The standalone document form: {"traceEvents": [...], ...metadata}.
  std::string ChromeTraceJson() const;

  // RAII phase scope; a null recorder makes it a no-op.
  class Scope {
   public:
    Scope(EventRecorder* recorder, std::string name, std::string category = "phase")
        : recorder_(recorder) {
      if (recorder_ != nullptr) {
        recorder_->Begin(std::move(name), std::move(category));
      }
    }
    ~Scope() {
      if (recorder_ != nullptr) {
        recorder_->End();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    EventRecorder* recorder_;
  };

  // RAII cycle source: the calling thread's source on `recorder` for the
  // scope's lifetime, the previous one again once it ends (unwinding
  // included), so a source never outlives the machine it reads.  A null
  // recorder makes it a no-op.
  class CycleScope {
   public:
    CycleScope(EventRecorder* recorder, std::function<uint64_t()> source) : recorder_(recorder) {
      if (recorder_ != nullptr) {
        previous_ = recorder_->ExchangeCycleSource(std::move(source));
      }
    }
    ~CycleScope() {
      if (recorder_ != nullptr) {
        recorder_->ExchangeCycleSource(std::move(previous_));
      }
    }
    CycleScope(const CycleScope&) = delete;
    CycleScope& operator=(const CycleScope&) = delete;

   private:
    EventRecorder* recorder_;
    std::function<uint64_t()> previous_;
  };

 private:
  // A thread's track.  Only that thread reads or writes it, so its cycle
  // source is called without the lock.
  struct Track {
    std::function<uint64_t()> cycle_source;
    std::vector<TimelineEvent> open;  // Stack of in-flight phases.
  };

  std::function<uint64_t()> ExchangeCycleSource(std::function<uint64_t()> source);
  // The calling thread's track, created on first use.  The reference stays
  // valid for the recorder's lifetime: tracks are never erased, and
  // inserting into the map moves no element.
  Track& CallerTrack();
  // A fresh event on the calling thread's `track`, stamped with both clocks.
  static TimelineEvent Stamp(const Track& track, std::string name, std::string category);
  void Append(TimelineEvent event);

  // Guards the map of tracks (not their contents) and events_.
  mutable std::mutex mutex_;
  std::unordered_map<uint32_t, Track> tracks_;  // By tid.
  std::vector<TimelineEvent> events_;
};

// Writes one run's Chrome trace events into an already-open JSON array.
void WriteChromeTraceEvents(JsonWriter& writer, const std::vector<TimelineEvent>& events);

}  // namespace wrl

#endif  // WRLTRACE_STATS_EVENTS_H_
