#include "stats/events.h"

#include <atomic>
#include <chrono>

#include "support/error.h"
#include "support/json.h"

namespace wrl {
namespace {

// The calling thread's track number, the same in every recorder: assigned
// on the thread's first event and never reused.
uint32_t CurrentTid() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

uint64_t EventRecorder::NowUs() {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - epoch)
                                   .count());
}

EventRecorder::Track& EventRecorder::CallerTrack() {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracks_[CurrentTid()];
}

TimelineEvent EventRecorder::Stamp(const Track& track, std::string name, std::string category) {
  TimelineEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.wall_start_us = NowUs();
  event.cycle_start = track.cycle_source ? track.cycle_source() : 0;
  event.tid = CurrentTid();
  event.depth = static_cast<int>(track.open.size());
  return event;
}

void EventRecorder::Append(TimelineEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::function<uint64_t()> EventRecorder::ExchangeCycleSource(std::function<uint64_t()> source) {
  std::swap(CallerTrack().cycle_source, source);
  return source;
}

void EventRecorder::Begin(std::string name, std::string category) {
  Track& track = CallerTrack();
  track.open.push_back(Stamp(track, std::move(name), std::move(category)));
}

void EventRecorder::End() {
  Track& track = CallerTrack();
  WRL_CHECK_MSG(!track.open.empty(), "EventRecorder::End() without a matching Begin()");
  TimelineEvent event = std::move(track.open.back());
  track.open.pop_back();
  const uint64_t now_us = NowUs();
  const uint64_t now_cycles = track.cycle_source ? track.cycle_source() : 0;
  event.wall_dur_us = now_us - event.wall_start_us;
  // The thread's cycle source may have changed mid-phase (a CycleScope
  // opened or closed inside it); clamp instead of wrapping.
  event.cycle_dur = now_cycles >= event.cycle_start ? now_cycles - event.cycle_start : 0;
  Append(std::move(event));
}

void EventRecorder::Instant(std::string name, std::string category) {
  TimelineEvent event = Stamp(CallerTrack(), std::move(name), std::move(category));
  event.instant = true;
  Append(std::move(event));
}

void EventRecorder::Instant(std::string name, std::string category, std::string arg_name,
                            uint64_t arg) {
  TimelineEvent event = Stamp(CallerTrack(), std::move(name), std::move(category));
  event.instant = true;
  event.has_arg = true;
  event.arg_name = std::move(arg_name);
  event.arg = arg;
  Append(std::move(event));
}

size_t EventRecorder::open_scopes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tracks_.find(CurrentTid());
  return it == tracks_.end() ? 0 : it->second.open.size();
}

void WriteChromeTraceEvents(JsonWriter& writer, const std::vector<TimelineEvent>& events) {
  for (const TimelineEvent& event : events) {
    writer.BeginObject();
    writer.KV("name", event.name);
    writer.KV("cat", event.category.empty() ? "phase" : event.category);
    writer.KV("ph", event.instant ? "i" : "X");
    writer.KV("ts", event.wall_start_us);
    if (!event.instant) {
      writer.KV("dur", event.wall_dur_us);
    } else {
      writer.KV("s", "t");  // Thread-scoped instant.
    }
    writer.KV("pid", 1);
    writer.KV("tid", event.tid);
    writer.Key("args").BeginObject();
    writer.KV("cycle_start", event.cycle_start);
    if (!event.instant) {
      writer.KV("cycle_dur", event.cycle_dur);
    }
    if (event.has_arg) {
      writer.KV(event.arg_name, event.arg);
    }
    writer.EndObject();
    writer.EndObject();
  }
}

}  // namespace wrl
