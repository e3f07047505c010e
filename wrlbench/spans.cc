#include "spans.h"

#include <algorithm>
#include <chrono>

#include "support/json.h"
#include "support/strings.h"

namespace wrlbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Open spans of the calling thread (innermost last), and a small stable id
// per host thread for the trace viewer.
thread_local std::vector<int> tls_open;
std::atomic<uint32_t> next_tid{0};
thread_local uint32_t tls_tid = next_tid.fetch_add(1);

std::string Layer(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace

Ledger::Ledger() : epoch_ns_(NowNs()) {}

int Ledger::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = tls_open.empty() ? root_.load() : tls_open.back();
  span.exp = exp_.load();
  span.tid = tls_tid;
  int id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    span.start_ns = NowNs() - epoch_ns_;
    spans_.push_back(span);
  }
  tls_open.push_back(id);
  return id;
}

void Ledger::End(int id, uint64_t work) {
  tls_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end_ns = NowNs() - epoch_ns_;
  spans_[id].work = work;
}

void Ledger::BeginExperiment(int exp) {
  exp_.store(exp);
  root_.store(-1);
  root_.store(Begin("experiment"));
}

void Ledger::EndExperiment() {
  End(root_.load());
  root_.store(-1);
  exp_.store(-1);
}

void Ledger::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

std::vector<Span> Ledger::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to this span: children on
    // other threads may overlap each other and this span's own work.
    int64_t covered = 0;
    int64_t cursor = begin;
    for (auto [s, e] : kids) {
      s = std::max(s, cursor);
      e = std::min(e, end);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
    t.work += spans[i].work;
  }
  return totals;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  wrl::JsonWriter writer(0);
  writer.BeginObject();
  writer.KV("displayTimeUnit", "ms");
  writer.Key("traceEvents");
  writer.BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    writer.BeginObject();
    writer.KV("name", span.name);
    writer.KV("cat", Layer(span.name));
    writer.KV("ph", "X");
    writer.KV("ts", static_cast<double>(span.start_ns) / 1e3);
    writer.KV("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    writer.KV("pid", static_cast<uint64_t>(1));
    writer.KV("tid", static_cast<uint64_t>(span.tid));
    writer.Key("args");
    writer.BeginObject();
    writer.KV("id", static_cast<int64_t>(i));
    writer.KV("parent", static_cast<int64_t>(span.parent));
    writer.KV("exp", static_cast<int64_t>(span.exp));
    writer.KV("work", span.work);
    writer.EndObject();
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.TakeString() + "\n";
}

std::string SelfTimeTable(const std::vector<Span>& spans) {
  const std::map<std::string, SpanTotals> totals = TotalsByName(spans);
  const auto exp = totals.find("experiment");
  const SpanTotals wall = exp == totals.end() ? SpanTotals() : exp->second;
  const double wall_ms = static_cast<double>(wall.total_ns) / 1e6;
  auto row = [wall_ms](const std::string& name, const SpanTotals& t) {
    const double self_ms = static_cast<double>(t.self_ns) / 1e6;
    return wrl::StrFormat("%-26s %9llu %11.2f %11.2f %7.2f%%\n", name.c_str(),
                          static_cast<unsigned long long>(t.count),
                          static_cast<double>(t.total_ns) / 1e6, self_ms,
                          wall_ms > 0 ? 100.0 * self_ms / wall_ms : 0.0);
  };
  std::string out = wrl::StrFormat("%-26s %9s %11s %11s %8s\n", "span", "count", "total_ms",
                                   "self_ms", "self_%");
  // Span names start with their layer, so name order groups the layers.
  for (const auto& [name, t] : totals) {
    if (name != "experiment") {
      out += row(name, t);
    }
  }
  out += row("(unattributed)", wall);
  out += wrl::StrFormat("%-26s %9s %11.2f\n", "experiment wall", "", wall_ms);
  return out;
}

std::function<void(const uint32_t*, size_t)> TimedSource::Timed(
    const std::function<void(const uint32_t*, size_t)>& sink) const {
  return [this, &sink](const uint32_t* words, size_t count) {
    SpanScope span(ledger_, "trace.parse");
    span.set_work(count);
    sink(words, count);
  };
}

void TimedSource::Replay(const std::function<void(const uint32_t*, size_t)>& sink) const {
  SpanScope span(ledger_, "trace.decode");
  inner_->Replay(Timed(sink));
}

void TimedSource::ReplayParallel(unsigned workers,
                                 const std::function<void(const uint32_t*, size_t)>& sink) const {
  SpanScope span(ledger_, "trace.decode");
  inner_->ReplayParallel(workers, Timed(sink));
}

}  // namespace wrlbench
