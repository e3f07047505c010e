// wrlstats: the unified counter registry (paper §5's validation currency).
//
// Every layer of the simulator stack — machine, memory system, TLB
// simulator, trace parser, kernel transport, epoxie — accounts for itself
// with ad-hoc counters.  The registry gives those counters one namespace
// ("machine.cycles", "parser.validation_errors", ...), one snapshot
// operation, and one JSON rendering, so the harness can diff measured
// against predicted runs mechanically instead of by hand-written printf.
//
// Three instrument kinds:
//   * counter    — a plain uint64_t field owned by the component; the
//                  registry binds a pointer, so the component's hot path
//                  pays nothing for being observable.
//   * gauge      — a callback evaluated at snapshot time, for values that
//                  are derived (stall-cycle totals, dilation ratios) or
//                  live in simulated memory (kernel stats block words).
//   * Histogram  — power-of-two ("log-scale") buckets for distributions
//                  such as trace-drain sizes and buffer fill levels, owned
//                  by the component like its counters.
//
// Lifetime: the registry owns no instrument; the registering component
// must outlive every Snapshot() call.  Registries are scoped to one
// experiment/run, matching how the harness already scopes the machines
// themselves.
#ifndef WRLTRACE_STATS_STATS_H_
#define WRLTRACE_STATS_STATS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wrl {

class JsonWriter;

// Log-scale (power-of-two) histogram of u64 samples.  Bucket 0 counts exact
// zeros; bucket i (i >= 1) counts samples in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;  // Zero bucket + one per bit.

  // Records `n` samples of value `sample`.
  void Record(uint64_t sample, uint64_t n = 1);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }
  // Index of the highest non-empty bucket + 1 (so reports can trim the tail).
  unsigned UsedBuckets() const;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// One snapshotted instrument value, tagged by kind.
struct StatValue {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  Kind kind = Kind::kCounter;
  uint64_t counter = 0;  // Kind::kCounter.
  double gauge = 0;      // Kind::kGauge.
  // Kind::kHistogram summary.
  uint64_t hist_count = 0;
  uint64_t hist_sum = 0;
  uint64_t hist_min = 0;
  uint64_t hist_max = 0;
  std::vector<uint64_t> hist_buckets;  // Trimmed at the last non-empty bucket.

  // The value as a double regardless of kind (histograms report their sum).
  double AsDouble() const;
};

// A point-in-time copy of every registered instrument, keyed by name.
// std::map keeps the rendering order stable, which keeps report diffs small.
class StatsSnapshot {
 public:
  using Map = std::map<std::string, StatValue>;

  void Set(std::string name, StatValue value) { values_[std::move(name)] = std::move(value); }
  const StatValue* Find(std::string_view name) const;
  bool Has(std::string_view name) const { return Find(name) != nullptr; }
  // Counter value by name; throws wrl::Error when absent.
  uint64_t CounterValue(std::string_view name) const;
  // Gauge value by name; throws wrl::Error when absent.
  double GaugeValue(std::string_view name) const;
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const Map& values() const { return values_; }

  // Renders the snapshot as one JSON object: counters and gauges as
  // numbers, histograms as {count, sum, min, max, mean, buckets}.
  void WriteJson(JsonWriter& writer) const;

 private:
  Map values_;
};

// The registry: name -> instrument bindings.  Not thread-safe (the
// simulator is single-threaded); registration order is irrelevant because
// snapshots are name-sorted.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  // Binds a component's uint64_t field as a counter.  Re-registering a name
  // replaces the binding (components may be rebuilt between runs within one
  // registry scope).
  void AddCounter(std::string name, uint64_t* value);
  // Registers a gauge callback, evaluated at every Snapshot().
  void AddGauge(std::string name, std::function<double()> gauge);
  // Binds a component's histogram.
  void AddHistogram(std::string name, Histogram* histogram);

  bool Has(std::string_view name) const;
  size_t size() const { return instruments_.size(); }
  std::vector<std::string> Names() const;
  // Current value of a registered counter; throws wrl::Error when the name
  // is unknown or names a different instrument kind.
  uint64_t CounterValue(std::string_view name) const;

  StatsSnapshot Snapshot() const;

 private:
  struct Instrument {
    StatValue::Kind kind = StatValue::Kind::kCounter;
    uint64_t* counter = nullptr;
    std::function<double()> gauge;
    Histogram* histogram = nullptr;
  };

  Instrument& Slot(std::string name);

  std::map<std::string, Instrument, std::less<>> instruments_;
};

}  // namespace wrl

#endif  // WRLTRACE_STATS_STATS_H_
