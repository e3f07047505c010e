#include "stats/stats.h"

#include "support/error.h"
#include "support/json.h"
#include "support/strings.h"

namespace wrl {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

unsigned BucketFor(uint64_t sample) {
  if (sample == 0) {
    return 0;
  }
  unsigned bit = 0;
  while (sample >>= 1) {
    ++bit;
  }
  return bit + 1;  // Samples in [2^bit, 2^(bit+1)) land in bucket bit+1.
}

std::string MissingName(std::string_view name) {
  return StrFormat("stats: no instrument named '%.*s'", static_cast<int>(name.size()),
                   name.data());
}

}  // namespace

void Histogram::Record(uint64_t sample, uint64_t n) {
  if (n == 0) {
    return;
  }
  buckets_[BucketFor(sample)] += n;
  if (count_ == 0 || sample < min_) {
    min_ = sample;
  }
  if (sample > max_) {
    max_ = sample;
  }
  count_ += n;
  sum_ += sample * n;
}

unsigned Histogram::UsedBuckets() const {
  unsigned used = 0;
  for (unsigned i = 0; i < kBuckets; ++i) {
    if (buckets_[i] != 0) {
      used = i + 1;
    }
  }
  return used;
}

// ---------------------------------------------------------------------------
// StatValue / StatsSnapshot
// ---------------------------------------------------------------------------

double StatValue::AsDouble() const {
  switch (kind) {
    case Kind::kCounter:
      return static_cast<double>(counter);
    case Kind::kGauge:
      return gauge;
    case Kind::kHistogram:
      return static_cast<double>(hist_sum);
  }
  return 0;
}

const StatValue* StatsSnapshot::Find(std::string_view name) const {
  auto it = values_.find(std::string(name));
  return it == values_.end() ? nullptr : &it->second;
}

uint64_t StatsSnapshot::CounterValue(std::string_view name) const {
  const StatValue* value = Find(name);
  if (value == nullptr || value->kind != StatValue::Kind::kCounter) {
    throw Error(MissingName(name));
  }
  return value->counter;
}

double StatsSnapshot::GaugeValue(std::string_view name) const {
  const StatValue* value = Find(name);
  if (value == nullptr || value->kind != StatValue::Kind::kGauge) {
    throw Error(MissingName(name));
  }
  return value->gauge;
}

void StatsSnapshot::WriteJson(JsonWriter& writer) const {
  writer.BeginObject();
  for (const auto& [name, value] : values_) {
    writer.Key(name);
    switch (value.kind) {
      case StatValue::Kind::kCounter:
        writer.Value(value.counter);
        break;
      case StatValue::Kind::kGauge:
        writer.Value(value.gauge);
        break;
      case StatValue::Kind::kHistogram:
        writer.BeginObject();
        writer.KV("count", value.hist_count);
        writer.KV("sum", value.hist_sum);
        writer.KV("min", value.hist_min);
        writer.KV("max", value.hist_max);
        writer.KV("mean", value.hist_count == 0
                              ? 0.0
                              : static_cast<double>(value.hist_sum) / value.hist_count);
        writer.Key("log2_buckets").BeginArray();
        for (uint64_t bucket : value.hist_buckets) {
          writer.Value(bucket);
        }
        writer.EndArray();
        writer.EndObject();
        break;
    }
  }
  writer.EndObject();
}

// ---------------------------------------------------------------------------
// StatsRegistry
// ---------------------------------------------------------------------------

StatsRegistry::Instrument& StatsRegistry::Slot(std::string name) {
  return instruments_[std::move(name)] = Instrument{};
}

void StatsRegistry::AddCounter(std::string name, uint64_t* value) {
  Instrument& slot = Slot(std::move(name));
  slot.kind = StatValue::Kind::kCounter;
  slot.counter = value;
}

void StatsRegistry::AddGauge(std::string name, std::function<double()> gauge) {
  Instrument& slot = Slot(std::move(name));
  slot.kind = StatValue::Kind::kGauge;
  slot.gauge = std::move(gauge);
}

void StatsRegistry::AddHistogram(std::string name, Histogram* histogram) {
  Instrument& slot = Slot(std::move(name));
  slot.kind = StatValue::Kind::kHistogram;
  slot.histogram = histogram;
}

bool StatsRegistry::Has(std::string_view name) const {
  return instruments_.find(name) != instruments_.end();
}

std::vector<std::string> StatsRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(instruments_.size());
  for (const auto& [name, instrument] : instruments_) {
    names.push_back(name);
  }
  return names;
}

uint64_t StatsRegistry::CounterValue(std::string_view name) const {
  auto it = instruments_.find(name);
  if (it == instruments_.end() || it->second.kind != StatValue::Kind::kCounter) {
    throw Error(MissingName(name));
  }
  return *it->second.counter;
}

StatsSnapshot StatsRegistry::Snapshot() const {
  StatsSnapshot snapshot;
  for (const auto& [name, instrument] : instruments_) {
    StatValue value;
    value.kind = instrument.kind;
    switch (instrument.kind) {
      case StatValue::Kind::kCounter:
        value.counter = *instrument.counter;
        break;
      case StatValue::Kind::kGauge:
        value.gauge = instrument.gauge();
        break;
      case StatValue::Kind::kHistogram: {
        const Histogram& h = *instrument.histogram;
        value.hist_count = h.count();
        value.hist_sum = h.sum();
        value.hist_min = h.min();
        value.hist_max = h.max();
        unsigned used = h.UsedBuckets();
        value.hist_buckets.assign(h.buckets().begin(), h.buckets().begin() + used);
        break;
      }
    }
    snapshot.Set(name, std::move(value));
  }
  return snapshot;
}

}  // namespace wrl
