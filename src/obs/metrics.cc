#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace dmt::obs {

namespace {

const std::string& EmptyName() {
  static const std::string empty;
  return empty;
}

HistogramData ReadSlot(const internal::HistogramSlot& slot) {
  HistogramData data;
  data.name = slot.name;
  data.sum = slot.sum.load(std::memory_order_relaxed);
  data.buckets.resize(histogram_buckets::kNumBuckets);
  for (size_t i = 0; i < histogram_buckets::kNumBuckets; ++i) {
    data.buckets[i] = slot.buckets[i].load(std::memory_order_relaxed);
    data.count += data.buckets[i];
  }
  return data;
}

}  // namespace

uint64_t HistogramData::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::min(p, 100.0);
  // Nearest rank: the smallest rank >= p/100 · count, at least 1.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return histogram_buckets::BucketUpperBound(i);
  }
  return histogram_buckets::BucketUpperBound(buckets.size() - 1);
}

double HistogramData::Mean() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(count);
}

HistogramData Histogram::Data() const {
  if (slot_ == nullptr) {
    HistogramData empty;
    empty.buckets.resize(histogram_buckets::kNumBuckets);
    return empty;
  }
  return ReadSlot(*slot_);
}

Registry& Registry::Global() {
  // Leaked singleton: handles may be read during static destruction (a
  // bench's trace flush, a test's atexit), so the registry must outlive
  // every other static.
  static Registry* registry = new Registry();
  return *registry;
}

internal::CounterSlot* Registry::CounterNamed(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return it->second;
  internal::CounterSlot& slot = counters_.emplace_back();
  slot.name = std::string(name);
  counter_index_.emplace(slot.name, &slot);
  return &slot;
}

internal::GaugeSlot* Registry::GaugeNamed(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return it->second;
  internal::GaugeSlot& slot = gauges_.emplace_back();
  slot.name = std::string(name);
  gauge_index_.emplace(slot.name, &slot);
  return &slot;
}

internal::HistogramSlot* Registry::HistogramNamed(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return it->second;
  internal::HistogramSlot& slot = histograms_.emplace_back();
  slot.name = std::string(name);
  histogram_index_.emplace(slot.name, &slot);
  return &slot;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (internal::CounterSlot& slot : counters_) {
    slot.value.store(0, std::memory_order_relaxed);
  }
  for (internal::GaugeSlot& slot : gauges_) {
    slot.value.store(0.0, std::memory_order_relaxed);
  }
  for (internal::HistogramSlot& slot : histograms_) {
    slot.sum.store(0, std::memory_order_relaxed);
    for (auto& bucket : slot.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

std::vector<std::pair<std::string, uint64_t>> Registry::CounterSnapshot()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(counters_.size());
    for (const internal::CounterSlot& slot : counters_) {
      out.emplace_back(slot.name,
                       slot.value.load(std::memory_order_relaxed));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::GaugeSnapshot() const {
  std::vector<std::pair<std::string, double>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(gauges_.size());
    for (const internal::GaugeSlot& slot : gauges_) {
      out.emplace_back(slot.name,
                       slot.value.load(std::memory_order_relaxed));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<HistogramData> Registry::HistogramSnapshot() const {
  std::vector<HistogramData> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(histograms_.size());
    for (const internal::HistogramSlot& slot : histograms_) {
      out.push_back(ReadSlot(slot));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramData& a, const HistogramData& b) {
              return a.name < b.name;
            });
  return out;
}

uint64_t Registry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counter_index_.find(name);
  if (it == counter_index_.end()) return 0;
  return it->second->value.load(std::memory_order_relaxed);
}

HistogramData Registry::HistogramValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histogram_index_.find(name);
  if (it == histogram_index_.end()) {
    HistogramData empty;
    empty.name = std::string(name);
    empty.buckets.resize(histogram_buckets::kNumBuckets);
    return empty;
  }
  return ReadSlot(*it->second);
}

Counter::Counter(std::string_view name)
    : slot_(Registry::Global().CounterNamed(name)) {}

const std::string& Counter::name() const {
  return slot_ != nullptr ? slot_->name : EmptyName();
}

Gauge::Gauge(std::string_view name)
    : slot_(Registry::Global().GaugeNamed(name)) {}

const std::string& Gauge::name() const {
  return slot_ != nullptr ? slot_->name : EmptyName();
}

Histogram::Histogram(std::string_view name)
    : slot_(Registry::Global().HistogramNamed(name)) {}

const std::string& Histogram::name() const {
  return slot_ != nullptr ? slot_->name : EmptyName();
}

}  // namespace dmt::obs
