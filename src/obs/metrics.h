// Deterministic metrics registry: named Counter/Gauge/Histogram handles
// backed by a process-global registry, so every algorithm reports work
// through one schema instead of ad-hoc side channels.
//
// The registry is a write-only sink for the library. Each run owns its
// work counts: an algorithm tallies into locals (plain per-chunk slots
// folded after the pool barrier, since each chunk owns its slot), fills
// its public stats fields (MiningResult work counters,
// ClusteringResult::distance_computations, TreeBuildStats::
// split_scan_rows) from those tallies, publishes each total to the
// registry with one Counter::Add, and records the same total as an arg
// of its open span, keyed by the counter's name. Nothing in the library
// reads a counter back into a result or a span, so two runs in one
// process never see each other's work. Readers are the exporters
// (trace, Prometheus, stats JSON) and tests.
//
// Determinism contract (DESIGN.md "Parallel execution", applied to
// metrics): counter totals must be bit-identical at every thread count.
// Per-chunk tallies are integer sums, so any fold order gives the same
// total; the registry values are atomics only so that independent runs
// on different application threads remain race-free.
#ifndef DMT_OBS_METRICS_H_
#define DMT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dmt::obs {

/// Fixed log-spaced bucket layout shared by every Histogram. The layout
/// is part of the determinism contract: bucket boundaries are compile-time
/// constants, so identical sample multisets produce identical bucket
/// arrays on every machine and at every thread count.
///
/// Values are unsigned integers (the serving layer records microseconds):
///   - buckets 0..16 are exact, one value each (upper bound == index);
///   - above 16, each power-of-two octave (16·2^o, 32·2^o] splits into 8
///     equal sub-buckets, bounding relative error by 1/16 = 6.25%;
///   - 32 octaves reach 2^36 µs (≈ 19 hours); one final overflow bucket
///     catches everything larger.
namespace histogram_buckets {

inline constexpr size_t kLinearBuckets = 17;  // upper bounds 0, 1, .. 16
inline constexpr size_t kOctaves = 32;
inline constexpr size_t kStepsPerOctave = 8;
inline constexpr size_t kNumBuckets =
    kLinearBuckets + kOctaves * kStepsPerOctave + 1;  // +1 overflow

/// Index of the bucket whose range contains `value`.
constexpr size_t BucketIndex(uint64_t value) {
  if (value < kLinearBuckets) return static_cast<size_t>(value);
  // value >= 17, so bit_width(value - 1) >= 5; octave o covers
  // (16·2^o, 32·2^o].
  int octave = std::bit_width(value - 1) - 5;
  if (octave >= static_cast<int>(kOctaves)) return kNumBuckets - 1;
  uint64_t base = uint64_t{16} << octave;  // exclusive lower bound
  uint64_t step = uint64_t{2} << octave;   // sub-bucket width
  return kLinearBuckets + static_cast<size_t>(octave) * kStepsPerOctave +
         static_cast<size_t>((value - base - 1) / step);
}

/// Inclusive upper bound of bucket `index`; UINT64_MAX for the overflow
/// bucket.
constexpr uint64_t BucketUpperBound(size_t index) {
  if (index < kLinearBuckets) return index;
  if (index >= kNumBuckets - 1) return UINT64_MAX;
  size_t rel = index - kLinearBuckets;
  size_t octave = rel / kStepsPerOctave;
  size_t sub = rel % kStepsPerOctave;
  return (uint64_t{16} << octave) + (uint64_t{2} << octave) * (sub + 1);
}

}  // namespace histogram_buckets

namespace internal {

struct CounterSlot {
  std::string name;
  std::atomic<uint64_t> value{0};
};

struct GaugeSlot {
  std::string name;
  std::atomic<double> value{0.0};
};

struct HistogramSlot {
  std::string name;
  std::atomic<uint64_t> sum{0};  // sum of recorded values
  std::array<std::atomic<uint64_t>, histogram_buckets::kNumBuckets>
      buckets{};
};

}  // namespace internal

/// Handle to one named registry counter. Cheap to copy; a
/// default-constructed handle is a no-op sink. Handles stay valid for the
/// process lifetime (registry slots are never deallocated or moved).
class Counter {
 public:
  Counter() = default;
  /// Registers (or looks up) the counter named `name` in the global
  /// registry. One mutex-guarded hash lookup — construct once per
  /// algorithm invocation, not inside hot loops.
  explicit Counter(std::string_view name);

  void Add(uint64_t delta) {
    if (slot_ != nullptr) {
      slot_->value.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  void Increment() { Add(1); }

  uint64_t value() const {
    return slot_ != nullptr ? slot_->value.load(std::memory_order_relaxed)
                            : 0;
  }

  /// The registered name, or "" for a default-constructed handle.
  const std::string& name() const;

 private:
  internal::CounterSlot* slot_ = nullptr;
};

/// Handle to one named registry gauge (a last-written value, e.g. a
/// configuration knob or a final quality number).
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(std::string_view name);

  void Set(double value) {
    if (slot_ != nullptr) {
      slot_->value.store(value, std::memory_order_relaxed);
    }
  }
  double value() const {
    return slot_ != nullptr ? slot_->value.load(std::memory_order_relaxed)
                            : 0.0;
  }
  const std::string& name() const;

 private:
  internal::GaugeSlot* slot_ = nullptr;
};

/// Point-in-time copy of one histogram's state. `count` is derived from
/// the bucket array at snapshot time, so `count == Σ buckets[i]` holds by
/// construction even when the snapshot races concurrent Record() calls
/// (`sum` is read separately and may trail by in-flight samples).
struct HistogramData {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Per-bucket (non-cumulative) sample counts; size
  /// histogram_buckets::kNumBuckets.
  std::vector<uint64_t> buckets;

  /// Nearest-rank percentile readout: the inclusive upper bound of the
  /// bucket holding the sample of rank ceil(p/100 · count). A pure
  /// function of the bucket counts, so deterministic whenever they are.
  /// Returns 0 for an empty histogram; UINT64_MAX if the rank falls in
  /// the overflow bucket. `p` is clamped to (0, 100].
  uint64_t Percentile(double p) const;

  /// sum / count, or 0.0 for an empty histogram. Unlike Percentile this
  /// uses the exact sample sum, not bucket bounds.
  double Mean() const;
};

/// Handle to one named registry histogram of unsigned integer samples
/// (by convention microseconds for latency metrics). Same lifetime and
/// cost model as Counter: cheap to copy, default-constructed handles are
/// no-op sinks, slots live for the process lifetime.
///
/// Record() is race-free from any thread (relaxed atomic adds), and the
/// final bucket array is a pure function of the recorded multiset — so
/// histograms of deterministic quantities (work shapes, element counts)
/// are bit-identical at every thread count even when recorded
/// concurrently.
class Histogram {
 public:
  Histogram() = default;
  /// Registers (or looks up) the histogram named `name`. One
  /// mutex-guarded hash lookup — construct outside hot loops.
  explicit Histogram(std::string_view name);

  void Record(uint64_t value) {
    if (slot_ == nullptr) return;
    slot_->sum.fetch_add(value, std::memory_order_relaxed);
    slot_->buckets[histogram_buckets::BucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Current state (count derived from buckets; see HistogramData).
  /// Default-constructed handles return empty data.
  HistogramData Data() const;

  const std::string& name() const;

 private:
  internal::HistogramSlot* slot_ = nullptr;
};

/// Process-global registry of named counters and gauges.
class Registry {
 public:
  static Registry& Global();

  /// Zeroes every value (registrations and handles stay valid). Tests
  /// call this between runs to compare absolute totals.
  void Reset();

  /// All counters as (name, value), sorted by name — the deterministic
  /// order every serialization uses.
  std::vector<std::pair<std::string, uint64_t>> CounterSnapshot() const;
  /// All gauges as (name, value), sorted by name.
  std::vector<std::pair<std::string, double>> GaugeSnapshot() const;
  /// All histograms, sorted by name.
  std::vector<HistogramData> HistogramSnapshot() const;

  /// Value of the counter named `name`, or 0 if never registered.
  uint64_t CounterValue(std::string_view name) const;
  /// State of the histogram named `name`; empty data if never registered.
  HistogramData HistogramValue(std::string_view name) const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  internal::CounterSlot* CounterNamed(std::string_view name);
  internal::GaugeSlot* GaugeNamed(std::string_view name);
  internal::HistogramSlot* HistogramNamed(std::string_view name);

  mutable std::mutex mutex_;
  // Deques never relocate elements, so handles hold stable pointers.
  std::deque<internal::CounterSlot> counters_;
  std::deque<internal::GaugeSlot> gauges_;
  std::deque<internal::HistogramSlot> histograms_;
  std::unordered_map<std::string_view, internal::CounterSlot*>
      counter_index_;
  std::unordered_map<std::string_view, internal::GaugeSlot*> gauge_index_;
  std::unordered_map<std::string_view, internal::HistogramSlot*>
      histogram_index_;
};

}  // namespace dmt::obs

#endif  // DMT_OBS_METRICS_H_
