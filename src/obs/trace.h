// Hierarchical RAII trace spans and the Chrome trace_event sink.
//
//   obs::Span scan("assoc/apriori/pass");
//   scan.AddArg("k", k);
//   candidates.Add(total);
//   scan.AddArg(candidates.name(), total);   // the run's own total
//
// Spans record wall time (core::WallTimer) and process CPU time
// (core::CpuTimer) between construction and destruction, plus any
// attached args, and report to the global TraceSink. A run records each
// work total it publishes to a registry counter as an arg keyed by the
// counter's name, so concurrent runs sharing a counter never see each
// other's work in their spans. The sink serializes
// to Chrome trace_event JSON ("complete" events, ph="X") loadable in
// chrome://tracing or Perfetto, with the metrics-registry totals embedded
// as a "dmtCounters" object.
//
// Off switch (default off): tracing is enabled by the DMT_TRACE=<path>
// environment variable or programmatically via TraceSink::Start /
// StartCollection. A disabled span costs one relaxed atomic load and a
// predicted branch — the "no measurable slowdown" number is checked by
// the EXT-7 bench, not asserted.
//
// Naming scheme: span names are static strings of the form
// "<family>/<algorithm>/<phase>" (nested phases append segments, e.g.
// "assoc/apriori/pass/count"); per-invocation values such as the pass
// number travel as args, never in the name, so disabled spans do no
// formatting work. Spans may be opened on any thread, but the library
// only opens them on the orchestrating thread; chunk-body work is
// reported through counters instead.
#ifndef DMT_OBS_TRACE_H_
#define DMT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace dmt::obs {

namespace internal {

/// One finished span, in microseconds since the sink's epoch.
struct TraceEvent {
  const char* name = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double cpu_us = 0.0;
  uint32_t tid = 0;
  std::vector<std::pair<std::string, uint64_t>> args;
};

}  // namespace internal

/// Aggregated view of every recorded span with a given name (the span
/// tree a bench embeds in its --json record).
struct SpanAggregate {
  std::string name;
  uint64_t count = 0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Global collector of finished spans. Record() appends under a mutex —
/// spans are phase-granularity, so contention is not a concern; hot-loop
/// work belongs in counters.
class TraceSink {
 public:
  /// The process-wide sink. First access reads DMT_TRACE: when set and
  /// non-empty, collection starts immediately and the trace is flushed to
  /// that path at process exit (or an earlier Stop()).
  static TraceSink& Global();

  /// True when spans are being collected (the Span fast-path check).
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Starts collection and arranges for Flush() to write `path`.
  void Start(std::string path);
  /// Starts in-memory collection with no output file (the bench harness
  /// uses this to embed span aggregates without writing a trace).
  void StartCollection();
  /// Stops collection and flushes to the configured path, if any.
  void Stop();
  /// Temporarily toggles collection without touching the path or the
  /// buffered events (the EXT-7 overhead bench flips this).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Discards every buffered event (keeps the enabled state and path).
  void Clear();

  /// Writes the Chrome trace_event JSON to the configured path. No-op
  /// without a path. Keeps the buffered events.
  void Flush();

  /// Buffered spans aggregated by name, sorted by name.
  std::vector<SpanAggregate> Aggregates() const;

  /// Number of buffered events (capped; see kMaxEvents).
  size_t event_count() const;
  /// Events dropped after the cap was reached.
  uint64_t dropped_events() const;

  /// Seconds since the sink's construction (the trace timebase).
  double EpochSeconds() const;

  void Record(internal::TraceEvent event);

  /// Records an externally timed span — serving's per-request telemetry,
  /// where the request lifetime crosses threads and queues so a
  /// stack-scoped Span cannot bracket it. `ts_us` is microseconds since
  /// the sink's epoch (EpochSeconds() · 1e6), `dur_us` the measured
  /// duration. No-op while collection is disabled.
  void RecordManual(const char* name, double ts_us, double dur_us,
                    std::vector<std::pair<std::string, uint64_t>> args);

  /// Stable small integer for the calling thread (trace "tid").
  uint32_t ThreadId();

 private:
  TraceSink();
  ~TraceSink();

  /// Buffer cap: a span is ~100 bytes, so the cap bounds the sink at
  /// roughly 100 MB under pathological span counts.
  static constexpr size_t kMaxEvents = 1u << 20;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::string path_;
  std::vector<internal::TraceEvent> events_;
  uint64_t dropped_ = 0;
};

/// RAII trace span. `name` must be a string with static storage duration
/// (the sink stores the pointer). Non-copyable, non-movable; construct on
/// the stack around the phase being measured.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a named value to the span (shown under "args" in the trace
  /// viewer). No-op on an inactive span.
  void AddArg(std::string_view key, uint64_t value);

 private:
  const char* name_;
  bool active_;
  double start_wall_us_ = 0.0;
  double start_cpu_us_ = 0.0;
  std::vector<std::pair<std::string, uint64_t>> args_;
};

}  // namespace dmt::obs

#endif  // DMT_OBS_TRACE_H_
