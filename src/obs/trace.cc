#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/timer.h"
#include "obs/log.h"

namespace dmt::obs {

namespace {

/// One steady timebase for the whole trace; every ts is relative to it.
const core::WallTimer& ProcessEpoch() {
  static const core::WallTimer epoch;
  return epoch;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

TraceSink& TraceSink::Global() {
  // Function-local static (not leaked): the destructor flushes the trace
  // at process exit, which is how DMT_TRACE=<path> runs get their file
  // without any explicit Stop() call.
  static TraceSink sink;
  return sink;
}

TraceSink::TraceSink() {
  ProcessEpoch();  // pin the timebase before the first span
  const char* env = std::getenv("DMT_TRACE");
  if (env != nullptr && env[0] != '\0') {
    Start(env);
  }
}

TraceSink::~TraceSink() {
  enabled_.store(false, std::memory_order_relaxed);
  Flush();
}

void TraceSink::Start(std::string path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = std::move(path);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceSink::StartCollection() {
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceSink::Stop() {
  enabled_.store(false, std::memory_order_relaxed);
  Flush();
}

void TraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_ = 0;
}

void TraceSink::Record(internal::TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceSink::RecordManual(
    const char* name, double ts_us, double dur_us,
    std::vector<std::pair<std::string, uint64_t>> args) {
  if (!enabled()) return;
  internal::TraceEvent event;
  event.name = name;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = ThreadId();
  event.args = std::move(args);
  Record(std::move(event));
}

uint32_t TraceSink::ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

double TraceSink::EpochSeconds() const {
  return ProcessEpoch().ElapsedSeconds();
}

size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

uint64_t TraceSink::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<SpanAggregate> TraceSink::Aggregates() const {
  std::map<std::string, SpanAggregate> by_name;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const internal::TraceEvent& event : events_) {
      SpanAggregate& agg = by_name[event.name];
      ++agg.count;
      agg.wall_ms += event.dur_us * 1e-3;
      agg.cpu_ms += event.cpu_us * 1e-3;
    }
  }
  std::vector<SpanAggregate> out;
  out.reserve(by_name.size());
  for (auto& [name, agg] : by_name) {
    agg.name = name;
    out.push_back(std::move(agg));
  }
  return out;
}

void TraceSink::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (path_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    Log(LogSeverity::kError, "cannot write trace to '%s'", path_.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"displayTimeUnit\": \"ms\",\n"
               "  \"traceEvents\": [");
  for (size_t i = 0; i < events_.size(); ++i) {
    const internal::TraceEvent& e = events_[i];
    // Chrome "complete" events: ts/dur in microseconds; tdur carries the
    // span's CPU time so viewers show both clocks.
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"cat\": \"dmt\", "
                 "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"tdur\": %.3f",
                 i == 0 ? "" : ",", JsonEscape(e.name).c_str(), e.tid,
                 e.ts_us, e.dur_us, e.cpu_us);
    if (!e.args.empty()) {
      std::fprintf(f, ", \"args\": {");
      for (size_t a = 0; a < e.args.size(); ++a) {
        std::fprintf(f, "%s\"%s\": %llu", a == 0 ? "" : ", ",
                     JsonEscape(e.args[a].first).c_str(),
                     static_cast<unsigned long long>(e.args[a].second));
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ],\n  \"dmtCounters\": {");
  auto counters = Registry::Global().CounterSnapshot();
  for (size_t i = 0; i < counters.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %llu", i == 0 ? "" : ",",
                 JsonEscape(counters[i].first).c_str(),
                 static_cast<unsigned long long>(counters[i].second));
  }
  std::fprintf(f, "\n  },\n  \"dmtDroppedEvents\": %llu\n}\n",
               static_cast<unsigned long long>(dropped_));
  std::fclose(f);
}

Span::Span(const char* name)
    : name_(name), active_(TraceSink::Global().enabled()) {
  if (!active_) return;
  start_wall_us_ = TraceSink::Global().EpochSeconds() * 1e6;
  start_cpu_us_ = core::CpuTimer::Now() * 1e6;
}

Span::~Span() {
  if (!active_) return;
  TraceSink& sink = TraceSink::Global();
  internal::TraceEvent event;
  event.name = name_;
  event.ts_us = start_wall_us_;
  event.dur_us = sink.EpochSeconds() * 1e6 - start_wall_us_;
  event.cpu_us = core::CpuTimer::Now() * 1e6 - start_cpu_us_;
  event.tid = sink.ThreadId();
  event.args = std::move(args_);
  sink.Record(std::move(event));
}

void Span::AddArg(std::string_view key, uint64_t value) {
  if (!active_) return;
  args_.emplace_back(key, value);
}

}  // namespace dmt::obs
