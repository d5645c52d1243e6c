#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"

namespace dmt::obs {
namespace {

/// Resets the sink to a known state: collecting in memory, no buffered
/// events. Tests in this binary share the process-global sink.
void FreshCollection() {
  TraceSink::Global().set_enabled(true);
  TraceSink::Global().Clear();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(SpanTest, RecordsOneEventPerScope) {
  FreshCollection();
  {
    Span span("test/trace/phase");
  }
  EXPECT_EQ(TraceSink::Global().event_count(), 1u);
  EXPECT_EQ(TraceSink::Global().dropped_events(), 0u);
}

TEST(SpanTest, DisabledSpanRecordsNothing) {
  FreshCollection();
  TraceSink::Global().set_enabled(false);
  {
    Span span("test/trace/disabled");
    span.AddArg("k", 3);
  }
  EXPECT_EQ(TraceSink::Global().event_count(), 0u);
}

TEST(SpanTest, AggregatesGroupByName) {
  FreshCollection();
  for (int i = 0; i < 3; ++i) {
    Span span("test/trace/repeated");
  }
  {
    Span span("test/trace/once");
  }
  auto aggregates = TraceSink::Global().Aggregates();
  ASSERT_EQ(aggregates.size(), 2u);
  // std::map ordering: "once" < "repeated".
  EXPECT_EQ(aggregates[0].name, "test/trace/once");
  EXPECT_EQ(aggregates[0].count, 1u);
  EXPECT_EQ(aggregates[1].name, "test/trace/repeated");
  EXPECT_EQ(aggregates[1].count, 3u);
  EXPECT_GE(aggregates[1].wall_ms, 0.0);
  EXPECT_GE(aggregates[1].cpu_ms, 0.0);
}

TEST(TraceSinkTest, StopFlushesChromeTraceJson) {
  const std::string path = testing::TempDir() + "dmt_trace_test.json";
  TraceSink::Global().Clear();
  TraceSink::Global().Start(path);
  Counter counter("test/trace/flush_counter");
  {
    Span span("test/trace/flushed");
    span.AddArg("k", 3);
    counter.Add(11);
    span.AddArg(counter.name(), 11);
  }
  TraceSink::Global().Stop();
  const std::string json = ReadAll(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test/trace/flushed\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": 3"), std::string::npos);
  // A published total serialized as an arg keyed by the counter's name.
  EXPECT_NE(json.find("\"test/trace/flush_counter\": 11"),
            std::string::npos);
  EXPECT_NE(json.find("\"dmtCounters\""), std::string::npos);
  EXPECT_NE(json.find("\"dmtDroppedEvents\": 0"), std::string::npos);
  EXPECT_FALSE(TraceSink::Global().enabled());
}

TEST(TraceSinkTest, ClearDiscardsBufferedEvents) {
  FreshCollection();
  {
    Span span("test/trace/cleared");
  }
  ASSERT_EQ(TraceSink::Global().event_count(), 1u);
  TraceSink::Global().Clear();
  EXPECT_EQ(TraceSink::Global().event_count(), 0u);
  EXPECT_TRUE(TraceSink::Global().Aggregates().empty());
  TraceSink::Global().set_enabled(false);
}

TEST(TraceSinkTest, ThreadIdIsStablePerThread) {
  uint32_t first = TraceSink::Global().ThreadId();
  uint32_t second = TraceSink::Global().ThreadId();
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0u);
}

TEST(TraceSinkTest, EpochAdvances) {
  double a = TraceSink::Global().EpochSeconds();
  double b = TraceSink::Global().EpochSeconds();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace dmt::obs
