#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace dmt::obs {
namespace {

TEST(CounterTest, HandlesShareOneRegistrySlot) {
  Counter a("test/metrics/shared");
  Counter b("test/metrics/shared");
  a.Add(5);
  b.Increment();
  EXPECT_EQ(a.value(), 6u);
  EXPECT_EQ(b.value(), 6u);
  EXPECT_EQ(a.name(), "test/metrics/shared");
}

TEST(CounterTest, DefaultConstructedIsNoopSink) {
  Counter c;
  c.Add(42);
  c.Increment();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(c.name(), "");
}

TEST(CounterTest, CopiedHandleStaysLive) {
  Counter original("test/metrics/copied");
  Counter copy = original;
  copy.Add(3);
  EXPECT_EQ(original.value(), 3u);
}

TEST(GaugeTest, SetStoresLastValue) {
  Gauge g("test/metrics/gauge");
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_EQ(g.value(), -2.25);
  EXPECT_EQ(g.name(), "test/metrics/gauge");
}

TEST(GaugeTest, DefaultConstructedIsNoopSink) {
  Gauge g;
  g.Set(7.0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(RegistryTest, SnapshotIsSortedByName) {
  Counter b("test/metrics/sort/b");
  Counter a("test/metrics/sort/a");
  a.Add(1);
  b.Add(2);
  auto snapshot = Registry::Global().CounterSnapshot();
  EXPECT_TRUE(std::is_sorted(
      snapshot.begin(), snapshot.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
}

TEST(RegistryTest, CounterValueLooksUpByName) {
  Counter c("test/metrics/lookup");
  c.Add(13);
  EXPECT_EQ(Registry::Global().CounterValue("test/metrics/lookup"), 13u);
  EXPECT_EQ(Registry::Global().CounterValue("test/metrics/never"), 0u);
}

TEST(RegistryTest, ResetZeroesValuesButKeepsHandles) {
  Counter c("test/metrics/reset");
  Gauge g("test/metrics/reset_gauge");
  c.Add(5);
  g.Set(3.0);
  Registry::Global().Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  c.Add(2);
  EXPECT_EQ(c.value(), 2u) << "handles must stay valid across Reset";
}

// TSan target: concurrent registration and concurrent Add through
// independent handles must be race-free (the registry's own locking plus
// atomic slots; the deterministic-merge discipline is about values, not
// memory safety).
TEST(RegistryTest, ConcurrentRegistrationAndAddsAreRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Counter shared("test/metrics/concurrent/shared");
      Counter own("test/metrics/concurrent/own_" + std::to_string(t));
      for (int i = 0; i < kAddsPerThread; ++i) {
        shared.Increment();
        own.Increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Counter shared("test/metrics/concurrent/shared");
  EXPECT_EQ(shared.value(),
            static_cast<uint64_t>(kThreads) * kAddsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(Registry::Global().CounterValue(
                  "test/metrics/concurrent/own_" + std::to_string(t)),
              static_cast<uint64_t>(kAddsPerThread));
  }
}

}  // namespace
}  // namespace dmt::obs
