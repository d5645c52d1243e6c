// Coverage for the deterministic histogram metric (obs/metrics.h): the
// fixed bucket layout (boundary ±1 sweep over every bound), nearest-rank
// percentile readout, record-order invariance (the property the serving
// telemetry's bit-identity tests build on), and registry snapshot/reset
// behaviour.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace dmt::obs {
namespace {

namespace hb = histogram_buckets;

TEST(HistogramBucketsTest, BoundarySweepPlusMinusOne) {
  // For every non-overflow bucket: its inclusive upper bound lands in it,
  // and upper bound + 1 lands in the next bucket.
  for (size_t i = 0; i + 1 < hb::kNumBuckets; ++i) {
    const uint64_t bound = hb::BucketUpperBound(i);
    EXPECT_EQ(hb::BucketIndex(bound), i) << "bound " << bound;
    EXPECT_EQ(hb::BucketIndex(bound + 1), i + 1) << "bound " << bound;
    if (i > 0) {
      // Lower edge: one past the previous bound is the first value here.
      EXPECT_EQ(hb::BucketIndex(hb::BucketUpperBound(i - 1) + 1), i);
    }
  }
}

TEST(HistogramBucketsTest, UpperBoundsStrictlyIncrease) {
  for (size_t i = 1; i < hb::kNumBuckets; ++i) {
    EXPECT_GT(hb::BucketUpperBound(i), hb::BucketUpperBound(i - 1))
        << "bucket " << i;
  }
  EXPECT_EQ(hb::BucketUpperBound(hb::kNumBuckets - 1), UINT64_MAX);
}

TEST(HistogramBucketsTest, ExtremesAndOverflow) {
  EXPECT_EQ(hb::BucketIndex(0), 0u);
  EXPECT_EQ(hb::BucketIndex(16), 16u);
  EXPECT_EQ(hb::BucketIndex(17), hb::kLinearBuckets);
  EXPECT_EQ(hb::BucketIndex(UINT64_MAX), hb::kNumBuckets - 1);
  // Last bounded bucket ends at 32·2^31 = 2^36.
  EXPECT_EQ(hb::BucketUpperBound(hb::kNumBuckets - 2), uint64_t{1} << 36);
  EXPECT_EQ(hb::BucketIndex(uint64_t{1} << 36), hb::kNumBuckets - 2);
  EXPECT_EQ(hb::BucketIndex((uint64_t{1} << 36) + 1), hb::kNumBuckets - 1);
}

TEST(HistogramBucketsTest, RelativeErrorBounded) {
  // Any value maps to a bucket whose upper bound overestimates it by at
  // most one sub-bucket width — 1/8 of the octave's lower edge.
  for (uint64_t v : {1ull, 16ull, 17ull, 100ull, 12345ull, 1000000ull,
                     987654321ull, (1ull << 35) + 7}) {
    const uint64_t bound = hb::BucketUpperBound(hb::BucketIndex(v));
    EXPECT_GE(bound, v);
    EXPECT_LE(bound - v, v / 8 + 1) << "value " << v;
  }
}

TEST(HistogramTest, EmptyReadout) {
  Histogram h("test/hist/empty");
  const HistogramData data = h.Data();
  EXPECT_EQ(data.count, 0u);
  EXPECT_EQ(data.sum, 0u);
  ASSERT_EQ(data.buckets.size(), hb::kNumBuckets);
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(data.Percentile(p), 0u) << "p" << p;
  }
  EXPECT_EQ(data.Mean(), 0.0);
}

TEST(HistogramTest, DefaultConstructedIsNoopSink) {
  Histogram h;
  h.Record(42);
  const HistogramData data = h.Data();
  EXPECT_EQ(data.count, 0u);
  ASSERT_EQ(data.buckets.size(), hb::kNumBuckets);
  EXPECT_EQ(h.name(), "");
}

TEST(HistogramTest, NearestRankPercentilesOnKnownSamples) {
  // Values <= 16 occupy exact buckets, so percentiles come back exact.
  Histogram h("test/hist/known");
  for (uint64_t v : {5, 1, 4, 2, 3}) h.Record(v);
  const HistogramData data = h.Data();
  ASSERT_EQ(data.count, 5u);
  EXPECT_EQ(data.sum, 15u);
  // Nearest rank over {1,2,3,4,5}: rank = ceil(p/100 * 5), floor 1.
  EXPECT_EQ(data.Percentile(0.0), 1u);
  EXPECT_EQ(data.Percentile(10.0), 1u);
  EXPECT_EQ(data.Percentile(20.0), 1u);
  EXPECT_EQ(data.Percentile(50.0), 3u);
  EXPECT_EQ(data.Percentile(90.0), 5u);
  EXPECT_EQ(data.Percentile(100.0), 5u);
  EXPECT_EQ(data.Mean(), 3.0);
}

TEST(HistogramTest, OverflowSamplesReadBackAsUint64Max) {
  Histogram h("test/hist/overflow");
  h.Record(1);
  h.Record(UINT64_MAX);
  const HistogramData data = h.Data();
  EXPECT_EQ(data.count, 2u);
  EXPECT_EQ(data.Percentile(50.0), 1u);
  EXPECT_EQ(data.Percentile(100.0), UINT64_MAX);
}

TEST(HistogramTest, HandlesShareOneRegistrySlot) {
  Histogram a("test/hist/shared");
  Histogram b("test/hist/shared");
  a.Record(3);
  b.Record(7);
  EXPECT_EQ(a.Data().count, 2u);
  EXPECT_EQ(b.Data().sum, 10u);
  EXPECT_EQ(a.name(), "test/hist/shared");
}

TEST(HistogramTest, BucketArrayInvariantUnderRecordingOrder) {
  // The same sample multiset in different orders yields bit-identical
  // bucket arrays and sums — the property the serving determinism tests
  // rely on.
  std::vector<uint64_t> samples;
  for (uint64_t i = 0; i < 257; ++i) samples.push_back((i * 131) % 257);

  Histogram forward("test/hist/order_fwd");
  for (uint64_t v : samples) forward.Record(v);
  Histogram backward("test/hist/order_bwd");
  for (size_t i = samples.size(); i > 0; --i) {
    backward.Record(samples[i - 1]);
  }

  const HistogramData f = forward.Data();
  const HistogramData b = backward.Data();
  EXPECT_EQ(f.count, b.count);
  EXPECT_EQ(f.sum, b.sum);
  EXPECT_EQ(f.buckets, b.buckets);
  for (double p = 0.5; p <= 100.0; p += 0.5) {
    ASSERT_EQ(f.Percentile(p), b.Percentile(p)) << "p" << p;
  }
}

TEST(RegistryHistogramTest, SnapshotSortedAndValueLookup) {
  Histogram b("test/hist/registry_b");
  Histogram a("test/hist/registry_a");
  a.Record(1);
  b.Record(2);
  b.Record(3);

  const auto snapshot = Registry::Global().HistogramSnapshot();
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name) << "unsorted";
  }
  const HistogramData found =
      Registry::Global().HistogramValue("test/hist/registry_b");
  EXPECT_EQ(found.count, 2u);
  EXPECT_EQ(found.sum, 5u);

  const HistogramData missing =
      Registry::Global().HistogramValue("test/hist/never_registered");
  EXPECT_EQ(missing.count, 0u);
  ASSERT_EQ(missing.buckets.size(), hb::kNumBuckets);
}

TEST(RegistryHistogramTest, ResetZeroesValuesButKeepsHandles) {
  Histogram h("test/hist/reset");
  h.Record(9);
  ASSERT_EQ(h.Data().count, 1u);
  Registry::Global().Reset();
  EXPECT_EQ(h.Data().count, 0u);
  EXPECT_EQ(h.Data().sum, 0u);
  h.Record(2);  // the handle survives the reset
  EXPECT_EQ(h.Data().count, 1u);
  EXPECT_EQ(h.Data().sum, 2u);
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  // Run under TSan in check.sh: concurrent Record() on one slot must be
  // race-free, and totals must equal the recorded multiset regardless of
  // interleaving.
  Histogram h("test/hist/concurrent");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record((t * kPerThread + i) % 1000);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  Histogram reference("test/hist/concurrent_ref");
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      reference.Record((t * kPerThread + i) % 1000);
    }
  }
  const HistogramData got = h.Data();
  const HistogramData want = reference.Data();
  EXPECT_EQ(got.count, kThreads * kPerThread);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.buckets, want.buckets);
}

}  // namespace
}  // namespace dmt::obs
