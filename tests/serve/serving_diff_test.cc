// The serving determinism contract, enforced: for a fixed frame
// sequence, HandleFrames() must produce bit-identical response bytes at
// every batch_size x num_threads x cache combination, and identical
// serve/* counter totals within a cache setting — the only permitted
// difference is the batch-shape counters (serve/batches,
// serve/batch_bucket_*), which describe the batching itself. Two waves
// of traffic with repeated baskets make the second wave hit the cache,
// so the cached fast path is covered by the same bit-identity check
// (and once more with verify_cache_hits recomputing every hit). The
// async BatchQueue, which the daemon serves through, is held to the same
// bytes as the sync path.
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/batch_queue.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "test_bundle.h"

namespace dmt::serve {
namespace {

using Frames = std::vector<std::vector<std::byte>>;

/// Two waves of mixed traffic (no stats requests — their JSON embeds
/// live counter values, which legitimately vary with batch shape).
/// Wave 2 repeats wave 1's baskets so cache-enabled configs hit.
struct Workload {
  Frames wave1;
  Frames wave2;
  size_t total_baskets = 0;
};

Workload MakeWorkload(const ModelBundle& bundle) {
  const core::Dataset& train = bundle.train();
  Workload load;
  uint64_t id = 1;

  auto add = [&](Frames* wave, const Request& request) {
    wave->push_back(EncodeRequestFrame(request));
  };

  const std::vector<std::vector<uint32_t>> baskets = {
      {2, 5, 9}, {1, 3}, {7, 2, 2, 11}, {4}, {9, 5, 2}};

  for (int round = 0; round < 3; ++round) {
    add(&load.wave1,
        testutil::MakeClassifyRequest(id++, ClassifyModel::kTree, train,
                                      {0, 1, 2}));
    add(&load.wave1,
        testutil::MakeClassifyRequest(id++, ClassifyModel::kKnn, train,
                                      {3, 4}));
    add(&load.wave1,
        testutil::MakeClassifyRequest(id++, ClassifyModel::kNaiveBayes,
                                      train, {5, 6, 7, 8}));
    add(&load.wave1,
        testutil::MakeClusterRequest(
            id++, {0.0, 0.0, 10.0, 10.0, -3.0, 7.5, 20.0, 0.5}, 2));
    add(&load.wave1,
        testutil::MakeRecommendRequest(
            id++, 4,
            {baskets[round % baskets.size()],
             baskets[(round + 1) % baskets.size()]}));
    load.total_baskets += 2;
  }
  // A malformed frame and a validation failure: their error responses
  // must be equally deterministic.
  load.wave1.push_back(std::vector<std::byte>(13, std::byte{0x3C}));
  Request bad_dim;
  bad_dim.id = id++;
  bad_dim.type = RequestType::kClassify;
  bad_dim.model = ClassifyModel::kTree;
  bad_dim.count = 1;
  bad_dim.dim = 2;
  bad_dim.values = {1.0, 2.0};
  add(&load.wave1, bad_dim);

  // Wave 2: every basket repeats a wave-1 basket => pure cache hits
  // when the cache is on, plus fresh classify/cluster traffic.
  for (int round = 0; round < 2; ++round) {
    add(&load.wave2,
        testutil::MakeRecommendRequest(
            id++, 4,
            {baskets[round % baskets.size()],
             baskets[(round + 2) % baskets.size()]}));
    load.total_baskets += 2;
    add(&load.wave2,
        testutil::MakeClassifyRequest(id++, ClassifyModel::kTree, train,
                                      {9, 10}));
    add(&load.wave2,
        testutil::MakeClusterRequest(id++, {5.0, 5.0, 0.25, -1.0}, 2));
  }
  return load;
}

struct RunResult {
  Frames responses;  // wave 1 then wave 2, in request order
  /// serve/* counter totals, minus the batch-shape counters.
  std::vector<std::pair<std::string, uint64_t>> counters;
  /// Work-shape histograms (serve/hist/*) as (name, count, sum, buckets):
  /// fully deterministic, so the whole tuple must be bit-identical.
  std::vector<std::tuple<std::string, uint64_t, uint64_t,
                         std::vector<uint64_t>>>
      work_histograms;
  /// Wall-time histograms (serve/latency/*) as (name, count): the sample
  /// values vary run to run, but how many samples land is deterministic.
  /// eval_us is kept separate — it samples once per evaluated batch, so
  /// its count is a batch-shape quantity (like serve/batches).
  std::vector<std::pair<std::string, uint64_t>> latency_counts;
  uint64_t eval_batches = 0;
  uint64_t Counter(const std::string& name) const {
    for (const auto& [key, value] : counters) {
      if (key == name) return value;
    }
    return 0;
  }
};

RunResult RunConfig(std::shared_ptr<const ModelBundle> bundle,
                    const Workload& load, uint32_t batch_size,
                    size_t num_threads, size_t cache_capacity,
                    bool verify_cache_hits = false,
                    bool latency_telemetry = true) {
  obs::Registry::Global().Reset();
  ServeOptions options;
  options.batch_size = batch_size;
  options.num_threads = num_threads;
  options.cache_capacity = cache_capacity;
  options.verify_cache_hits = verify_cache_hits;
  options.latency_telemetry = latency_telemetry;
  Server server(std::move(bundle), options);

  RunResult result;
  for (auto& frame : server.HandleFrames(load.wave1)) {
    result.responses.push_back(std::move(frame));
  }
  for (auto& frame : server.HandleFrames(load.wave2)) {
    result.responses.push_back(std::move(frame));
  }
  for (const auto& [name, value] :
       obs::Registry::Global().CounterSnapshot()) {
    if (name.rfind("serve/", 0) != 0) continue;
    if (name == "serve/batches") continue;
    if (name.rfind("serve/batch_bucket_", 0) == 0) continue;
    result.counters.emplace_back(name, value);
  }
  for (const obs::HistogramData& hist :
       obs::Registry::Global().HistogramSnapshot()) {
    if (hist.name.rfind("serve/hist/", 0) == 0) {
      result.work_histograms.emplace_back(hist.name, hist.count, hist.sum,
                                          hist.buckets);
    } else if (hist.name == "serve/latency/eval_us") {
      result.eval_batches = hist.count;
    } else if (hist.name.rfind("serve/latency/", 0) == 0) {
      result.latency_counts.emplace_back(hist.name, hist.count);
    }
  }
  return result;
}

std::string ConfigName(uint32_t batch_size, size_t threads, size_t cache) {
  return "batch_size=" + std::to_string(batch_size) +
         " threads=" + std::to_string(threads) +
         " cache=" + std::to_string(cache);
}

TEST(ServingDiffTest, BitIdenticalAcrossBatchSizeThreadsAndCache) {
  auto bundle = testutil::MakeTestBundle();
  Workload load = MakeWorkload(*bundle);

  const RunResult baseline_off =
      RunConfig(bundle, load, /*batch_size=*/1, /*threads=*/0,
                /*cache=*/0);
  const RunResult baseline_on =
      RunConfig(bundle, load, /*batch_size=*/1, /*threads=*/0,
                /*cache=*/64);

  // The cache changes counters but never a single response byte.
  ASSERT_EQ(baseline_on.responses.size(), baseline_off.responses.size());
  for (size_t i = 0; i < baseline_off.responses.size(); ++i) {
    EXPECT_EQ(baseline_on.responses[i], baseline_off.responses[i])
        << "cache on/off response divergence at request " << i;
  }

  for (uint32_t batch_size : {1u, 8u, 64u}) {
    for (size_t threads : {size_t{0}, size_t{2}, size_t{7}}) {
      for (size_t cache : {size_t{0}, size_t{64}}) {
        SCOPED_TRACE(ConfigName(batch_size, threads, cache));
        RunResult run = RunConfig(bundle, load, batch_size, threads, cache);
        const RunResult& baseline =
            cache == 0 ? baseline_off : baseline_on;
        ASSERT_EQ(run.responses.size(), baseline.responses.size());
        for (size_t i = 0; i < run.responses.size(); ++i) {
          ASSERT_EQ(run.responses[i], baseline.responses[i])
              << "response divergence at request " << i;
        }
        // Counter-snapshot equality: every serve/* total except the
        // batch-shape counters matches the batch_size=1 serial run.
        EXPECT_EQ(run.counters, baseline.counters);
      }
    }
  }
}

TEST(ServingDiffTest, HistogramsBitIdenticalAcrossThreadsAndBatches) {
  auto bundle = testutil::MakeTestBundle();
  Workload load = MakeWorkload(*bundle);

  const RunResult baseline_off =
      RunConfig(bundle, load, /*batch_size=*/1, /*threads=*/0, /*cache=*/0);
  const RunResult baseline_on =
      RunConfig(bundle, load, /*batch_size=*/1, /*threads=*/0,
                /*cache=*/64);

  // The workload actually exercises both work-shape histograms.
  ASSERT_EQ(baseline_off.work_histograms.size(), 2u);
  EXPECT_EQ(std::get<0>(baseline_off.work_histograms[0]),
            "serve/hist/basket_items");
  EXPECT_EQ(std::get<0>(baseline_off.work_histograms[1]),
            "serve/hist/rules_scanned");
  EXPECT_GT(std::get<1>(baseline_off.work_histograms[0]), 0u);
  EXPECT_GT(std::get<1>(baseline_off.work_histograms[1]), 0u);

  for (uint32_t batch_size : {1u, 8u, 64u}) {
    uint64_t eval_batches_at_this_size = 0;
    for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{7}}) {
      for (size_t cache : {size_t{0}, size_t{64}}) {
        SCOPED_TRACE(ConfigName(batch_size, threads, cache));
        RunResult run = RunConfig(bundle, load, batch_size, threads, cache);
        const RunResult& baseline =
            cache == 0 ? baseline_off : baseline_on;
        // Work-shape histograms: full bucket arrays and sums match the
        // serial batch_size=1 run bit for bit.
        EXPECT_EQ(run.work_histograms, baseline.work_histograms);
        // Latency histograms: values are wall time, but sample counts
        // are a pure function of the workload.
        EXPECT_EQ(run.latency_counts, baseline.latency_counts);
        // eval_us samples once per batch, so its count varies with
        // batch_size — but never with thread count or cache setting.
        if (eval_batches_at_this_size == 0) {
          eval_batches_at_this_size = run.eval_batches;
          EXPECT_GT(run.eval_batches, 0u);
        } else {
          EXPECT_EQ(run.eval_batches, eval_batches_at_this_size);
        }
      }
    }
  }
}

TEST(ServingDiffTest, TelemetryOffIsByteAndWorkIdentical) {
  auto bundle = testutil::MakeTestBundle();
  Workload load = MakeWorkload(*bundle);

  const RunResult on =
      RunConfig(bundle, load, /*batch_size=*/8, /*threads=*/2, /*cache=*/64);
  const RunResult off =
      RunConfig(bundle, load, /*batch_size=*/8, /*threads=*/2, /*cache=*/64,
                /*verify_cache_hits=*/false, /*latency_telemetry=*/false);

  // Telemetry must never change a response byte or a work counter.
  ASSERT_EQ(off.responses.size(), on.responses.size());
  for (size_t i = 0; i < off.responses.size(); ++i) {
    EXPECT_EQ(off.responses[i], on.responses[i])
        << "telemetry on/off response divergence at request " << i;
  }
  EXPECT_EQ(off.counters, on.counters);
  // Work-shape histograms record regardless of the telemetry switch.
  EXPECT_EQ(off.work_histograms, on.work_histograms);
  // Latency histograms: populated with telemetry on, silent when off.
  uint64_t on_samples = 0;
  uint64_t off_samples = 0;
  for (const auto& [name, count] : on.latency_counts) on_samples += count;
  for (const auto& [name, count] : off.latency_counts) {
    off_samples += count;
  }
  EXPECT_GT(on_samples, 0u);
  EXPECT_EQ(off_samples, 0u);
}

TEST(ServingDiffTest, CacheCountersObeyTheirInvariants) {
  auto bundle = testutil::MakeTestBundle();
  Workload load = MakeWorkload(*bundle);

  const RunResult off =
      RunConfig(bundle, load, /*batch_size=*/8, /*threads=*/0, /*cache=*/0);
  const RunResult on = RunConfig(bundle, load, /*batch_size=*/8,
                                 /*threads=*/0, /*cache=*/64);

  // Cache off: every basket is scored, nothing is looked up.
  EXPECT_EQ(off.Counter("serve/baskets_scored"), load.total_baskets);
  EXPECT_EQ(off.Counter("serve/cache_lookups"), 0u);

  // Cache on: lookups partition into hits and misses, every miss is
  // scored and inserted, and wave 2's repeated baskets actually hit.
  const uint64_t lookups = on.Counter("serve/cache_lookups");
  const uint64_t hits = on.Counter("serve/cache_hits");
  const uint64_t misses = on.Counter("serve/cache_misses");
  EXPECT_EQ(lookups, load.total_baskets);
  EXPECT_EQ(lookups, hits + misses);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(on.Counter("serve/baskets_scored"), misses);
  EXPECT_EQ(on.Counter("serve/cache_insertions"), misses);
  // Work that does not touch the cache is cache-invariant.
  EXPECT_EQ(on.Counter("serve/records_classified"),
            off.Counter("serve/records_classified"));
  EXPECT_EQ(on.Counter("serve/points_assigned"),
            off.Counter("serve/points_assigned"));
}

TEST(ServingDiffTest, VerifiedCacheHitsStayBitIdentical) {
  auto bundle = testutil::MakeTestBundle();
  Workload load = MakeWorkload(*bundle);
  const RunResult baseline =
      RunConfig(bundle, load, /*batch_size=*/1, /*threads=*/0, /*cache=*/0);
  // verify_cache_hits recomputes every hit and DMT_CHECKs byte equality
  // inside the server; surviving the run plus this external comparison
  // is the "asserted, not assumed" cache contract.
  const RunResult verified =
      RunConfig(bundle, load, /*batch_size=*/8, /*threads=*/2,
                /*cache=*/64, /*verify_cache_hits=*/true);
  ASSERT_EQ(verified.responses.size(), baseline.responses.size());
  for (size_t i = 0; i < verified.responses.size(); ++i) {
    EXPECT_EQ(verified.responses[i], baseline.responses[i]);
  }
}

TEST(ServingDiffTest, SingleFrameMatchesBatchedPath) {
  auto bundle = testutil::MakeTestBundle();
  Workload load = MakeWorkload(*bundle);
  ServeOptions options;
  Server server(bundle, options);
  Frames one_by_one;
  for (const auto& frame : load.wave1) {
    one_by_one.push_back(server.HandleFrame(frame));
  }
  const RunResult batched =
      RunConfig(bundle, load, /*batch_size=*/64, /*threads=*/2, /*cache=*/0);
  for (size_t i = 0; i < one_by_one.size(); ++i) {
    EXPECT_EQ(one_by_one[i], batched.responses[i]) << "request " << i;
  }
}

TEST(ServingDiffTest, BatchQueueMatchesSyncPathByteForByte) {
  auto bundle = testutil::MakeTestBundle();
  const Workload load = MakeWorkload(*bundle);
  Frames frames = load.wave1;
  frames.insert(frames.end(), load.wave2.begin(), load.wave2.end());

  // The reference: the sync path on a fresh serial server. Request ids
  // are unique and the one malformed frame answers with id 0, which no
  // request uses, so every response maps back to its frame by id.
  const Frames expected = Server(bundle, ServeOptions{}).HandleFrames(frames);
  std::map<uint64_t, size_t> slot_of_id;
  for (size_t i = 0; i < expected.size(); ++i) {
    auto response = DecodeResponseFrame(expected[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(slot_of_id.emplace(response.value().id, i).second);
  }

  constexpr size_t kClients = 4;
  for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{7}}) {
    for (uint32_t batch_size : {1u, 8u, 64u}) {
      for (size_t cache : {size_t{0}, size_t{64}}) {
        SCOPED_TRACE(ConfigName(batch_size, threads, cache));
        ServeOptions options;
        options.batch_size = batch_size;
        options.num_threads = threads;
        options.cache_capacity = cache;
        options.verify_cache_hits = cache > 0;
        Server server(bundle, options);

        std::mutex mutex;
        Frames responses(frames.size());
        std::vector<int> calls(frames.size(), 0);
        auto collect = [&](std::vector<std::byte> frame) {
          auto response = DecodeResponseFrame(frame);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          std::lock_guard<std::mutex> lock(mutex);
          auto slot = slot_of_id.find(response.value().id);
          ASSERT_NE(slot, slot_of_id.end());
          responses[slot->second] = std::move(frame);
          ++calls[slot->second];
        };
        // Client c submits every kClients-th frame, concurrently.
        auto submit_all = [&](BatchQueue* queue) {
          std::vector<std::thread> clients;
          for (size_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
              for (size_t i = c; i < frames.size(); i += kClients) {
                queue->Submit(frames[i], collect);
              }
            });
          }
          for (std::thread& client : clients) client.join();
        };
        auto check_round = [&](int round) {
          std::lock_guard<std::mutex> lock(mutex);
          for (size_t i = 0; i < frames.size(); ++i) {
            ASSERT_EQ(calls[i], round) << "request " << i;
            ASSERT_EQ(responses[i], expected[i]) << "request " << i;
          }
        };

        {
          BatchQueue queue(&server);
          submit_all(&queue);
          queue.Flush();  // round 1 ends with Flush ...
          check_round(1);
          submit_all(&queue);
        }  // ... and round 2 (cache-warm) with the destructor.
        check_round(2);
      }
    }
  }
}

}  // namespace
}  // namespace dmt::serve
