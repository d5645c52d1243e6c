// EXT-10 (serving layer): Quest traffic replayed against the dmtd
// serving engine at 1-64 concurrent client threads, sweeping the
// micro-batch size and the rule cache. Reported per case: QPS, p50/p99
// request latency, the realized mean batch size, and the cache hit rate.
//
// Expected shape: batch_size 1 makes every request its own batch
// (per-batch overhead dominates under concurrency); larger batches,
// which form whenever the backlog outruns the 4 queue workers, amortize
// staging and let the batched distance/containment kernels work, and
// the cache converts the hot-basket mass of the replay into sub-scan
// lookups.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "assoc/apriori.h"
#include "assoc/rules.h"
#include "bench_main.h"
#include "bench_util.h"
#include "core/transaction.h"
#include "gen/quest.h"
#include "serve/batch_queue.h"
#include "serve/model_bundle.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using dmt::serve::BatchQueue;
using dmt::serve::ModelBundle;
using dmt::serve::Request;
using dmt::serve::RequestType;
using dmt::serve::ServeOptions;
using dmt::serve::Server;

/// The replay database: T8.I4.D2K over a 200-item universe (the same
/// dense shape `dmtd --make-demo` serves — the default 1000-item Quest
/// cache is too sparse to yield any rules at 2% support).
const dmt::core::TransactionDatabase& ReplayDatabase() {
  static const dmt::core::TransactionDatabase db = [] {
    dmt::gen::QuestParams params;
    params.num_transactions = 2000;
    params.avg_transaction_size = 8.0;
    params.avg_pattern_size = 4.0;
    params.num_items = 200;
    params.num_patterns = 50;
    auto generated =
        dmt::gen::GenerateQuestTransactions(params, /*seed=*/1996);
    DMT_CHECK(generated.ok());
    return std::move(generated).value();
  }();
  return db;
}

/// Rules mined once from the replay database (~3.3k rules at minsup 2%,
/// minconf 0.5).
std::shared_ptr<const ModelBundle> ServingBundle() {
  static std::shared_ptr<const ModelBundle> bundle = [] {
    const auto& db = ReplayDatabase();
    dmt::assoc::MiningParams mining;
    mining.min_support = 0.02;
    auto mined = dmt::assoc::MineApriori(db, mining);
    DMT_CHECK(mined.ok());
    dmt::assoc::RuleParams params;
    params.min_confidence = 0.5;
    auto rules =
        dmt::assoc::GenerateRules(mined.value(), db.size(), params);
    DMT_CHECK(rules.ok());
    DMT_CHECK(!rules.value().empty());
    auto built = ModelBundle::FromParts(std::nullopt, std::nullopt,
                                        std::nullopt,
                                        std::move(rules).value());
    DMT_CHECK(built.ok());
    return built.value();
  }();
  return bundle;
}

/// Encoded top-8 recommendation requests replaying the mined database's
/// own transactions, with a deterministic hot-basket skew: three of
/// every four requests draw from a 16-transaction hot set (the cacheable
/// mass), the fourth is a unique cold transaction.
const std::vector<std::vector<std::byte>>& ReplayTraffic() {
  static const std::vector<std::vector<std::byte>> frames = [] {
    const auto& db = ReplayDatabase();
    constexpr size_t kRequests = 1024;
    constexpr size_t kHotSet = 16;
    std::vector<std::vector<std::byte>> out;
    out.reserve(kRequests);
    for (size_t i = 0; i < kRequests; ++i) {
      size_t tx = (i % 4 == 0) ? (kHotSet + i) % db.size()
                               : (i * 7) % kHotSet;
      auto items = db.transaction(tx);
      Request request;
      request.id = i + 1;
      request.type = RequestType::kRecommend;
      request.top_k = 8;
      request.count = 1;
      request.baskets.emplace_back(items.begin(), items.end());
      out.push_back(EncodeRequestFrame(request));
    }
    return out;
  }();
  return frames;
}

uint64_t ServeCounter(const char* name) {
  return dmt::obs::Registry::Global().CounterValue(name);
}

// Args: clients, batch_size, cache_capacity, telemetry (the EXT-12
// on/off overhead pair shares the clients=8/batch=8/cache=512 cell).
void BM_ServeReplay(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  const uint32_t batch_size = static_cast<uint32_t>(state.range(1));
  const size_t cache_capacity = static_cast<size_t>(state.range(2));
  const bool telemetry = state.range(3) != 0;
  const auto& traffic = ReplayTraffic();

  dmt::obs::Registry::Global().Reset();
  ServeOptions options;
  options.batch_size = batch_size;
  options.num_threads = 4;
  options.cache_capacity = cache_capacity;
  options.latency_telemetry = telemetry;
  Server server(ServingBundle(), options);

  // Client-observed latency (submit -> response callback), recorded into
  // a registry histogram — atomic buckets, so no mutex in the callback.
  dmt::obs::Histogram latency("bench/serve/client_us");
  size_t total_requests = 0;

  for (auto _ : state) {
    BatchQueue queue(&server);
    std::vector<std::thread> threads;
    const size_t per_client = traffic.size() / clients;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c * per_client; i < (c + 1) * per_client; ++i) {
          const auto start = std::chrono::steady_clock::now();
          queue.Submit(traffic[i], [&, start](std::vector<std::byte>) {
            const double us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            latency.Record(us <= 0.0 ? 0 : static_cast<uint64_t>(us));
          });
        }
      });
    }
    for (std::thread& t : threads) t.join();
    queue.Flush();
    total_requests += per_client * clients;
  }

  state.SetItemsProcessed(static_cast<int64_t>(total_requests));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_requests), benchmark::Counter::kIsRate);
  const dmt::obs::HistogramData latency_data = latency.Data();
  state.counters["p50_us"] =
      static_cast<double>(latency_data.Percentile(50.0));
  state.counters["p99_us"] =
      static_cast<double>(latency_data.Percentile(99.0));
  const uint64_t requests = ServeCounter("serve/requests");
  const uint64_t batches = ServeCounter("serve/batches");
  state.counters["mean_batch"] =
      batches == 0 ? 0.0
                   : static_cast<double>(requests) /
                         static_cast<double>(batches);
  const uint64_t lookups = ServeCounter("serve/cache_lookups");
  const uint64_t hits = ServeCounter("serve/cache_hits");
  state.counters["cache_hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(lookups);
}

void Configs(benchmark::internal::Benchmark* bench) {
  // The EXT-10 ablation grid: batch 1 vs 8 vs 64, cache off vs on,
  // at light and heavy client concurrency.
  for (int64_t clients : {1, 8, 64}) {
    for (int64_t batch : {1, 8, 64}) {
      for (int64_t cache : {0, 512}) {
        bench->Args({clients, batch, cache, 1});
      }
    }
  }
  // EXT-12: telemetry-off twins of the clients=8/batch=8 cells; each
  // pair bounds the histogram+span recording overhead. cache=0 is the
  // representative hot path (every request scans rules); cache=512 is
  // the worst case for relative overhead (cache hits make the request
  // itself nearly free).
  bench->Args({8, 8, 0, 0});
  bench->Args({8, 8, 512, 0});
  bench->Unit(benchmark::kMillisecond)->UseRealTime();
}

BENCHMARK(BM_ServeReplay)->Apply(Configs);

}  // namespace

int main(int argc, char** argv) {
  return dmt::bench::BenchMain("serving", argc, argv);
}
