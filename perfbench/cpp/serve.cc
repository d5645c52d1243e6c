// Serving path: client socket write -> dmtd -> response read back.
//
// gen-serve builds the bundle dmtd serves: rules mined from a seeded draw
// of the workload's Quest store, an Agrawal training set with its CART
// tree (kNN and naive Bayes serve from the training set), and k-means
// centers over a BIRCH-style grid.
//
// load is the open-loop client. It builds every request frame of the run
// from the seed, computes each one's expected response in-process with
// Server::HandleFrames, then sends the frames on a fixed schedule over
// --conns connections (one thread each): a warm-up at --light-rate, then
// alternating windows at --light-rate and --heavy-rate. Latency runs from
// a request's scheduled send time to its response being read. The
// daemon's CPU is read from /proc at the edges of each window.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "assoc/fp_growth.h"
#include "cluster/kmeans.h"
#include "common.h"
#include "core/dataset.h"
#include "core/rng.h"
#include "gen/agrawal.h"
#include "gen/mixture.h"
#include "io/serialize.h"
#include "oracle.h"
#include "serve/model_bundle.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tree/builder.h"

namespace pb {
namespace {

using dmt::serve::ClassifyModel;
using dmt::serve::Request;
using dmt::serve::RequestType;

dmt::gen::AgrawalParams AgrawalFor(const Flags& flags, size_t rows) {
  dmt::gen::AgrawalParams params;
  params.function = static_cast<int>(flags.Uint("agrawal-function"));
  params.num_records = rows;
  return params;
}

dmt::gen::LabeledPoints GridFor(const Flags& flags, uint64_t seed) {
  return OrDie(dmt::gen::GenerateBirchGrid(flags.Uint("clusters"),
                                           flags.Uint("cluster-points"),
                                           10.0, 0.8, seed),
               "GenerateBirchGrid");
}

/// Independent, seed-derived streams for the parts of a run.
enum Stream : uint64_t {
  kRulesStream = 1,
  kTrainStream,
  kGridStream,
  kBasketStream,
  kRecordStream,
  kPointStream,
  kMixStream,
};

uint64_t StreamSeed(const Flags& flags, Stream stream) {
  return flags.Uint("seed") * 16 + stream;
}

/// One schema-valid feature vector from a generated row (categorical
/// codes as doubles).
std::vector<double> RecordFrom(const dmt::core::Dataset& data, size_t row) {
  std::vector<double> values;
  for (size_t a = 0; a < data.num_attributes(); ++a) {
    if (data.attribute(a).type == dmt::core::AttributeType::kNumeric) {
      values.push_back(data.Numeric(row, a));
    } else {
      values.push_back(static_cast<double>(data.Categorical(row, a)));
    }
  }
  return values;
}

/// Distinct non-empty baskets of the store, drawn by the basket stream.
std::vector<std::vector<uint32_t>> DistinctBaskets(const Flags& flags,
                                                   size_t count) {
  const dmt::core::TransactionDatabase base = LoadQuestBase(flags);
  dmt::core::Rng rng(StreamSeed(flags, kBasketStream));
  std::vector<size_t> order(base.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::set<std::vector<uint32_t>> seen;
  std::vector<std::vector<uint32_t>> baskets;
  for (size_t t : order) {
    if (baskets.size() == count) break;
    const auto items = base.transaction(t);
    std::vector<uint32_t> basket(items.begin(), items.end());
    if (basket.empty() || !seen.insert(basket).second) continue;
    baskets.push_back(std::move(basket));
  }
  if (baskets.size() < count) Die("store has too few distinct baskets");
  return baskets;
}

/// The run's request frames: templates (encoded with request id 0) and,
/// per request id k = 1..N, the template it was built from.
struct Workload {
  std::vector<std::vector<std::byte>> templates;
  std::vector<uint32_t> template_of;
  uint64_t count[5] = {};  // recommend, tree, knn, nb, cluster
};

void AddTemplate(Workload* w, Request request, int kind) {
  request.id = 0;
  w->templates.push_back(dmt::serve::EncodeRequestFrame(request));
  ++w->count[kind];
}

/// serve_hot: top-k recommendations over a small hot set of baskets.
/// serve_cold: every request distinct — recommendations for baskets that
/// never repeat, mixed with classify (tree/kNN/NB) and nearest-cluster.
Workload BuildWorkload(const Flags& flags, size_t num_requests) {
  Workload w;
  const uint32_t top_k = static_cast<uint32_t>(flags.Uint("top-k"));
  auto recommend = [top_k](std::vector<uint32_t> basket) {
    Request request;
    request.type = RequestType::kRecommend;
    request.top_k = top_k;
    request.count = 1;
    request.baskets.push_back(std::move(basket));
    return request;
  };
  dmt::core::Rng mix(StreamSeed(flags, kMixStream));
  if (flags.Str("mix") == "hot") {
    const size_t hot = flags.Uint("hot-set");
    for (auto& basket : DistinctBaskets(flags, hot)) {
      AddTemplate(&w, recommend(std::move(basket)), 0);
    }
    w.count[0] = num_requests;
    for (size_t k = 0; k < num_requests; ++k) {
      w.template_of.push_back(static_cast<uint32_t>(mix.UniformU64(hot)));
    }
    return w;
  }
  // Cumulative shares of recommend, tree, kNN, NB; cluster takes the rest.
  const double shares[4] = {flags.Num("p-recommend"), flags.Num("p-tree"),
                            flags.Num("p-knn"), flags.Num("p-nb")};
  std::vector<int> kinds(num_requests);
  size_t need[5] = {};
  for (int& kind : kinds) {
    double u = mix.UniformDouble();
    kind = 4;
    for (int i = 0; i < 4; ++i) {
      if (u < shares[i]) {
        kind = i;
        break;
      }
      u -= shares[i];
    }
    ++need[kind];
  }
  const auto baskets = DistinctBaskets(flags, need[0]);
  const dmt::core::Dataset records = OrDie(
      dmt::gen::GenerateAgrawal(
          AgrawalFor(flags, std::max<size_t>(1, need[1] + need[2] + need[3])),
          StreamSeed(flags, kRecordStream)),
      "GenerateAgrawal");
  const dmt::gen::LabeledPoints points =
      GridFor(flags, StreamSeed(flags, kPointStream));
  size_t next_basket = 0, next_record = 0, next_point = 0;
  for (int kind : kinds) {
    Request request;
    if (kind == 0) {
      request = recommend(baskets[next_basket++]);
    } else if (kind < 4) {
      request.type = RequestType::kClassify;
      request.model = kind == 1   ? ClassifyModel::kTree
                      : kind == 2 ? ClassifyModel::kKnn
                                  : ClassifyModel::kNaiveBayes;
      request.count = 1;
      request.dim = static_cast<uint32_t>(records.num_attributes());
      request.values = RecordFrom(records, next_record++);
    } else {
      const size_t p = next_point++ % points.points.size();
      request.type = RequestType::kAssignCluster;
      request.count = 1;
      request.dim = static_cast<uint32_t>(points.points.dim());
      const auto row = points.points.point(p);
      request.values.assign(row.begin(), row.end());
    }
    w.template_of.push_back(static_cast<uint32_t>(w.templates.size()));
    AddTemplate(&w, std::move(request), kind);
  }
  return w;
}

void SleepUntilUs(double t_us) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_us / 1e6);
  ts.tv_nsec = static_cast<long>(
      (t_us - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

int ConnectWithRetry(const std::string& path, double deadline_us) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) Die("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) Die(std::string("socket: ") + std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return fd;
    }
    ::close(fd);
    if (NowUs() > deadline_us) Die("cannot connect to " + path);
    ::usleep(1000);
  }
}

/// Per-request timestamps (µs, steady clock); recv_us < 0 = unanswered.
struct Timing {
  double due_us = 0.0;
  double send_start_us = 0.0;
  double send_end_us = 0.0;
  double recv_us = -1.0;
};

struct Connection {
  int fd = -1;
  std::vector<uint64_t> ids;  // request ids in due order
  std::unique_ptr<ResponseOracle> oracle;
  uint64_t errors = 0;  // mismatches that were error responses
  std::string failure;  // transport failure, if any
};

/// Sends this connection's requests on schedule and reads responses until
/// every request is answered or `drain_deadline_us` passes.
void RunConnection(Connection* conn,
                   const std::vector<std::vector<std::byte>>& frames,
                   std::vector<Timing>* timing, double drain_deadline_us) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake on schedule, not 50 µs late
  std::vector<std::byte> rx;
  size_t rx_start = 0;
  std::byte buffer[1 << 16];
  size_t next = 0;
  uint64_t outstanding = 0;
  for (;;) {
    double now = NowUs();
    if (next < conn->ids.size() &&
        (*timing)[conn->ids[next] - 1].due_us <= now) {
      const uint64_t id = conn->ids[next++];
      Timing& t = (*timing)[id - 1];
      t.send_start_us = now;
      const std::vector<std::byte>& frame = frames[id - 1];
      size_t done = 0;
      while (done < frame.size()) {
        const ssize_t n =
            ::write(conn->fd, frame.data() + done, frame.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          conn->failure = std::string("write: ") + std::strerror(errno);
          return;
        }
        done += static_cast<size_t>(n);
      }
      t.send_end_us = NowUs();
      conn->oracle->Sent(id);
      ++outstanding;
      continue;
    }
    if (next == conn->ids.size() &&
        (outstanding == 0 || now > drain_deadline_us)) {
      return;
    }
    const double wait_us =
        next < conn->ids.size()
            ? (*timing)[conn->ids[next] - 1].due_us - now
            : drain_deadline_us - now;
    timespec ts{};
    if (wait_us > 0) {
      ts.tv_sec = static_cast<time_t>(wait_us / 1e6);
      ts.tv_nsec = static_cast<long>(
          (wait_us - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
    }
    pollfd pfd{conn->fd, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready <= 0) continue;
    const ssize_t got = ::read(conn->fd, buffer, sizeof(buffer));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      conn->failure = got == 0 ? "daemon closed the connection"
                               : std::string("read: ") + std::strerror(errno);
      return;
    }
    const double recv_us = NowUs();
    rx.insert(rx.end(), buffer, buffer + got);
    for (;;) {
      const size_t avail = rx.size() - rx_start;
      if (avail < dmt::serve::kFrameHeaderBytes) break;
      uint32_t body = 0;
      std::memcpy(&body, rx.data() + rx_start + 4, sizeof(body));
      if (body > dmt::serve::kMaxFrameBody) {
        conn->failure = "response declares an oversized frame";
        return;
      }
      const size_t size = dmt::serve::kFrameHeaderBytes + body;
      if (avail < size) break;
      const std::span<const std::byte> frame(rx.data() + rx_start, size);
      const uint64_t id = FrameId(frame);
      const ResponseOracle::Verdict verdict = conn->oracle->Check(frame);
      if (verdict != ResponseOracle::Verdict::kUnexpected) {
        (*timing)[id - 1].recv_us = recv_us;
        --outstanding;
      }
      if (verdict == ResponseOracle::Verdict::kMismatch) {
        auto decoded = dmt::serve::DecodeResponseFrame(frame);
        if (decoded.ok() && decoded.value().status != 0) ++conn->errors;
      }
      rx_start += size;
    }
    if (rx_start == rx.size() || rx_start > sizeof(buffer)) {
      rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(rx_start));
      rx_start = 0;
    }
  }
}

/// One measurement window: requests due in [begin, end), and the
/// daemon's CPU over that interval.
struct Phase {
  const char* name;
  double rate;
  double begin_us;
  double end_us;
  uint64_t cpu_ns = 0;
};

void PrintPhase(const Phase& phase, const std::vector<Timing>& timing) {
  std::string latency, late;
  uint64_t answered_in_window = 0;
  char number[32];
  for (const Timing& t : timing) {
    if (t.recv_us >= phase.begin_us && t.recv_us < phase.end_us) {
      ++answered_in_window;
    }
    if (t.due_us < phase.begin_us || t.due_us >= phase.end_us ||
        t.recv_us < 0) {
      continue;
    }
    std::snprintf(number, sizeof(number), "%s%.1f",
                  latency.empty() ? "" : ",", t.recv_us - t.due_us);
    latency += number;
    std::snprintf(number, sizeof(number), "%s%.1f", late.empty() ? "" : ",",
                  t.send_start_us - t.due_us);
    late += number;
  }
  std::printf(
      "{\"phase\": \"%s\", \"rate\": %.1f, \"window_s\": %.6f, "
      "\"daemon_cpu_ns\": %llu, \"answered_in_window\": %llu, "
      "\"latency_us\": [%s], \"late_us\": [%s]}\n",
      phase.name, phase.rate, (phase.end_us - phase.begin_us) * 1e-6,
      static_cast<unsigned long long>(phase.cpu_ns),
      static_cast<unsigned long long>(answered_in_window), latency.c_str(),
      late.c_str());
}

}  // namespace

int GenServe(const Flags& flags) {
  const double t0 = NowUs();
  const std::string dir = flags.Str("out");
  const dmt::core::TransactionDatabase db =
      DrawTransactions(LoadQuestBase(flags), flags.Uint("transactions"),
                       StreamSeed(flags, kRulesStream));
  dmt::assoc::MiningParams mining;
  mining.min_support = flags.Num("support");
  mining.num_threads = flags.Uint("threads");
  const dmt::assoc::MiningResult mined =
      OrDie(dmt::assoc::MineFpGrowth(db, mining), "MineFpGrowth");
  dmt::assoc::RuleParams rule_params;
  rule_params.min_confidence = flags.Num("confidence");
  const std::vector<dmt::assoc::AssociationRule> rules = OrDie(
      dmt::assoc::GenerateRules(mined, db.size(), rule_params),
      "GenerateRules");
  OrDie(dmt::io::WriteRuleSet(rules, dir + "/rules.dmt"), "WriteRuleSet");

  const dmt::core::Dataset train = OrDie(
      dmt::gen::GenerateAgrawal(AgrawalFor(flags, flags.Uint("train-rows")),
                                StreamSeed(flags, kTrainStream)),
      "GenerateAgrawal");
  const dmt::tree::DecisionTree tree =
      OrDie(dmt::tree::BuildCart(train), "BuildCart");
  OrDie(dmt::io::WriteDecisionTree(tree, dir + "/tree.dmt"),
        "WriteDecisionTree");
  OrDie(dmt::io::WriteDataset(train, dir + "/train.dmt"), "WriteDataset");

  const dmt::gen::LabeledPoints grid =
      GridFor(flags, StreamSeed(flags, kGridStream));
  dmt::cluster::KMeansOptions kmeans;
  kmeans.k = flags.Uint("clusters");
  kmeans.seed = StreamSeed(flags, kGridStream);
  const dmt::cluster::ClusteringResult model =
      OrDie(dmt::cluster::KMeans(grid.points, kmeans), "KMeans");
  OrDie(dmt::io::WriteKMeansModel(model, dir + "/kmeans.dmt"),
        "WriteKMeansModel");
  std::printf(
      "{\"rules\": %zu, \"itemsets\": %zu, \"tree_nodes\": %zu, "
      "\"train_rows\": %zu, \"clusters\": %zu, \"gen_s\": %.3f}\n",
      rules.size(), mined.itemsets.size(), tree.num_nodes(),
      train.num_rows(), model.centers.size(), (NowUs() - t0) * 1e-6);
  return 0;
}

int Load(const Flags& flags) {
  const double light_rate = flags.Num("light-rate");
  const double heavy_rate = flags.Num("heavy-rate");
  const double window_s = flags.Num("window-s");
  const double settle_s = flags.Num("settle-s");
  const size_t num_conns = flags.Uint("conns");
  const int daemon_pid = static_cast<int>(flags.Uint("daemon-pid"));
  if (light_rate <= 0 || heavy_rate <= 0 || num_conns == 0) {
    Die("rates and --conns must be positive");
  }
  // A warm-up at the light rate, then --cycles pairs of light and heavy
  // windows: alternating keeps both rates under the same host conditions,
  // and a burst of host noise spoils single windows, not a whole rate.
  struct Segment {
    const char* name;
    double rate;
    double seconds;
    size_t requests;
  };
  std::vector<Segment> segments{
      {"warmup", light_rate, flags.Num("warmup-s"), 0}};
  for (uint64_t c = 0; c < flags.Uint("cycles"); ++c) {
    segments.push_back({"light", light_rate, window_s, 0});
    segments.push_back({"heavy", heavy_rate, window_s, 0});
  }
  size_t num_requests = 0;
  for (Segment& segment : segments) {
    segment.requests =
        static_cast<size_t>(std::llround(segment.rate * segment.seconds));
    num_requests += segment.requests;
  }

  // Requests and their in-process answers, before any traffic.
  const double prep0 = NowUs();
  const Workload workload = BuildWorkload(flags, num_requests);
  const std::string dir = flags.Str("bundle");
  dmt::serve::ModelPaths paths{dir + "/tree.dmt", dir + "/train.dmt",
                               dir + "/kmeans.dmt", dir + "/rules.dmt"};
  const auto bundle =
      OrDie(dmt::serve::ModelBundle::Load(paths), "ModelBundle::Load");
  dmt::serve::ServeOptions oracle_options;
  oracle_options.num_threads = flags.Uint("oracle-threads");
  dmt::serve::Server oracle_server(bundle, oracle_options);
  const std::vector<std::vector<std::byte>> expected =
      oracle_server.HandleFrames(workload.templates);
  for (const auto& response : expected) {
    auto decoded = dmt::serve::DecodeResponseFrame(response);
    if (!decoded.ok() || decoded.value().status != 0) {
      Die("a generated request fails in-process; the workload is invalid");
    }
  }
  std::vector<std::vector<std::byte>> frames(num_requests);
  for (size_t k = 0; k < num_requests; ++k) {
    frames[k] = workload.templates[workload.template_of[k]];
    const uint64_t id = k + 1;
    std::memcpy(frames[k].data() + kIdOffset, &id, kIdBytes);
  }
  const double prep_s = (NowUs() - prep0) * 1e-6;

  std::vector<Connection> conns(num_conns);
  const double connect_deadline = NowUs() + 30e6;
  for (size_t c = 0; c < num_conns; ++c) {
    conns[c].fd = ConnectWithRetry(flags.Str("socket"), connect_deadline);
    conns[c].oracle = std::make_unique<ResponseOracle>(
        &expected, &workload.template_of);
  }

  // Open-loop schedule: evenly spaced sends at each segment's rate,
  // round-robin over the connections. Each window is measured after its
  // first --settle-s seconds.
  const double t0 = NowUs() + 20e3;
  std::vector<Timing> timing(num_requests);
  std::vector<Phase> windows;
  double end = t0;
  size_t k = 0;
  for (size_t j = 0; j < segments.size(); ++j) {
    const Segment& segment = segments[j];
    for (size_t i = 0; i < segment.requests; ++i, ++k) {
      timing[k].due_us =
          end + static_cast<double>(i) * 1e6 / segment.rate;
      conns[k % num_conns].ids.push_back(k + 1);
    }
    const double begin = end;
    end += segment.seconds * 1e6;
    if (j > 0) {  // the warm-up is not measured
      windows.push_back(
          {segment.name, segment.rate, begin + settle_s * 1e6, end});
    }
  }
  const double drain_deadline = end + flags.Num("drain-s") * 1e6;
  std::vector<std::thread> threads;
  for (Connection& conn : conns) {
    threads.emplace_back(RunConnection, &conn, std::cref(frames), &timing,
                         drain_deadline);
  }
  SleepUntilUs(t0);
  const uint64_t cpu_start = ProcessThreadsCpuNs(daemon_pid);
  for (Phase& window : windows) {
    SleepUntilUs(window.begin_us);
    const uint64_t before = ProcessThreadsCpuNs(daemon_pid);
    SleepUntilUs(window.end_us);
    window.cpu_ns = ProcessThreadsCpuNs(daemon_pid) - before;
  }
  for (std::thread& thread : threads) thread.join();
  const uint64_t cpu_total = ProcessThreadsCpuNs(daemon_pid) - cpu_start;
  const uint64_t daemon_hwm_kb = ProcStatusKb(daemon_pid, "VmHWM");
  for (Connection& conn : conns) ::close(conn.fd);

  for (const Phase& window : windows) PrintPhase(window, timing);
  Phase all{"all", 0.0, t0, drain_deadline, cpu_total};
  PrintPhase(all, timing);
  uint64_t sent = 0, answered = 0, mismatched = 0, unexpected = 0,
           missing = 0, errors = 0;
  std::string failures;
  for (const Connection& conn : conns) {
    sent += conn.oracle->sent();
    answered += conn.oracle->answered();
    mismatched += conn.oracle->mismatched();
    unexpected += conn.oracle->unexpected();
    missing += conn.oracle->missing();
    errors += conn.errors;
    if (!conn.failure.empty()) failures += conn.failure + "; ";
  }
  // Requests a connection never got to send count as missing too.
  missing += num_requests - sent;
  if (flags.Uint("trace") != 0) {
    // Per answered request: the request span (due -> response read) and
    // its children — the generator's lateness, the socket write, and the
    // round trip through the daemon. Every stride-th request is written,
    // so the file stays near 20,000 requests at any rate.
    const size_t stride = std::max<size_t>(1, num_requests / 20000);
    SpanLog spans(&NowUs);
    for (size_t r = 0; r < num_requests; r += stride) {
      const Timing& t = timing[r];
      if (t.recv_us < 0) continue;
      const int64_t root = spans.Add("request", t.due_us, t.recv_us, -1, r + 1);
      spans.Add("loadgen.late", t.due_us, t.send_start_us, root, r + 1);
      spans.Add("socket.write", t.send_start_us, t.send_end_us, root, r + 1);
      spans.Add("dmtd.round_trip", t.send_end_us, t.recv_us, root, r + 1);
    }
    if (!spans.WriteJson(flags.Str("spans-out"), 0)) {
      Die("cannot write " + flags.Str("spans-out"));
    }
  }
  std::printf(
      "{\"requests\": %zu, \"sent\": %llu, \"answered\": %llu, "
      "\"mismatched\": %llu, \"errors\": %llu, \"unexpected\": %llu, "
      "\"missing\": %llu, \"templates\": %zu, \"recommend\": %llu, "
      "\"tree\": %llu, \"knn\": %llu, \"nb\": %llu, \"cluster\": %llu, "
      "\"daemon_hwm_kb\": %llu, \"prep_s\": %.3f, \"failures\": \"%s\"}\n",
      num_requests, static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(answered),
      static_cast<unsigned long long>(mismatched),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(unexpected),
      static_cast<unsigned long long>(missing), workload.templates.size(),
      static_cast<unsigned long long>(workload.count[0]),
      static_cast<unsigned long long>(workload.count[1]),
      static_cast<unsigned long long>(workload.count[2]),
      static_cast<unsigned long long>(workload.count[3]),
      static_cast<unsigned long long>(workload.count[4]),
      static_cast<unsigned long long>(daemon_hwm_kb), prep_s,
      failures.c_str());
  return 0;
}

}  // namespace pb
