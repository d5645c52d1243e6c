// dmtd — the model-serving daemon. Loads trained artifacts from DMTBIN01
// containers into an immutable ModelBundle and answers classify /
// cluster-assignment / rule-recommendation / stats queries over the
// length-prefixed binary protocol (serve/protocol.h), micro-batching
// requests on the serving queue's worker threads.
//
//   dmtd --make-demo <dir>              generate demo model containers
//   dmtd --dir <dir> --script <file>    run text queries in-process
//   dmtd --dir <dir> --stdin            serve binary frames on stdin/stdout
//   dmtd --dir <dir> --socket <path>    serve an AF_UNIX socket
//   dmtd --client <path>                text-query client for a socket
//                                       daemon (lines on stdin)
//
// Model flags (alternative to --dir, which picks up tree.dmt, train.dmt,
// kmeans.dmt, rules.dmt when present): --tree/--train/--kmeans/--rules.
// Serving flags: --batch-size N, --threads N, --cache N (entries;
// 0 = off), --cache-shards N, --verify-cache, --max-conns N (socket
// mode; 0 = forever). Every N is written in decimal digits only; a
// sign, blanks, or a value too large for its field is a usage error.
// Telemetry flags: --metrics-path <file> (periodic Prometheus-text dump
// of the full registry), --metrics-interval-ms N (default 1000),
// --slow-query-us N (log a structured warning for slower requests),
// --no-telemetry (drop per-request latency recording entirely).
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "assoc/apriori.h"
#include "assoc/rules.h"
#include "cluster/kmeans.h"
#include "core/status.h"
#include "core/string_util.h"
#include "gen/agrawal.h"
#include "gen/mixture.h"
#include "gen/quest.h"
#include "io/serialize.h"
#include "serve/daemon.h"
#include "serve/model_bundle.h"
#include "serve/server.h"
#include "tree/builder.h"

namespace {

using dmt::core::Result;
using dmt::core::Status;

int Fail(const Status& status) {
  std::fprintf(stderr, "dmtd: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dmtd --make-demo <dir>\n"
      "       dmtd (--dir <dir> | model flags) --script <file>\n"
      "       dmtd (--dir <dir> | model flags) --stdin\n"
      "       dmtd (--dir <dir> | model flags) --socket <path> "
      "[--max-conns N]\n"
      "       dmtd --client <socket path>   (query lines on stdin)\n"
      "model flags: --tree/--train/--kmeans/--rules <container>\n"
      "serving flags: --batch-size N --threads N --cache N\n"
      "               --cache-shards N --verify-cache\n"
      "telemetry flags: --metrics-path <file> --metrics-interval-ms N\n"
      "                 --slow-query-us N --no-telemetry\n");
  return 2;
}

/// Parses a numeric flag value: decimal digits only, fitting in T.
/// Anything else (a sign, blanks, trailing text, overflow) is reported
/// and the caller answers with the usage error.
template <typename T>
bool ParseFlag(const std::string& flag, const char* text, T* out) {
  const std::string_view digits(text);
  // ParseUint alone would also take blanks and a '+' sign.
  const bool only_digits =
      !digits.empty() && std::all_of(digits.begin(), digits.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  Result<uint64_t> value = dmt::core::ParseUint(digits);
  if (only_digits && value.ok() &&
      value.value() <= std::numeric_limits<T>::max()) {
    *out = static_cast<T>(value.value());
    return true;
  }
  const auto max =
      static_cast<unsigned long long>(std::numeric_limits<T>::max());
  std::fprintf(stderr, "dmtd: %s takes an integer in [0, %llu], got \"%s\"\n",
               flag.c_str(), max, text);
  return false;
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Generates a small self-consistent model directory: Quest-mined rules,
/// a k-means model over a BIRCH-style grid, and an Agrawal decision tree
/// plus its training data (for kNN/NB). Everything is deterministic in
/// the fixed seeds, so smoke tests can assert on outputs.
Status MakeDemo(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(dmt::core::StrFormat(
        "mkdir %s: %s", dir.c_str(), std::strerror(errno)));
  }

  dmt::gen::QuestParams quest;
  quest.num_transactions = 2000;
  quest.avg_transaction_size = 8.0;
  quest.avg_pattern_size = 4.0;
  quest.num_items = 200;
  quest.num_patterns = 50;
  DMT_ASSIGN_OR_RETURN(dmt::core::TransactionDatabase db,
                       dmt::gen::GenerateQuestTransactions(quest, 1996));
  dmt::assoc::MiningParams mining_params;
  mining_params.min_support = 0.02;
  DMT_ASSIGN_OR_RETURN(dmt::assoc::MiningResult mined,
                       dmt::assoc::MineApriori(db, mining_params));
  dmt::assoc::RuleParams rule_params;
  rule_params.min_confidence = 0.5;
  DMT_ASSIGN_OR_RETURN(
      std::vector<dmt::assoc::AssociationRule> rules,
      dmt::assoc::GenerateRules(mined, db.size(), rule_params));
  DMT_RETURN_NOT_OK(dmt::io::WriteRuleSet(rules, dir + "/rules.dmt"));
  std::printf("rules.dmt: %zu rules from %s\n", rules.size(),
              quest.Name().c_str());

  DMT_ASSIGN_OR_RETURN(
      dmt::gen::LabeledPoints grid,
      dmt::gen::GenerateBirchGrid(9, 60, 10.0, 0.8, 1996));
  dmt::cluster::KMeansOptions kmeans_options;
  kmeans_options.k = 9;
  kmeans_options.seed = 1996;
  DMT_ASSIGN_OR_RETURN(
      dmt::cluster::ClusteringResult model,
      dmt::cluster::KMeans(grid.points, kmeans_options));
  DMT_RETURN_NOT_OK(dmt::io::WriteKMeansModel(model, dir + "/kmeans.dmt"));
  std::printf("kmeans.dmt: k=%zu dim=%zu sse=%.3f\n", model.centers.size(),
              model.centers.dim(), model.sse);

  dmt::gen::AgrawalParams agrawal;
  agrawal.function = 2;
  agrawal.num_records = 600;
  DMT_ASSIGN_OR_RETURN(dmt::core::Dataset train,
                       dmt::gen::GenerateAgrawal(agrawal, 1993));
  DMT_ASSIGN_OR_RETURN(dmt::tree::DecisionTree tree,
                       dmt::tree::BuildCart(train));
  DMT_RETURN_NOT_OK(dmt::io::WriteDecisionTree(tree, dir + "/tree.dmt"));
  DMT_RETURN_NOT_OK(dmt::io::WriteDataset(train, dir + "/train.dmt"));
  std::printf("tree.dmt: %zu nodes; train.dmt: %zux%zu\n", tree.num_nodes(),
              train.num_rows(), train.num_attributes());
  return Status::OK();
}

/// Sends one text query per stdin line to a socket daemon and prints the
/// formatted responses (the check.sh socket smoke client).
int RunClient(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Fail(Status::InvalidArgument("socket path too long"));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Fail(Status::IOError(std::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Fail(Status::IOError(dmt::core::StrFormat(
        "connect %s: %s", path.c_str(), std::strerror(errno))));
  }
  uint64_t id = 0;
  std::string line;
  int exit_code = 0;
  while (std::getline(std::cin, line)) {
    Result<dmt::serve::Request> request =
        dmt::serve::ParseScriptLine(line, ++id);
    if (!request.ok()) {
      if (request.status().code() == dmt::core::StatusCode::kNotFound) {
        continue;  // blank/comment line
      }
      std::printf("id=%llu error %s\n",
                  static_cast<unsigned long long>(id),
                  request.status().ToString().c_str());
      exit_code = 1;
      continue;
    }
    Status sent = dmt::serve::WriteAll(
        fd, dmt::serve::EncodeRequestFrame(request.value()));
    if (!sent.ok()) {
      ::close(fd);
      return Fail(sent);
    }
    Result<std::vector<std::byte>> frame =
        dmt::serve::ReadFrame(fd, dmt::serve::kResponseMagic);
    if (!frame.ok()) {
      ::close(fd);
      return Fail(frame.status());
    }
    Result<dmt::serve::Response> response =
        dmt::serve::DecodeResponseFrame(frame.value());
    if (!response.ok()) {
      ::close(fd);
      return Fail(response.status());
    }
    std::printf("%s\n",
                dmt::serve::FormatResponse(response.value()).c_str());
  }
  ::close(fd);
  return exit_code;
}

/// Runs a script file through the deterministic sync path and prints one
/// formatted response per query line, in order.
int RunScript(dmt::serve::Server* server, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Fail(Status::IOError("cannot open script " + path));
  }
  std::vector<std::vector<std::byte>> frames;
  uint64_t id = 0;
  std::string line;
  while (std::getline(in, line)) {
    Result<dmt::serve::Request> request =
        dmt::serve::ParseScriptLine(line, id + 1);
    if (!request.ok()) {
      if (request.status().code() == dmt::core::StatusCode::kNotFound) {
        continue;
      }
      return Fail(request.status());
    }
    ++id;
    frames.push_back(dmt::serve::EncodeRequestFrame(request.value()));
  }
  std::vector<std::vector<std::byte>> responses =
      server->HandleFrames(frames);
  for (const std::vector<std::byte>& frame : responses) {
    Result<dmt::serve::Response> response =
        dmt::serve::DecodeResponseFrame(frame);
    if (!response.ok()) return Fail(response.status());
    std::printf("%s\n",
                dmt::serve::FormatResponse(response.value()).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  dmt::serve::ModelPaths paths;
  dmt::serve::ServeOptions options;
  std::string make_demo, script, socket_path, client_path, dir;
  std::string metrics_path;
  uint32_t metrics_interval_ms = 1000;
  bool use_stdin = false;
  size_t max_connections = 0;

  auto need_value = [&](int i) { return i + 1 < argc; };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--make-demo" && need_value(i)) {
      make_demo = argv[++i];
    } else if (arg == "--dir" && need_value(i)) {
      dir = argv[++i];
    } else if (arg == "--tree" && need_value(i)) {
      paths.tree = argv[++i];
    } else if (arg == "--train" && need_value(i)) {
      paths.train = argv[++i];
    } else if (arg == "--kmeans" && need_value(i)) {
      paths.kmeans = argv[++i];
    } else if (arg == "--rules" && need_value(i)) {
      paths.rules = argv[++i];
    } else if (arg == "--script" && need_value(i)) {
      script = argv[++i];
    } else if (arg == "--socket" && need_value(i)) {
      socket_path = argv[++i];
    } else if (arg == "--client" && need_value(i)) {
      client_path = argv[++i];
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--batch-size" && need_value(i)) {
      if (!ParseFlag(arg, argv[++i], &options.batch_size)) return Usage();
    } else if (arg == "--threads" && need_value(i)) {
      if (!ParseFlag(arg, argv[++i], &options.num_threads)) return Usage();
    } else if (arg == "--cache" && need_value(i)) {
      if (!ParseFlag(arg, argv[++i], &options.cache_capacity)) {
        return Usage();
      }
    } else if (arg == "--cache-shards" && need_value(i)) {
      if (!ParseFlag(arg, argv[++i], &options.cache_shards)) return Usage();
    } else if (arg == "--verify-cache") {
      options.verify_cache_hits = true;
    } else if (arg == "--max-conns" && need_value(i)) {
      if (!ParseFlag(arg, argv[++i], &max_connections)) return Usage();
    } else if (arg == "--metrics-path" && need_value(i)) {
      metrics_path = argv[++i];
    } else if (arg == "--metrics-interval-ms" && need_value(i)) {
      if (!ParseFlag(arg, argv[++i], &metrics_interval_ms)) return Usage();
    } else if (arg == "--slow-query-us" && need_value(i)) {
      if (!ParseFlag(arg, argv[++i], &options.slow_query_us)) {
        return Usage();
      }
    } else if (arg == "--no-telemetry") {
      options.latency_telemetry = false;
    } else {
      return Usage();
    }
  }

  if (!make_demo.empty()) {
    Status status = MakeDemo(make_demo);
    return status.ok() ? 0 : Fail(status);
  }
  if (!client_path.empty()) return RunClient(client_path);

  if (!dir.empty()) {
    auto pick = [&](std::string* slot, const std::string& name) {
      if (slot->empty() && FileExists(dir + "/" + name)) {
        *slot = dir + "/" + name;
      }
    };
    pick(&paths.tree, "tree.dmt");
    pick(&paths.train, "train.dmt");
    pick(&paths.kmeans, "kmeans.dmt");
    pick(&paths.rules, "rules.dmt");
  }
  if (paths.tree.empty() && paths.train.empty() && paths.kmeans.empty() &&
      paths.rules.empty()) {
    return Usage();
  }
  Status valid = options.Validate();
  if (!valid.ok()) return Fail(valid);

  auto bundle = dmt::serve::ModelBundle::Load(paths);
  if (!bundle.ok()) return Fail(bundle.status());
  std::fprintf(stderr, "dmtd: loaded %s\n",
               bundle.value()->Describe().c_str());
  dmt::serve::Server server(bundle.value(), options);

  // Constructed after the server (so the first dump already has the
  // serve/* metrics registered) and destroyed after serving returns (the
  // final dump covers the whole run).
  std::unique_ptr<dmt::serve::MetricsDumper> dumper;
  if (!metrics_path.empty()) {
    dumper = std::make_unique<dmt::serve::MetricsDumper>(
        metrics_path, metrics_interval_ms);
  }

  if (!script.empty()) return RunScript(&server, script);
  if (use_stdin) {
    // Responses go to a pipe, where a reader that quits raises SIGPIPE;
    // ignored, it becomes a write error that ends the stream instead.
    std::signal(SIGPIPE, SIG_IGN);
    Status status =
        dmt::serve::ServeStream(&server, STDIN_FILENO, STDOUT_FILENO);
    return status.ok() ? 0 : Fail(status);
  }
  if (!socket_path.empty()) {
    Status status =
        dmt::serve::ServeSocket(&server, socket_path, max_connections);
    return status.ok() ? 0 : Fail(status);
  }
  return Usage();
}
