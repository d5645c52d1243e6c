// pbtool — the benchmark's own binary. Subcommands:
//
//   pbtool gen-mine  --out DIR --seed N ...   Quest baskets + reference
//   pbtool mine      --mode memory|ooc ...    timed mining op loop
//   pbtool gen-serve --out DIR --seed N ...   model bundle for dmtd
//   pbtool load      --socket PATH ...        open-loop client + oracle
//   pbtool stamp                              kernel level + compiler
//
// Machine-readable results go to stdout as one JSON object per line;
// diagnostics go to stderr. perfbench/run.py is the only caller.
#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/kernels/kernels.h"

namespace pb {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      Die("bad flag '" + key + "' (flags are --key value pairs)");
    }
    values_[key.substr(2)] = argv[++i];
  }
}

std::string Flags::Str(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) Die("missing --" + key);
  return it->second;
}

double Flags::Num(const std::string& key) const {
  const std::string text = Str(key);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    Die("--" + key + " is not a number: " + text);
  }
  return value;
}

uint64_t Flags::Uint(const std::string& key) const {
  const double value = Num(key);
  if (value < 0) Die("--" + key + " must be non-negative");
  return static_cast<uint64_t>(value);
}

void Die(const std::string& message) {
  std::fprintf(stderr, "pbtool: %s\n", message.c_str());
  std::exit(1);
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t ProcStatusKb(int pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

uint64_t ProcessThreadsCpuNs(int pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return 0;
  uint64_t total = 0;
  while (dirent* entry = ::readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + entry->d_name + "/schedstat");
    uint64_t on_cpu_ns = 0;
    if (in >> on_cpu_ns) total += on_cpu_ns;
  }
  ::closedir(tasks);
  return total;
}

uint64_t RuleSetDigest(
    const std::vector<dmt::assoc::AssociationRule>& rules) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_double = [&mix](double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  mix(rules.size());
  for (const dmt::assoc::AssociationRule& rule : rules) {
    mix(rule.antecedent.size());
    for (auto item : rule.antecedent) mix(item);
    mix(rule.consequent.size());
    for (auto item : rule.consequent) mix(item);
    mix(rule.support_count);
    mix_double(rule.support);
    mix_double(rule.confidence);
    mix_double(rule.lift);
    mix_double(rule.conviction);
    mix_double(rule.leverage);
  }
  return h;
}

std::string Hex64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

int64_t SpanLog::Begin(const char* name, int64_t parent, uint64_t op) {
  records_.push_back({name, clock_us_(), 0.0, parent, op});
  return static_cast<int64_t>(records_.size()) - 1;
}

int64_t SpanLog::Add(const char* name, double start_us, double end_us,
                     int64_t parent, uint64_t op) {
  records_.push_back({name, start_us, end_us, parent, op});
  return static_cast<int64_t>(records_.size()) - 1;
}

void SpanLog::End(int64_t index) {
  records_[static_cast<size_t>(index)].end_us = clock_us_();
}

bool SpanLog::WriteJson(const std::string& path, uint32_t tid) const {
  std::ofstream out(path);
  out << "{\"tid\": " << tid << ", \"spans\": [";
  char line[256];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %lld, \"op\": %llu}",
                  i == 0 ? "" : ",", i, r.name, r.start_us, r.end_us,
                  static_cast<long long>(r.parent),
                  static_cast<unsigned long long>(r.op));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace pb

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pbtool gen-mine|mine|gen-serve|load|stamp --key value "
                 "...\n");
    return 2;
  }
  const std::string command = argv[1];
  const pb::Flags flags(argc, argv, 2);
  if (command == "gen-mine") return pb::GenMine(flags);
  if (command == "mine") return pb::MineOps(flags);
  if (command == "gen-serve") return pb::GenServe(flags);
  if (command == "load") return pb::Load(flags);
  if (command == "stamp") {
    // What built and runs the program: the kernel table the CPU dispatch
    // picks (same rule in every dmt process) and the compiler. Plus the
    // host's current single-core speed: a fixed xorshift loop, median of
    // five timings. Shared hosts drift between speed modes that steal
    // does not show, and this reading does.
    std::vector<double> ms;
    uint64_t x = 88172645463325252ULL;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = pb::NowUs();
      for (int i = 0; i < 10'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      ms.push_back((pb::NowUs() - t0) * 1e-3);
    }
    std::sort(ms.begin(), ms.end());
    std::printf(
        "{\"kernel_level\": \"%s\", \"compiler\": \"%s\", "
        "\"host_ref_ms\": %.3f, \"ref_state\": %llu}\n",
        dmt::core::kernels::KernelLevelName(
            dmt::core::kernels::ActiveLevel()),
        __VERSION__, ms[2], static_cast<unsigned long long>(x & 1));
    return 0;
  }
  std::fprintf(stderr, "pbtool: unknown subcommand '%s'\n", command.c_str());
  return 2;
}
