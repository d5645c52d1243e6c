// Shared plumbing of the pbtool subcommands: flag parsing, clocks,
// process-memory readout, the in-memory span log of the traced run, and
// the canonical rule-set digest the mining oracle compares.
#ifndef PERFBENCH_CPP_COMMON_H_
#define PERFBENCH_CPP_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "assoc/rules.h"
#include "core/status.h"
#include "core/transaction.h"
#include "gen/quest.h"

namespace pb {

/// `--key value` pairs after the subcommand name. Unknown keys are kept
/// (subcommands read what they need); a key without a value is an error.
class Flags {
 public:
  Flags(int argc, char** argv, int first);

  /// Each accessor exits through Die() when the key is missing or
  /// malformed.
  std::string Str(const std::string& key) const;
  double Num(const std::string& key) const;
  uint64_t Uint(const std::string& key) const;

 private:
  std::unordered_map<std::string, std::string> values_;
};

/// Prints "pbtool: <message>" to stderr and exits with status 1.
[[noreturn]] void Die(const std::string& message);

/// Monotonic clock in microseconds (steady_clock).
double NowUs();

/// CPU time (user + system, all threads) of the calling process.
double ProcessCpuSeconds();

/// A field of /proc/<pid>/status in kB (e.g. "VmHWM"); pid 0 = self.
uint64_t ProcStatusKb(int pid, const char* field);

/// Sum of on-CPU nanoseconds over every live thread of `pid`, from
/// /proc/<pid>/task/*/schedstat (nanosecond accounting, unlike the
/// 10 ms ticks of /proc/<pid>/stat).
uint64_t ProcessThreadsCpuNs(int pid);

/// Order-sensitive 64-bit FNV-1a digest over every field of every rule
/// (item ids, support count, and the bit patterns of the five measures):
/// any difference between two rule sets changes it, barring a 64-bit
/// collision.
uint64_t RuleSetDigest(const std::vector<dmt::assoc::AssociationRule>& rules);

std::string Hex64(uint64_t value);

/// Spans the benchmark records around its own calls into the program:
/// name, start, end, parent, and the op or request they belong to. Kept in
/// memory; written once at the end.
class SpanLog {
 public:
  /// `clock_us` supplies timestamps (the trace sink's timebase, so the
  /// program's own spans land on the same axis).
  explicit SpanLog(double (*clock_us)()) : clock_us_(clock_us) {}

  /// Opens a span and returns its index; `parent` is -1 for a root.
  int64_t Begin(const char* name, int64_t parent, uint64_t op);
  void End(int64_t index);
  /// Adds an already-timed span; returns its index.
  int64_t Add(const char* name, double start_us, double end_us,
              int64_t parent, uint64_t op);
  bool WriteJson(const std::string& path, uint32_t tid) const;

 private:
  struct Record {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
    uint64_t op;
  };
  double (*clock_us_)();
  std::vector<Record> records_;
};

/// Opens/closes a SpanLog span for a scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent, uint64_t op)
      : log_(log), index_(log ? log->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  int64_t index_;
};

/// Exits through Die() with `what` and the status when `result` failed.
template <typename T>
T OrDie(dmt::core::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}
void OrDie(const dmt::core::Status& status, const char* what);

/// A workload's store: the Quest database of --base-transactions
/// transactions generated from the fixed --base-seed (--tlen, --ilen,
/// --items, --patterns). Generated on first use and cached as the
/// container at --base; every later call loads it.
dmt::gen::QuestParams QuestBaseParams(const Flags& flags);
dmt::core::TransactionDatabase LoadQuestBase(const Flags& flags);

/// `n` transactions of `base` drawn without replacement by `seed`, kept
/// in base order.
dmt::core::TransactionDatabase DrawTransactions(
    const dmt::core::TransactionDatabase& base, size_t n, uint64_t seed);

int GenMine(const Flags& flags);
int MineOps(const Flags& flags);
int GenServe(const Flags& flags);
int Load(const Flags& flags);

}  // namespace pb

#endif  // PERFBENCH_CPP_COMMON_H_
