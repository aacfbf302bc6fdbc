// Shared machinery of the benchmark program: arguments, the seeded RNG, op
// timing, the benchmark's own spans, checks and metric output. Nothing here
// reaches inside the program; every layer is timed from outside by wrapping
// calls into its public functions.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/brandeis_cs.h"
#include "serve/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// splitmix64: the same seed gives the same stream on every platform (the
/// std distributions do not promise that).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n must be positive.
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  bool Chance(int num, int den) { return Below(den) < num; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(Below(static_cast<int>(i)))]);
    }
  }

 private:
  uint64_t state_;
};

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty list.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The benchmark's own span recorder. Off in end-to-end runs (a Span is
/// then one branch); in traced runs every span is kept in memory and
/// written out as JSON lines when the run ends.
class Trace {
 public:
  struct Record {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int round = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  void set_round(int round) { round_ = round; }

  class Span {
   public:
    Span(Trace* trace, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Renames the span before it closes (e.g. once a cache outcome is
    /// known).
    void Rename(std::string name);

   private:
    Trace* trace_;
    int index_ = -1;
  };

  /// Durations (ms) of the closed spans called `name` in `round` (-1 = all
  /// rounds).
  std::vector<double> Durations(const std::string& name, int round) const;

  /// Self time per span name: duration minus the time its children cover.
  struct SelfRow {
    std::string name;
    int64_t count = 0;
    double self_ms = 0;
  };
  std::vector<SelfRow> SelfTimes() const;

  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  int round_ = 0;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// Everything one run shares: arguments, the dataset, the in-process
/// server, op latencies, check failures, spans and per-layer metrics.
struct Env {
  Args args;
  Clock::time_point process_start;
  Trace trace{false};

  coursenav::data::BrandeisDataset dataset;
  std::unique_ptr<coursenav::serve::ExplorationServer> server;
  double dataset_ms = 0;
  double server_start_ms = 0;
  // Time Setup spent drawing the seeded inputs (the benchmark's own walks
  // and the counter calls that size them). It is reported on its own and
  // kept out of setup_s, which times the program's set-up and warm-up.
  double inputs_ms = 0;

  // Op accounting of the timed phase.
  std::vector<double> op_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double timed_ms = 0;   // timed-phase wall time, checks excluded
  double check_ms = 0;   // time spent in checks inside rounds
  // Per round: index of its first op in op_ms, its wall time (checks
  // excluded) and its failed operations.
  std::vector<size_t> round_first_op;
  std::vector<double> round_ms;
  std::vector<int64_t> round_failed;

  std::vector<std::string> check_failures;
  std::map<std::string, std::pair<double, std::string>> layer;

  /// Records a failed correctness check (the run then reports correct:
  /// false).
  void Fail(const std::string& what);
  /// Runs `check` untimed: its duration is taken out of the timed phase.
  void Check(const std::function<void()>& check);
  /// Runs one timed op; `op` returns false when the operation failed.
  void Op(const char* span, const std::function<bool()>& op);
  void SetLayer(const std::string& name, double value, const std::string& unit) {
    layer[name] = {value, unit};
  }
};

/// A fixed integer loop in the benchmark's own code: its time tells a slow
/// host from a slow program.
double HostRefMs();

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// One workload: inputs built from the seed in Setup, then whole rounds of
/// the same operations until the run's seconds are used up.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the seeded inputs, adding the time that takes to
  /// env.inputs_ms, and warms up (set-up time).
  virtual void Setup(Env& env) = 0;
  /// One round of the workload's operations. Round 1 also checks outputs;
  /// every round checks that its work counts equal round 1's.
  virtual void Round(Env& env, int round) = 0;
  /// Traced runs: derives the per-layer metrics after the last round.
  virtual void Layers(Env& env) = 0;
};

std::unique_ptr<Workload> MakeCohortBatch();
std::unique_ptr<Workload> MakeServeMix();
std::unique_ptr<Workload> MakeSessionWalk();

/// Starts the in-process server every workload's set-up includes. No
/// wall-clock budget can bind: the per-request second cap is off and every
/// envelope deadline sits at the ceiling, far above any request's size.
std::unique_ptr<coursenav::serve::ExplorationServer> StartServer(
    const coursenav::data::BrandeisDataset& dataset);
inline constexpr double kDeadlineCeilingSeconds = 600.0;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
