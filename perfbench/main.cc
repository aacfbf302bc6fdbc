// Benchmark program for CourseNavigator. One run:
//
//   perfbench --workload <cohort_batch|serve_mix|session_walk> --seed <n>
//             --seconds <s> --trace <0|1>
//
// builds the bundled dataset, starts the in-process server, builds the
// workload's inputs from the seed and warms up (set-up, less the input
// drawing), then runs whole rounds of the workload's operations until
// `seconds` of timed work are done, and at least kMinRounds, and then the
// checkers' self-test. The last stdout line is one JSON object:
// correct, attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics taken from the benchmark's own spans (--trace 1).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/request_cache.h"
#include "checks.h"
#include "common.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. Each is set by the
/// workload's own layer split or by the probes of the other workloads
/// (README: which workload each belongs to).
constexpr MetricSpec kPerLayer[] = {
    {"host.ref_ms", "ms"},
    {"data.dataset_ms", "ms"},
    {"serve.start_ms", "ms"},
    {"plan.lower_us", "us"},
    {"plan.request_parse_us", "us"},
    {"plan.run_ms.deadline", "ms"},
    {"plan.run_ms.goal", "ms"},
    {"plan.run_ms.ranked", "ms"},
    {"core.nodes_created", "count"},
    {"core.nodes_expanded", "count"},
    {"core.pruned_time", "count"},
    {"core.pruned_availability", "count"},
    {"core.ns_per_node", "ns"},
    {"core.count_ms", "ms"},
    {"core.count_statuses", "count"},
    {"core.count_ns_per_status", "ns"},
    {"exec.goal5_serial_ms", "ms"},
    {"exec.goal5_2t_ms", "ms"},
    {"exec.speedup_2t", "x"},
    {"graph.bytes_per_node", "B"},
    {"graph.render_ms", "ms"},
    {"graph.render_mb_per_s", "MB/s"},
    {"cache.hit_ms", "ms"},
    {"cache.miss_ms", "ms"},
    {"cache.result_bytes", "B"},
    {"cache.result_hits", "count"},
    {"cache.result_misses", "count"},
    {"cache.bypasses", "count"},
    {"cache.plan_hits", "count"},
    {"cache.count_hits", "count"},
    {"cache.count_misses", "count"},
    {"cache.result_hit_ratio", "ratio"},
    {"json.parse_us", "us"},
    {"serve.envelope_parse_us", "us"},
    {"serve.response_dump_ms", "ms"},
    {"serve.frame_us", "us"},
    {"serve.response_kb", "KB"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.service_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"service.remaining_ms", "ms"},
    {"service.evaluate_ms", "ms"},
    {"service.topk_ms", "ms"},
    {"service.evaluate_candidates", "count"},
};

constexpr const char* kWorkloads[] = {"cohort_batch", "serve_mix", "session_walk"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "cohort_batch") return MakeCohortBatch();
  if (name == "serve_mix") return MakeServeMix();
  if (name == "session_walk") return MakeSessionWalk();
  return nullptr;
}

/// Traced runs: the layers this workload does not reach are measured by one
/// round of each other workload, on the same seed, in an Env of its own (its
/// own dataset, server, ops and spans). Metrics the workload set itself
/// are kept.
void ProbeOtherLayers(Env& env) {
  for (const char* name : kWorkloads) {
    if (env.args.workload == name) continue;
    Env probe;
    probe.args = env.args;
    probe.args.workload = name;
    probe.trace = Trace(true);
    probe.dataset = coursenav::data::BuildBrandeisDataset();
    probe.server = StartServer(probe.dataset);
    std::unique_ptr<Workload> other = MakeWorkload(name);
    other->Setup(probe);
    coursenav::cache::RequestCache::Global().Clear();
    probe.trace.set_round(1);
    other->Round(probe, 1);
    probe.trace.set_round(0);
    other->Layers(probe);
    probe.server->Shutdown();
    for (const auto& [metric, value] : probe.layer) env.layer.emplace(metric, value);
    for (const std::string& failure : probe.check_failures) {
      env.Fail(std::string(name) + " probe: " + failure);
    }
  }
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <cohort_batch|serve_mix|"
               "session_walk> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* rest = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &rest, 10);
      if (*rest != '\0') Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &rest, 10));
      if (*rest != '\0' || args.seconds < 1) Usage("--seconds takes a whole number >= 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// Every round runs the same ops in the same order, on the same inputs and
/// from the same cache state, so each op has one latency per round, each
/// round one throughput, and the host's noise can only make them worse. An
/// op's latency is its fastest over the rounds, and the quantiles are taken
/// over those; throughput is the fastest round's. A slow spell of the host
/// that misses one round then moves none of them.
struct EndToEnd {
  std::vector<double> round_ops_per_s;
  double ops_per_s = 0;
  double p50 = 0;
  double p90 = 0;
};

EndToEnd Summarize(const Env& env) {
  EndToEnd out;
  const size_t rounds = env.round_ms.size();
  std::vector<size_t> first = env.round_first_op;
  first.push_back(env.op_ms.size());
  const size_t per_round = first[1] - first[0];
  for (size_t r = 0; r < rounds; ++r) {
    const size_t ops = first[r + 1] - first[r];
    if (ops != per_round) {
      std::fprintf(stderr, "perfbench: round %zu ran %zu ops, round 1 ran %zu\n", r + 1, ops,
                   per_round);
      std::exit(2);
    }
    const double completed = static_cast<double>(static_cast<int64_t>(ops) - env.round_failed[r]);
    out.round_ops_per_s.push_back(completed / (env.round_ms[r] / 1e3));
  }
  std::vector<double> typical;
  for (size_t i = 0; i < per_round; ++i) {
    std::vector<double> samples;
    for (size_t r = 0; r < rounds; ++r) samples.push_back(env.op_ms[first[r] + i]);
    typical.push_back(*std::min_element(samples.begin(), samples.end()));
  }
  out.ops_per_s = *std::max_element(out.round_ops_per_s.begin(), out.round_ops_per_s.end());
  out.p50 = Quantile(typical, 0.5);
  out.p90 = Quantile(typical, 0.9);
  return out;
}

void PrintMetric(std::string* out, const std::string& name, double value,
                 const std::string& unit) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name.c_str(), value, unit.c_str());
  *out += buffer;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Env env;
  env.process_start = Clock::now();
  env.args = ParseArgs(argc, argv);
  env.trace = Trace(env.args.trace);

  std::unique_ptr<Workload> workload = MakeWorkload(env.args.workload);
  if (workload == nullptr) Usage(("unknown workload " + env.args.workload).c_str());

  // ---- set-up: dataset, server, seeded inputs (not counted), warm-up.
  Clock::time_point start = Clock::now();
  env.dataset = coursenav::data::BuildBrandeisDataset();
  env.dataset_ms = MsSince(start);
  start = Clock::now();
  env.server = StartServer(env.dataset);
  env.server_start_ms = MsSince(start);
  workload->Setup(env);
  coursenav::cache::RequestCache::Global().Clear();
  const double setup_s = (MsSince(env.process_start) - env.inputs_ms) / 1e3;

  // ---- timed phase: whole rounds until the run's seconds are done, and
  // at least kMinRounds of them, so that one slow round cannot set a metric.
  for (int round = 1; round <= kMinRounds || env.timed_ms < env.args.seconds * 1e3; ++round) {
    env.trace.set_round(round);
    env.round_first_op.push_back(env.op_ms.size());
    const double checks_before = env.check_ms;
    const int64_t failed_before = env.failed;
    const Clock::time_point round_start = Clock::now();
    workload->Round(env, round);
    const double round_ms = MsSince(round_start) - (env.check_ms - checks_before);
    env.round_ms.push_back(round_ms);
    env.round_failed.push_back(env.failed - failed_before);
    env.timed_ms += round_ms;
  }
  env.trace.set_round(0);

  const double host_ref_ms = HostRefMs();
  const double peak_rss_mb = PeakRssMb();
  const EndToEnd e2e = Summarize(env);
  for (const std::string& broken : SelfTest(env.dataset, PlainCatalog(env.dataset))) {
    env.Fail("self-test: " + broken);
  }
  if (env.args.trace) {
    workload->Layers(env);
    ProbeOtherLayers(env);
  }
  env.server->Shutdown();

  std::printf("workload %s seed %llu: %zu rounds, %zu ops in %.1f s timed (+%.1f s checks)\n",
              env.args.workload.c_str(), static_cast<unsigned long long>(env.args.seed),
              env.round_ms.size(), env.op_ms.size(), env.timed_ms / 1e3, env.check_ms / 1e3);
  for (size_t r = 0; r < env.round_ms.size(); ++r) {
    std::printf("round %zu: %.1f ms, %.3f ops/s\n", r + 1, env.round_ms[r], e2e.round_ops_per_s[r]);
  }
  std::printf("host.ref_ms %.3f\n", host_ref_ms);
  std::printf("inputs_s %.3f (seeded input drawing, not in setup_s)\n", env.inputs_ms / 1e3);
  std::printf("end-to-end: setup_s %.3f ops_per_s %.3f op_p50_ms %.3f op_p90_ms %.3f "
              "peak_rss_mb %.1f\n",
              setup_s, e2e.ops_per_s, e2e.p50, e2e.p90, peak_rss_mb);

  std::string metrics;
  if (env.args.trace) {
    env.SetLayer("host.ref_ms", host_ref_ms, "ms");
    env.SetLayer("data.dataset_ms", env.dataset_ms, "ms");
    env.SetLayer("serve.start_ms", env.server_start_ms, "ms");
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/trace-" + env.args.workload + "-" +
                             std::to_string(env.args.seed) + ".jsonl";
    if (!env.trace.WriteJsonLines(path)) env.Fail("could not write " + path);
    double total_self = 0;
    for (const auto& row : env.trace.SelfTimes()) total_self += row.self_ms;
    std::printf("%-40s %10s %12s %7s\n", "span (self time)", "count", "self_ms", "share");
    for (const auto& row : env.trace.SelfTimes()) {
      std::printf("%-40s %10lld %12.1f %6.1f%%\n", row.name.c_str(),
                  static_cast<long long>(row.count), row.self_ms,
                  100.0 * row.self_ms / total_self);
    }
    std::printf("spans written to %s\n", path.c_str());
    for (const MetricSpec& spec : kPerLayer) {
      auto it = env.layer.find(spec.name);
      const double value = it == env.layer.end() ? 0.0 : it->second.first;
      if (it == env.layer.end()) {
        env.Fail(std::string("no value for ") + spec.name);
      } else if (it->second.second != spec.unit) {
        env.Fail(std::string("unit mismatch for ") + spec.name);
      }
      std::printf("layer %-32s %14.4f %s\n", spec.name, value, spec.unit);
      PrintMetric(&metrics, spec.name, value, spec.unit);
    }
  } else {
    PrintMetric(&metrics, "setup_s", setup_s, "s");
    PrintMetric(&metrics, "ops_per_s", e2e.ops_per_s, "1/s");
    PrintMetric(&metrics, "op_p50_ms", e2e.p50, "ms");
    PrintMetric(&metrics, "op_p90_ms", e2e.p90, "ms");
    PrintMetric(&metrics, "peak_rss_mb", peak_rss_mb, "MB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              env.check_failures.empty() ? "true" : "false",
              static_cast<long long>(env.attempted), static_cast<long long>(env.failed),
              metrics.c_str());
  std::fflush(stdout);
  return 0;
}
