#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

Trace::Span::Span(Trace* trace, const char* name) : trace_(trace) {
  if (!trace_->enabled_) return;
  Record record;
  record.name = name;
  record.parent = trace_->open_.empty() ? -1 : trace_->open_.back();
  record.round = trace_->round_;
  record.start_ns = trace_->NowNs();
  index_ = static_cast<int>(trace_->records_.size());
  trace_->records_.push_back(std::move(record));
  trace_->open_.push_back(index_);
}

Trace::Span::~Span() {
  if (index_ < 0) return;
  trace_->records_[static_cast<size_t>(index_)].end_ns = trace_->NowNs();
  trace_->open_.pop_back();
}

void Trace::Span::Rename(std::string name) {
  if (index_ >= 0) trace_->records_[static_cast<size_t>(index_)].name = std::move(name);
}

std::vector<double> Trace::Durations(const std::string& name, int round) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name && (round < 0 || r.round == round)) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<Trace::SelfRow> Trace::SelfTimes() const {
  std::vector<int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  std::map<std::string, SelfRow> rows;
  for (size_t i = 0; i < records_.size(); ++i) {
    SelfRow& row = rows[records_[i].name];
    row.name = records_[i].name;
    row.count += 1;
    row.self_ms += static_cast<double>(records_[i].end_ns - records_[i].start_ns - child_ns[i]) / 1e6;
  }
  std::vector<SelfRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const SelfRow& a, const SelfRow& b) { return a.self_ms > b.self_ms; });
  return out;
}

bool Trace::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"id\":" << i << ",\"parent\":" << r.parent << ",\"round\":" << r.round
        << ",\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

void Env::Fail(const std::string& what) {
  if (check_failures.size() < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  check_failures.push_back(what);
}

void Env::Check(const std::function<void()>& check) {
  const Clock::time_point start = Clock::now();
  check();
  check_ms += MsSince(start);
}

void Env::Op(const char* span, const std::function<bool()>& op) {
  Trace::Span s(&trace, span);
  const Clock::time_point start = Clock::now();
  const bool ok = op();
  op_ms.push_back(MsSince(start));
  ++attempted;
  if (!ok) ++failed;
}

double HostRefMs() {
  // xorshift walk over a 128 KiB table: integer ALU work plus cache-resident
  // loads, the mix the engine's bitset kernels run on. The table sits well
  // inside L2, so where its pages land does not move the time.
  std::vector<uint64_t> table(1 << 14);
  for (size_t i = 0; i < table.size(); ++i) table[i] = i * 0x9e3779b97f4a7c15ULL;
  std::vector<double> reps;
  volatile uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    uint64_t x = 88172645463325252ULL + static_cast<uint64_t>(rep);
    uint64_t acc = 0;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += table[x & (table.size() - 1)] ^ x;
    }
    sink = sink + acc;
    reps.push_back(MsSince(start));
  }
  return Median(reps);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<coursenav::serve::ExplorationServer> StartServer(
    const coursenav::data::BrandeisDataset& dataset) {
  coursenav::serve::ServerConfig config;
  config.num_workers = 1;
  config.max_seconds_per_request = 0;  // off: no wall-clock cap can bind
  config.max_nodes_per_request = 5'000'000;
  config.admission.max_deadline_seconds = kDeadlineCeilingSeconds;
  config.admission.default_deadline_seconds = kDeadlineCeilingSeconds;
  config.degrade_by_default = false;
  auto server = std::make_unique<coursenav::serve::ExplorationServer>(
      &dataset.catalog, &dataset.schedule, config);
  server->Start();
  return server;
}

}  // namespace perfbench
