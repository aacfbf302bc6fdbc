// cohort_batch: a registrar's start-of-term batch. For each student of a
// seeded cohort it computes the CS-major goal graph, that graph's goal-path
// count and the time-ranked top-5, then runs the paper's fixed cells. An op
// is one plan::Execute or Count*DrivenPaths call; the request cache takes no
// part, so nearly all time goes to expansion, pruning, counting and ranking.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/counting.h"
#include "plan/executor.h"

namespace perfbench {
namespace {

using namespace coursenav;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

/// The cohort, by semesters left: how many students, and the band their
/// goal count's distinct statuses must fall in. Fixed strata with narrow
/// bands keep the op-cost mix the same from seed to seed (p50 falls among
/// the 4-semester students, p90 among the 5-semester ones' ranked asks); without
/// a cap, mid-degree statuses with slack in them reach tens of millions of
/// nodes.
struct Stratum {
  int left;
  int students;
  int64_t min_statuses;
  int64_t max_statuses;
};
constexpr Stratum kCohort[] = {
    {2, 6, 1, 1'000},
    {3, 6, 100, 1'500},
    {4, 14, 1'500, 4'000},
    {5, 10, 16'000, 40'000},
};
constexpr int kMaxLoad = 3;

struct Student {
  EnrollmentStatus status;
  int left = 0;
};

struct Tally {
  std::vector<int64_t> work;  // per-op work counts, compared across rounds
  int64_t nodes_created = 0, nodes_expanded = 0, pruned_time = 0, pruned_availability = 0;
  int64_t serial_graph_nodes = 0;
  size_t serial_graph_bytes = 0;
  int64_t count_statuses = 0;
  double serial_graph_ms = 0, count_ms = 0;
  double run_ms_deadline = 0, run_ms_goal = 0, run_ms_ranked = 0;
  double goal5_serial_ms = 0, goal5_2t_ms = 0;
};

class CohortBatch : public Workload {
 public:
  void Setup(Env& env) override {
    const data::BrandeisDataset& ds = env.dataset;
    plain_ = std::make_unique<PlainCatalog>(ds);
    end_ = data::EvaluationEndTerm();
    ranking_ = std::make_shared<const TimeRanking>();
    goal_ = ds.cs_major;
    const DynamicBitset core = *ds.catalog.CourseSetFromCodes(ds.core_codes);
    const Clock::time_point draw_start = Clock::now();
    Rng rng(env.args.seed * 0x2545f4914f6cdd1dULL + 11);
    for (const Stratum& stratum : kCohort) {
      for (int i = 0; i < stratum.students; ++i) {
        std::optional<Student> student;
        for (int attempt = 0; !student.has_value(); ++attempt) {
          if (attempt == 2000) Die("no student fits the cohort bands");
          student = DrawStudent(ds, core, stratum, &rng);
        }
        students_.push_back(std::move(*student));
      }
    }
    env.inputs_ms += MsSince(draw_start);
    // Warm-up: the largest cell once, so the timed rounds do not pay for
    // fresh arena pages.
    auto warm = plan::Execute(ds.catalog, ds.schedule, GoalRequest(Empty(ds, 5), 0));
    if (!warm.ok()) env.Fail("warm-up goal cell: " + warm.status().ToString());
  }

  void Round(Env& env, int round) override {
    const data::BrandeisDataset& ds = env.dataset;
    Tally tally;
    for (const Student& s : students_) {
      std::optional<ExplorationResponse> graph, ranked;
      std::optional<CountingResult> count;
      Execute(env, "plan::Execute/goal", GoalRequest(s.status, 0), &graph, &tally.run_ms_goal);
      tally.serial_graph_ms += env.op_ms.back();
      Count(env, s.status, /*goal=*/true, &count, &tally);
      Execute(env, "plan::Execute/ranked", RankedRequest(s.status, 5), &ranked,
              &tally.run_ms_ranked);
      Record(graph, &tally, true);
      Record(ranked, &tally, false);
      if (count) tally.work.push_back(count->distinct_statuses);
      if (round == 1 && graph && count && ranked) {
        env.Check([&] { CheckStudent(env, s, *graph, *count, *ranked); });
      }
    }

    // The paper's fixed cells.
    {
      std::optional<ExplorationResponse> deadline4;
      Execute(env, "plan::Execute/deadline", DeadlineRequest(Empty(ds, 4)), &deadline4,
              &tally.run_ms_deadline);
      tally.serial_graph_ms += env.op_ms.back();
      Record(deadline4, &tally, true);
      if (round == 1 && deadline4) {
        env.Check([&] {
          auto count = CountDeadlineDrivenPaths(ds.catalog, ds.schedule, Empty(ds, 4), end_, {});
          if (!count.ok()) return env.Fail("deadline4 count: " + count.status().ToString());
          Report(env, "deadline4",
                 CheckGraphTotals(TallyGraph(deadline4->generation->graph), count->total_paths,
                                  count->goal_paths));
        });
      }
    }
    {
      std::optional<CountingResult> deadline5;
      Count(env, Empty(ds, 5), /*goal=*/false, &deadline5, &tally);
      if (deadline5) tally.work.push_back(deadline5->distinct_statuses);
    }
    {
      std::optional<ExplorationResponse> ranked6;
      Execute(env, "plan::Execute/ranked", RankedRequest(Empty(ds, 6), 10), &ranked6,
              &tally.run_ms_ranked);
      Record(ranked6, &tally, false);
      if (round == 1 && ranked6) {
        env.Check([&] {
          Report(env, "ranked6",
                 CheckRanked(*plain_, ranked6->ranked->paths, 0, end_, kMaxLoad, 10, nullptr));
        });
      }
    }
    {
      GraphTally serial;
      {
        std::optional<ExplorationResponse> goal5;
        Execute(env, "plan::Execute/goal", GoalRequest(Empty(ds, 5), 0), &goal5,
                &tally.run_ms_goal);
        tally.goal5_serial_ms = env.op_ms.back();
        tally.serial_graph_ms += env.op_ms.back();
        Record(goal5, &tally, true);
        if (goal5) serial = TallyGraph(goal5->generation->graph);
        if (round == 1 && goal5) {
          env.Check([&] {
            auto count = CountGoalDrivenPaths(ds.catalog, ds.schedule, Empty(ds, 5), end_,
                                              *ds.cs_major, {});
            if (!count.ok()) return env.Fail("goal5 count: " + count.status().ToString());
            Report(env, "goal5", CheckGraphTotals(serial, count->total_paths, count->goal_paths));
          });
        }
      }
      std::optional<ExplorationResponse> goal5_2t;
      Execute(env, "plan::Execute/goal", GoalRequest(Empty(ds, 5), 2), &goal5_2t,
              &tally.run_ms_goal);
      tally.goal5_2t_ms = env.op_ms.back();
      Record(goal5_2t, &tally, false);
      if (goal5_2t) {
        const GraphTally parallel = TallyGraph(goal5_2t->generation->graph);
        env.Check([&] { Report(env, "goal5 at 2 threads", CheckSameGraph(serial, parallel)); });
      }
    }

    if (round == 1) {
      first_ = tally;
    } else if (tally.work != first_.work) {
      env.Fail("round " + std::to_string(round) + " did different work than round 1");
    }
    rounds_.push_back(tally);
  }

  void Layers(Env& env) override {
    auto median = [&](double Tally::*field) {
      std::vector<double> v;
      for (const Tally& t : rounds_) v.push_back(t.*field);
      return Median(v);
    };
    env.SetLayer("plan.run_ms.deadline", median(&Tally::run_ms_deadline), "ms");
    env.SetLayer("plan.run_ms.goal", median(&Tally::run_ms_goal), "ms");
    env.SetLayer("plan.run_ms.ranked", median(&Tally::run_ms_ranked), "ms");
    env.SetLayer("core.nodes_created", static_cast<double>(first_.nodes_created), "count");
    env.SetLayer("core.nodes_expanded", static_cast<double>(first_.nodes_expanded), "count");
    env.SetLayer("core.pruned_time", static_cast<double>(first_.pruned_time), "count");
    env.SetLayer("core.pruned_availability", static_cast<double>(first_.pruned_availability),
                 "count");
    env.SetLayer("core.ns_per_node",
                 median(&Tally::serial_graph_ms) * 1e6 /
                     static_cast<double>(first_.serial_graph_nodes),
                 "ns");
    const double count_ms = median(&Tally::count_ms);
    env.SetLayer("core.count_ms", count_ms, "ms");
    env.SetLayer("core.count_statuses", static_cast<double>(first_.count_statuses), "count");
    env.SetLayer("core.count_ns_per_status",
                 count_ms * 1e6 / static_cast<double>(first_.count_statuses), "ns");
    const double serial = median(&Tally::goal5_serial_ms);
    const double parallel = median(&Tally::goal5_2t_ms);
    env.SetLayer("exec.goal5_serial_ms", serial, "ms");
    env.SetLayer("exec.goal5_2t_ms", parallel, "ms");
    env.SetLayer("exec.speedup_2t", serial / parallel, "x");
    env.SetLayer("graph.bytes_per_node",
                 static_cast<double>(first_.serial_graph_bytes) /
                     static_cast<double>(first_.serial_graph_nodes),
                 "B");
  }

 private:
  static EnrollmentStatus Empty(const data::BrandeisDataset& ds, int semesters) {
    return {data::StartTermForSpan(semesters), ds.catalog.NewCourseSet()};
  }

  /// A seeded walk to a mid-degree status `left` semesters before the
  /// deadline: 1-3 semesters of random 1-3-course loads. Five-semester
  /// students spent those semesters on electives only; the others picked
  /// from every option. Kept when the goal is reachable and its count falls
  /// in the stratum's band.
  std::optional<Student> DrawStudent(const data::BrandeisDataset& ds, const DynamicBitset& core,
                                     const Stratum& stratum, Rng* rng) const {
    const int left = stratum.left;
    const Term target = end_.Plus(-left);
    Term term = target.Plus(-(1 + rng->Below(3)));
    DynamicBitset completed = ds.catalog.NewCourseSet();
    for (; term < target; term = term.Next()) {
      DynamicBitset options = ComputeOptions(ds.catalog, ds.schedule, completed, term, {});
      if (left == 5) options.Subtract(core);
      std::vector<int> ids = options.ToIndices();
      rng->Shuffle(&ids);
      const int take = std::min(static_cast<int>(ids.size()), 1 + rng->Below(kMaxLoad));
      for (int k = 0; k < take; ++k) completed.set(ids[static_cast<size_t>(k)]);
    }
    ExplorationOptions options;
    options.limits.max_nodes = stratum.max_statuses + 1;
    auto count = CountGoalDrivenPaths(ds.catalog, ds.schedule, {target, completed}, end_,
                                      *ds.cs_major, options);
    if (!count.ok() || count->goal_paths == 0 ||
        count->distinct_statuses < stratum.min_statuses) {
      return std::nullopt;
    }
    return Student{{target, std::move(completed)}, left};
  }

  ExplorationRequest GoalRequest(const EnrollmentStatus& start, int threads) const {
    ExplorationRequest request;
    request.start = start;
    request.end_term = end_;
    request.type = TaskType::kGoalDriven;
    request.goal = goal_;
    request.options.num_threads = threads;
    return request;
  }
  ExplorationRequest DeadlineRequest(const EnrollmentStatus& start) const {
    ExplorationRequest request;
    request.start = start;
    request.end_term = end_;
    return request;
  }
  ExplorationRequest RankedRequest(const EnrollmentStatus& start, int k) const {
    ExplorationRequest request = GoalRequest(start, 0);
    request.type = TaskType::kRanked;
    request.ranking = ranking_;
    request.top_k = k;
    return request;
  }

  void Execute(Env& env, const char* span, const ExplorationRequest& request,
               std::optional<ExplorationResponse>* out, double* run_ms) {
    env.Op(span, [&] {
      auto response = plan::Execute(env.dataset.catalog, env.dataset.schedule, request);
      if (!response.ok()) return false;
      const Status& termination = response->generation ? response->generation->termination
                                                       : response->ranked->termination;
      if (!termination.ok()) return false;
      *out = std::move(*response);
      return true;
    });
    *run_ms += env.op_ms.back();
  }

  void Count(Env& env, const EnrollmentStatus& start, bool goal,
             std::optional<CountingResult>* out, Tally* tally) {
    const data::BrandeisDataset& ds = env.dataset;
    env.Op(goal ? "core::CountGoalDrivenPaths" : "core::CountDeadlineDrivenPaths", [&] {
      auto count = goal ? CountGoalDrivenPaths(ds.catalog, ds.schedule, start, end_,
                                               *ds.cs_major, {})
                        : CountDeadlineDrivenPaths(ds.catalog, ds.schedule, start, end_, {});
      if (!count.ok()) return false;
      *out = *count;
      return true;
    });
    tally->count_ms += env.op_ms.back();
    if (*out) tally->count_statuses += (*out)->distinct_statuses;
  }

  static void Record(const std::optional<ExplorationResponse>& response, Tally* tally,
                     bool serial_graph) {
    if (!response) {
      tally->work.push_back(-1);
      return;
    }
    const ExplorationStats& stats =
        response->generation ? response->generation->stats : response->ranked->stats;
    tally->work.push_back(stats.nodes_created);
    tally->nodes_created += stats.nodes_created;
    tally->nodes_expanded += stats.nodes_expanded;
    tally->pruned_time += stats.pruned_time;
    tally->pruned_availability += stats.pruned_availability;
    if (serial_graph && response->generation) {
      tally->serial_graph_nodes += response->generation->graph.num_nodes();
      tally->serial_graph_bytes += response->generation->graph.MemoryUsage();
    }
  }

  static void Report(Env& env, const std::string& what, const std::string& error) {
    if (!error.empty()) env.Fail(what + ": " + error);
  }

  void CheckStudent(Env& env, const Student& s, const ExplorationResponse& graph,
                    const CountingResult& count, const ExplorationResponse& ranked) {
    const std::string who = "student " + s.status.term.ToShortString() + " " +
                            env.dataset.catalog.CourseSetToString(s.status.completed);
    const GraphTally tally = TallyGraph(graph.generation->graph);
    Report(env, who, CheckGraphTotals(tally, count.total_paths, count.goal_paths));
    const uint64_t start = PlainCatalog::Mask(s.status.completed);
    std::optional<NaiveCounts> naive;
    if (s.left <= 3) {
      naive = NaiveEnumerate(*plain_, s.status.term, start, end_, kMaxLoad, true);
      Report(env, who + " goal", CheckNaive(*naive, count.total_paths, count.goal_paths, false));
      const NaiveCounts deadline =
          NaiveEnumerate(*plain_, s.status.term, start, end_, kMaxLoad, false);
      auto program = CountDeadlineDrivenPaths(env.dataset.catalog, env.dataset.schedule,
                                              s.status, end_, {});
      if (!program.ok()) return env.Fail(who + " deadline count: " + program.status().ToString());
      Report(env, who + " deadline",
             CheckNaive(deadline, program->total_paths, program->goal_paths, true));
    }
    Report(env, who + " ranked",
           CheckRanked(*plain_, ranked.ranked->paths, start, end_, kMaxLoad, 5,
                       naive ? &*naive : nullptr));
  }

  std::unique_ptr<PlainCatalog> plain_;
  Term end_;
  std::shared_ptr<const RankingFunction> ranking_;
  std::shared_ptr<const Goal> goal_;
  std::vector<Student> students_;
  Tally first_;
  std::vector<Tally> rounds_;
};

}  // namespace

std::unique_ptr<Workload> MakeCohortBatch() { return std::make_unique<CohortBatch>(); }

}  // namespace perfbench
