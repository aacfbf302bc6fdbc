// session_walk: seeded students drive ExplorationSession from S13 or F13 to
// the F15 deadline. Each semester they ask RemainingGoalPaths,
// EvaluateSelections and TopK(time), then commit a seeded pick from the
// evaluated selections (with the occasional Undo and Avoid). The cohort moves
// through the calendar together: every student still enrolled takes their
// turn in a term before anyone moves on to the next. All counts go through
// the process-wide count tier, cleared at the start of every round.
// An op is one query; mutations are performed and their failures counted,
// but not timed. Most of the time goes to path counting and the shared
// count tier over heavily overlapping statuses.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/request_cache.h"
#include "checks.h"
#include "common.h"
#include "service/session.h"

namespace perfbench {
namespace {

using namespace coursenav;

/// Students per round, alternating S13 and F13 starts. Their queries in
/// S13, F13 and S14 are the same for every seed (see Step) and, since the
/// cohort moves term by term, run against the same count-tier contents
/// whatever the seed: they hold the costliest queries, so the latency tail
/// does not move with the seed.
constexpr int kStudents = 8;
constexpr int kMaxCandidates = 32;
constexpr int kTopK = 5;
constexpr int kMaxLoad = 3;

struct Tally {
  std::vector<int64_t> work;  // per-query answers, compared across rounds
  int64_t candidates = 0;
  int64_t topk_nodes = 0, topk_expanded = 0, topk_pruned_time = 0, topk_pruned_availability = 0;
  int64_t count_hits = 0, count_misses = 0;
};

/// Number of selections of 1..m courses out of n options.
int64_t Selections(int n, int m) {
  int64_t total = 0, choose = 1;
  for (int k = 1; k <= m && k <= n; ++k) {
    choose = choose * (n - k + 1) / k;
    total += choose;
  }
  return total;
}

struct Walker {
  std::unique_ptr<ExplorationSession> session;
  Rng rng;
  int undo_semester = 0;
  int64_t expected = -1;  // surviving count of the last commit
};

class SessionWalk : public Workload {
 public:
  void Setup(Env& env) override {
    const Clock::time_point draw_start = Clock::now();
    Rng rng(env.args.seed * 0xd1b54a32d192ed03ULL + 37);
    for (int i = 0; i < kStudents; ++i) seeds_.push_back(rng.Next());
    env.inputs_ms += MsSince(draw_start);
    ranking_ = std::make_shared<const TimeRanking>();
    // Warm-up: one student's first semester of queries; main() clears
    // the count tier afterwards.
    const data::BrandeisDataset& ds = env.dataset;
    ExplorationSession session(&ds.catalog, &ds.schedule, ds.cs_major,
                               {StartTerm(0), ds.catalog.NewCourseSet()},
                               data::EvaluationEndTerm());
    if (!session.RemainingGoalPaths().ok() || !session.EvaluateSelections(kMaxCandidates).ok() ||
        !session.TopK(*ranking_, kTopK).ok()) {
      env.Fail("warm-up session queries failed");
    }
  }

  void Round(Env& env, int round) override {
    cache::RequestCache::Global().Clear();
    const cache::CacheStats before = cache::RequestCache::Global().Stats();
    Tally tally;
    const data::BrandeisDataset& ds = env.dataset;
    const Term end = data::EvaluationEndTerm();
    std::vector<Walker> walkers;
    for (size_t i = 0; i < seeds_.size(); ++i) {
      Walker w{std::make_unique<ExplorationSession>(
                   &ds.catalog, &ds.schedule, ds.cs_major,
                   EnrollmentStatus{StartTerm(i), ds.catalog.NewCourseSet()}, end),
               Rng(seeds_[i])};
      // Every walk runs to the deadline (a student who already meets the
      // goal keeps enrolling) and tries-and-undoes exactly one pick, in a
      // seeded semester between the third and the last but one: each round
      // then asks the same number of queries whatever the seed.
      w.undo_semester = 2 + w.rng.Below((end - StartTerm(i)) - 3);
      walkers.push_back(std::move(w));
    }
    for (Term term = StartTerm(0); term < end; term = term.Next()) {
      // Within a term, students with fewer semesters behind them go first,
      // so every seed-independent semester runs before any seeded one.
      std::vector<Walker*> turn;
      for (Walker& w : walkers) {
        if (w.session->status().term == term) turn.push_back(&w);
      }
      std::stable_sort(turn.begin(), turn.end(), [](const Walker* a, const Walker* b) {
        return a->session->history().size() < b->session->history().size();
      });
      for (Walker* w : turn) Step(env, round, w, &tally);
    }
    const cache::CacheStats after = cache::RequestCache::Global().Stats();
    tally.count_hits = after.count_hits - before.count_hits;
    tally.count_misses = after.count_misses - before.count_misses;
    if (round == 1) {
      first_ = tally;
    } else if (tally.work != first_.work) {
      env.Fail("round " + std::to_string(round) + " did different work than round 1");
    }
  }

  void Layers(Env& env) override {
    env.SetLayer("service.remaining_ms", Median(remaining_ms_), "ms");
    env.SetLayer("service.evaluate_ms", Median(evaluate_ms_), "ms");
    env.SetLayer("service.topk_ms", Median(topk_ms_), "ms");
    env.SetLayer("service.evaluate_candidates", static_cast<double>(first_.candidates), "count");
    env.SetLayer("cache.count_hits", static_cast<double>(first_.count_hits), "count");
    env.SetLayer("cache.count_misses", static_cast<double>(first_.count_misses), "count");
    env.SetLayer("core.nodes_created", static_cast<double>(first_.topk_nodes), "count");
    env.SetLayer("core.nodes_expanded", static_cast<double>(first_.topk_expanded), "count");
    env.SetLayer("core.pruned_time", static_cast<double>(first_.topk_pruned_time), "count");
    env.SetLayer("core.pruned_availability",
                 static_cast<double>(first_.topk_pruned_availability), "count");
  }

 private:
  /// Students alternate between S13 and F13 starts, so every seed has the
  /// same mix of 5- and 4-semester walks.
  static Term StartTerm(size_t student) {
    return data::StartTermForSpan(student % 2 == 0 ? 5 : 4);
  }

  /// RemainingGoalPaths as a timed op; -1 when it failed.
  int64_t Remaining(Env& env, ExplorationSession* session, Tally* tally) {
    int64_t value = -1;
    env.Op("service::ExplorationSession::RemainingGoalPaths", [&] {
      auto remaining = session->RemainingGoalPaths();
      if (remaining.ok()) value = static_cast<int64_t>(*remaining);
      return remaining.ok();
    });
    remaining_ms_.push_back(env.op_ms.back());
    tally->work.push_back(value);
    return value;
  }

  void Mutation(Env& env, const Status& status, const std::string& what) {
    ++env.attempted;
    if (!status.ok()) {
      ++env.failed;
      env.Fail(what + ": " + status.ToString());
    }
  }

  /// One student's semester: queries, then a commit (and in the seeded
  /// undo semester a tried pick taken back first).
  void Step(Env& env, int round, Walker* w, Tally* tally) {
    const data::BrandeisDataset& ds = env.dataset;
    ExplorationSession& session = *w->session;
    Rng& rng = w->rng;
    auto report = [&](const std::string& error) {
      if (round == 1 && !error.empty()) env.Fail(error);
    };
    // Picks are seeded from S14 on; before that every student takes the
    // selection that keeps the most paths open.
    const bool seeded = session.status().term >= data::StartTermForSpan(3);
    if (seeded && session.status().term > data::StartTermForSpan(3) && rng.Chance(1, 4)) {
      // After the first seeded pick, rule out one uncompleted elective for
      // the rest of the walk.
      std::vector<int> open;
      for (const std::string& code : ds.elective_codes) {
        if (!session.status().completed.test(*ds.catalog.FindByCode(code))) {
          open.push_back(*ds.catalog.FindByCode(code));
        }
      }
      if (!open.empty()) {
        const std::string code = ds.catalog.course(open[static_cast<size_t>(rng.Below(
                                                        static_cast<int>(open.size())))]).code;
        Mutation(env, session.Avoid(code), "Avoid " + code);
        w->expected = -1;  // the avoided course changes the count
      }
    }
    const int64_t remaining = Remaining(env, &session, tally);
    if (w->expected >= 0) {
      report(CheckAfterCommit(static_cast<uint64_t>(remaining),
                              static_cast<uint64_t>(w->expected)));
    }

    std::vector<SelectionImpact> impacts;
    env.Op("service::ExplorationSession::EvaluateSelections", [&] {
      auto evaluated = session.EvaluateSelections(kMaxCandidates);
      if (evaluated.ok()) impacts = std::move(*evaluated);
      return evaluated.ok();
    });
    evaluate_ms_.push_back(env.op_ms.back());
    tally->candidates += static_cast<int64_t>(impacts.size());
    uint64_t sum = 0;
    for (const SelectionImpact& impact : impacts) {
      sum += impact.surviving_goal_paths;
      tally->work.push_back(static_cast<int64_t>(impact.surviving_goal_paths));
    }
    const int options = session.CurrentOptions().count();
    // Once the goal holds a path ends there, so the sum only adds up
    // before that.
    if (!session.GoalReached() && options > 0 &&
        Selections(options, kMaxLoad) <= kMaxCandidates) {
      report(CheckEvaluateSum(sum, static_cast<uint64_t>(remaining)));
    }

    env.Op("service::ExplorationSession::TopK", [&] {
      auto top = session.TopK(*ranking_, kTopK);
      if (!top.ok()) return false;
      tally->work.push_back(static_cast<int64_t>(top->paths.size()));
      tally->topk_nodes += top->stats.nodes_created;
      tally->topk_expanded += top->stats.nodes_expanded;
      tally->topk_pruned_time += top->stats.pruned_time;
      tally->topk_pruned_availability += top->stats.pruned_availability;
      return true;
    });
    topk_ms_.push_back(env.op_ms.back());

    if (impacts.empty()) {
      Mutation(env, session.Commit({}), "Commit (skip)");
      w->expected = -1;
      return;
    }
    // Seeded pick among the best few selections that keep the goal open.
    int viable = 0;
    while (viable < static_cast<int>(impacts.size()) && viable < 4 &&
           impacts[static_cast<size_t>(viable)].surviving_goal_paths > 0) {
      ++viable;
    }
    auto pick = [&] {
      return static_cast<size_t>(rng.Below(viable > 0 ? viable : static_cast<int>(impacts.size())));
    };
    auto codes = [&](const DynamicBitset& selection) {
      std::vector<std::string> out;
      selection.ForEach([&](int id) { out.push_back(ds.catalog.course(id).code); });
      return out;
    };
    if (static_cast<int>(session.history().size()) == w->undo_semester) {
      // Try one pick, look at what is left, and take it back.
      const SelectionImpact& tried = impacts[pick()];
      Mutation(env, session.Commit(codes(tried.selection)), "Commit (tried)");
      const int64_t after = Remaining(env, &session, tally);
      report(CheckAfterCommit(static_cast<uint64_t>(after), tried.surviving_goal_paths));
      Mutation(env, session.Undo(), "Undo");
      const int64_t undone = Remaining(env, &session, tally);
      report(CheckAfterUndo(static_cast<uint64_t>(undone), static_cast<uint64_t>(remaining)));
    }
    const SelectionImpact& chosen = seeded ? impacts[pick()] : impacts[0];
    Mutation(env, session.Commit(codes(chosen.selection)), "Commit");
    w->expected = static_cast<int64_t>(chosen.surviving_goal_paths);
  }

  std::vector<uint64_t> seeds_;
  std::shared_ptr<const RankingFunction> ranking_;
  Tally first_;
  std::vector<double> remaining_ms_, evaluate_ms_, topk_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeSessionWalk() { return std::make_unique<SessionWalk>(); }

}  // namespace perfbench
