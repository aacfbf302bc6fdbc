#include "checks.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "graph/export.h"
#include "plan/executor.h"

namespace perfbench {

using coursenav::DynamicBitset;
using coursenav::JsonValue;
using coursenav::Term;

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

int64_t IntField(const JsonValue& object, const char* key) {
  if (!object.Has(key)) return -1;
  auto value = object.Get(key);
  if (!value.ok()) return -1;
  auto number = value->GetInt();
  return number.ok() ? *number : -1;
}

size_t ArraySize(const JsonValue& object, const char* key) {
  if (!object.Has(key)) return 0;
  auto value = object.Get(key);
  return value.ok() && value->is_array() ? value->array().size() : 0;
}

std::string Mismatch(const char* what, int64_t got, int64_t want) {
  return std::string(what) + ": got " + std::to_string(got) + ", want " +
         std::to_string(want);
}

}  // namespace

PlainCatalog::PlainCatalog(const coursenav::data::BrandeisDataset& dataset)
    : size_(dataset.catalog.size()), first_(dataset.schedule.first_term()) {
  if (size_ > 64) Die("the plain catalog holds at most 64 courses");
  const Term last = dataset.schedule.last_term();
  for (Term t = first_; t <= last; t = t.Next()) {
    uint64_t mask = 0;
    for (int c = 0; c < size_; ++c) {
      if (dataset.schedule.IsOffered(c, t)) mask |= uint64_t{1} << c;
    }
    offered_.push_back(mask);
  }
  for (int c = 0; c < size_; ++c) {
    roots_.push_back(Build(dataset.catalog.course(c).prerequisites, dataset));
  }
  for (const std::string& code : dataset.core_codes) {
    core_ |= uint64_t{1} << *dataset.catalog.FindByCode(code);
  }
  for (const std::string& code : dataset.elective_codes) {
    electives_ |= uint64_t{1} << *dataset.catalog.FindByCode(code);
  }
}

int PlainCatalog::Build(const coursenav::expr::Expr& expr,
                        const coursenav::data::BrandeisDataset& dataset) {
  using Kind = coursenav::expr::Expr::Kind;
  Node node;
  switch (expr.kind()) {
    case Kind::kConst:
      node.kind = 0;
      node.value = expr.const_value();
      break;
    case Kind::kVar: {
      node.kind = 1;
      auto id = dataset.catalog.FindByCode(expr.var_name());
      if (!id.ok()) Die("unresolved prerequisite " + expr.var_name());
      node.course = *id;
      break;
    }
    case Kind::kNot:
    case Kind::kAnd:
    case Kind::kOr:
      node.kind = expr.kind() == Kind::kNot ? 2 : expr.kind() == Kind::kAnd ? 3 : 4;
      for (const auto& operand : expr.operands()) {
        node.children.push_back(Build(operand, dataset));
      }
      break;
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

bool PlainCatalog::Eval(int index, uint64_t completed) const {
  const Node& node = nodes_[static_cast<size_t>(index)];
  switch (node.kind) {
    case 0:
      return node.value;
    case 1:
      return (completed >> node.course) & 1;
    case 2:
      return !Eval(node.children[0], completed);
    case 3:
      for (int child : node.children) {
        if (!Eval(child, completed)) return false;
      }
      return true;
    default:
      for (int child : node.children) {
        if (Eval(child, completed)) return true;
      }
      return false;
  }
}

uint64_t PlainCatalog::OfferedMask(Term term) const {
  const int k = term - first_;
  if (k < 0 || k >= static_cast<int>(offered_.size())) return 0;
  return offered_[static_cast<size_t>(k)];
}

bool PlainCatalog::Offered(int course, Term term) const {
  return (OfferedMask(term) >> course) & 1;
}

bool PlainCatalog::PrereqMet(int course, uint64_t completed) const {
  return Eval(roots_[static_cast<size_t>(course)], completed);
}

bool PlainCatalog::MajorDone(uint64_t completed) const {
  return (completed & core_) == core_ && std::popcount(completed & electives_) >= 5;
}

uint64_t PlainCatalog::Mask(const DynamicBitset& set) {
  uint64_t mask = 0;
  set.ForEach([&](int id) { mask |= uint64_t{1} << id; });
  return mask;
}

namespace {

struct Enumerator {
  const PlainCatalog& catalog;
  Term end;
  int m;
  bool goal_mode;
  NaiveCounts counts;

  void Leaf(bool goal, int length) {
    ++counts.total;
    if (!goal) return;
    ++counts.goal;
    if (counts.goal_by_length.size() <= static_cast<size_t>(length)) {
      counts.goal_by_length.resize(static_cast<size_t>(length) + 1, 0);
    }
    ++counts.goal_by_length[static_cast<size_t>(length)];
  }

  void Walk(Term term, uint64_t completed, int length) {
    if (goal_mode && catalog.MajorDone(completed)) return Leaf(true, length);
    if (term == end) return Leaf(!goal_mode, length);
    uint64_t electable = 0;
    const uint64_t offered = catalog.OfferedMask(term) & ~completed;
    for (int c = 0; c < catalog.size(); ++c) {
      if (((offered >> c) & 1) && catalog.PrereqMet(c, completed)) {
        electable |= uint64_t{1} << c;
      }
    }
    if (electable == 0) {
      uint64_t later = 0;
      for (Term t = term.Next(); t < end; t = t.Next()) later |= catalog.OfferedMask(t);
      if ((later & ~completed) != 0) return Walk(term.Next(), completed, length + 1);
      return Leaf(false, length);
    }
    std::vector<int> ids;
    for (int c = 0; c < catalog.size(); ++c) {
      if ((electable >> c) & 1) ids.push_back(c);
    }
    // Every selection of 1..m distinct electable courses.
    std::function<void(size_t, uint64_t, int)> choose = [&](size_t from, uint64_t picked,
                                                            int size) {
      if (size > 0) Walk(term.Next(), completed | picked, length + 1);
      if (size == m) return;
      for (size_t i = from; i < ids.size(); ++i) {
        choose(i + 1, picked | (uint64_t{1} << ids[i]), size + 1);
      }
    };
    choose(0, 0, 0);
  }
};

}  // namespace

NaiveCounts NaiveEnumerate(const PlainCatalog& catalog, Term term, uint64_t completed,
                           Term end, int m, bool goal_mode) {
  Enumerator e{catalog, end, m, goal_mode, {}};
  e.Walk(term, completed, 0);
  return e.counts;
}

GraphTally TallyGraph(const coursenav::LearningGraph& graph) {
  GraphTally tally;
  tally.nodes = graph.num_nodes();
  tally.edges = graph.num_edges();
  for (coursenav::NodeId id = 0; id < graph.num_nodes(); ++id) {
    const coursenav::LearningNode& node = graph.node(id);
    if (!node.out_edges.empty()) continue;
    ++tally.leaves;
    if (node.is_goal) ++tally.goal_leaves;
  }
  return tally;
}

std::string CheckGraphTotals(const GraphTally& graph, uint64_t count_total,
                             uint64_t count_goal) {
  if (graph.leaves != static_cast<int64_t>(count_total)) {
    return Mismatch("graph leaves vs counted paths", graph.leaves,
                    static_cast<int64_t>(count_total));
  }
  if (graph.goal_leaves != static_cast<int64_t>(count_goal)) {
    return Mismatch("graph goal leaves vs counted goal paths", graph.goal_leaves,
                    static_cast<int64_t>(count_goal));
  }
  return "";
}

std::string CheckSameGraph(const GraphTally& serial, const GraphTally& parallel) {
  if (serial.nodes != parallel.nodes) return Mismatch("2-thread nodes", parallel.nodes, serial.nodes);
  if (serial.edges != parallel.edges) return Mismatch("2-thread edges", parallel.edges, serial.edges);
  if (serial.leaves != parallel.leaves) return Mismatch("2-thread leaves", parallel.leaves, serial.leaves);
  if (serial.goal_leaves != parallel.goal_leaves) {
    return Mismatch("2-thread goal leaves", parallel.goal_leaves, serial.goal_leaves);
  }
  return "";
}

std::string CheckNaive(const NaiveCounts& naive, uint64_t program_total,
                       uint64_t program_goal, bool compare_total) {
  if (compare_total && naive.total != program_total) {
    return Mismatch("naive paths", static_cast<int64_t>(program_total),
                    static_cast<int64_t>(naive.total));
  }
  if (naive.goal != program_goal) {
    return Mismatch("naive goal paths", static_cast<int64_t>(program_goal),
                    static_cast<int64_t>(naive.goal));
  }
  return "";
}

std::string CheckRanked(const PlainCatalog& catalog,
                        const std::vector<coursenav::LearningPath>& paths,
                        uint64_t start_completed, Term end, int m, size_t k,
                        const NaiveCounts* naive) {
  double previous = 0;
  for (size_t p = 0; p < paths.size(); ++p) {
    const coursenav::LearningPath& path = paths[p];
    const std::string at = "ranked path " + std::to_string(p) + ": ";
    if (p > 0 && path.cost() < previous) return at + "cost decreases";
    previous = path.cost();
    if (PlainCatalog::Mask(path.start_completed()) != start_completed) {
      return at + "wrong start status";
    }
    uint64_t completed = start_completed;
    Term term = path.start_term();
    for (const coursenav::PathStep& step : path.steps()) {
      if (step.term != term) return at + "semesters not consecutive";
      const uint64_t selection = PlainCatalog::Mask(step.selection);
      if (std::popcount(selection) > m) return at + "load above m";
      if (selection & completed) return at + "course taken twice";
      for (int c = 0; c < catalog.size(); ++c) {
        if (!((selection >> c) & 1)) continue;
        if (!catalog.Offered(c, term)) return at + "course not offered that term";
        if (!catalog.PrereqMet(c, completed)) return at + "prerequisites not met";
      }
      completed |= selection;
      term = term.Next();
    }
    if (term > end) return at + "ends after the deadline";
    if (!catalog.MajorDone(completed)) return at + "does not reach the goal";
    if (path.cost() != static_cast<double>(path.Length())) {
      return at + "time cost differs from its length";
    }
  }
  if (naive != nullptr) {
    std::vector<double> want;
    for (size_t len = 0; len < naive->goal_by_length.size() && want.size() < k; ++len) {
      for (uint64_t n = 0; n < naive->goal_by_length[len] && want.size() < k; ++n) {
        want.push_back(static_cast<double>(len));
      }
    }
    if (want.size() != paths.size()) {
      return Mismatch("ranked paths returned", static_cast<int64_t>(paths.size()),
                      static_cast<int64_t>(want.size()));
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (paths[i].cost() != want[i]) return "ranked costs are not the k shortest";
    }
  }
  return "";
}

std::string CheckEvaluateSum(uint64_t sum_surviving, uint64_t remaining_before) {
  if (sum_surviving == remaining_before) return "";
  return Mismatch("sum of surviving goal paths vs remaining", static_cast<int64_t>(sum_surviving),
                  static_cast<int64_t>(remaining_before));
}

std::string CheckAfterCommit(uint64_t remaining_after, uint64_t committed_surviving) {
  if (remaining_after == committed_surviving) return "";
  return Mismatch("remaining after commit vs surviving", static_cast<int64_t>(remaining_after),
                  static_cast<int64_t>(committed_surviving));
}

std::string CheckAfterUndo(uint64_t remaining_after_undo, uint64_t remaining_before) {
  if (remaining_after_undo == remaining_before) return "";
  return Mismatch("remaining after undo", static_cast<int64_t>(remaining_after_undo),
                  static_cast<int64_t>(remaining_before));
}

std::string CheckOutcomeOk(const JsonValue& response) {
  auto outcome = response.Get("outcome");
  if (!outcome.ok()) return "response has no outcome";
  auto name = outcome->GetString();
  if (!name.ok() || *name != "ok") {
    return "outcome " + (name.ok() ? *name : std::string("?")) + ": " + response.Dump();
  }
  return "";
}

std::string CheckSummary(const JsonValue& result, int64_t total, int64_t goal,
                         int64_t paths_returned) {
  if (result.Has("nodes")) {
    if (IntField(result, "terminal_paths") != total) {
      return Mismatch("summary terminal_paths", IntField(result, "terminal_paths"), total);
    }
    if (IntField(result, "goal_paths") != goal) {
      return Mismatch("summary goal_paths", IntField(result, "goal_paths"), goal);
    }
    if (IntField(result, "edges") != IntField(result, "nodes") - 1) {
      return Mismatch("summary edges", IntField(result, "edges"), IntField(result, "nodes") - 1);
    }
  } else if (IntField(result, "paths_returned") != paths_returned) {
    return Mismatch("summary paths_returned", IntField(result, "paths_returned"), paths_returned);
  }
  return "";
}

std::string CheckWarmEqualsCold(const std::string& warm, const std::string& cold) {
  if (warm == cold) return "";
  return "warm answer differs from the cold one (" + std::to_string(warm.size()) + " vs " +
         std::to_string(cold.size()) + " bytes)";
}

std::string CheckFullPayload(const JsonValue& result) {
  auto graph = result.Get("graph");
  if (!graph.ok()) return "full payload has no graph";
  const int64_t nodes = IntField(result, "nodes");
  if (static_cast<int64_t>(ArraySize(*graph, "nodes")) != nodes) {
    return Mismatch("full payload nodes", static_cast<int64_t>(ArraySize(*graph, "nodes")), nodes);
  }
  if (static_cast<int64_t>(ArraySize(*graph, "edges")) != nodes - 1) {
    return Mismatch("full payload edges", static_cast<int64_t>(ArraySize(*graph, "edges")),
                    nodes - 1);
  }
  return "";
}

std::string CheckServerStats(const coursenav::serve::ServerStats& s, int64_t client_sent) {
  const int64_t buckets = s.shed + s.rejected + s.ok + s.degraded + s.timeout + s.cancelled +
                          s.slow_client + s.failed;
  if (buckets != s.submitted) return Mismatch("terminal buckets vs submitted", buckets, s.submitted);
  if (s.submitted != client_sent) return Mismatch("server submitted vs client tally", s.submitted, client_sent);
  return "";
}

std::vector<std::string> SelfTest(const coursenav::data::BrandeisDataset& dataset,
                                  const PlainCatalog& catalog) {
  std::vector<std::string> broken;
  auto expect = [&](const char* name, const std::string& valid, const std::string& corrupt) {
    if (!valid.empty()) broken.push_back(std::string(name) + " rejects a valid output: " + valid);
    if (corrupt.empty()) broken.push_back(std::string(name) + " accepts a corrupted output");
  };

  const GraphTally tally{5, 4, 3, 2};
  expect("CheckGraphTotals", CheckGraphTotals(tally, 3, 2), CheckGraphTotals(tally, 4, 2));
  GraphTally off_by_one = tally;
  off_by_one.edges += 1;
  expect("CheckSameGraph", CheckSameGraph(tally, tally), CheckSameGraph(tally, off_by_one));
  const NaiveCounts naive{7, 3, {0, 1, 2}};
  expect("CheckNaive", CheckNaive(naive, 7, 3, true), CheckNaive(naive, 7, 4, true));

  // A real ranked answer: the last two core courses and two electives left,
  // three semesters before the deadline.
  const Term end = coursenav::data::EvaluationEndTerm();
  coursenav::ExplorationRequest request;
  request.start.term = end.Plus(-3);
  request.start.completed = *dataset.catalog.CourseSetFromCodes(
      {"COSI11A", "COSI12B", "COSI21A", "COSI21B", "COSI29A", "COSI2A", "COSI105A",
       "COSI116A"});
  request.end_term = end;
  request.type = coursenav::TaskType::kRanked;
  request.goal = dataset.cs_major;
  request.ranking = std::make_shared<const coursenav::TimeRanking>();
  request.top_k = 3;
  auto response = coursenav::plan::Execute(dataset.catalog, dataset.schedule, request);
  if (!response.ok() || !response->ranked.has_value() || response->ranked->paths.empty()) {
    broken.push_back("self-test ranked request failed");
  } else {
    const auto& paths = response->ranked->paths;
    const uint64_t start = PlainCatalog::Mask(request.start.completed);
    const NaiveCounts exact = NaiveEnumerate(catalog, request.start.term, start, end, 3, true);
    // Corruption: elect a course in a term that does not offer it.
    std::vector<coursenav::LearningPath> corrupt;
    for (const auto& path : paths) {
      coursenav::LearningPath copy(path.start_term(), path.start_completed());
      for (const auto& step : path.steps()) copy.AppendStep(step.term, step.selection);
      copy.set_cost(path.cost());
      corrupt.push_back(std::move(copy));
    }
    const Term first = corrupt[0].steps()[0].term;
    coursenav::LearningPath bad(corrupt[0].start_term(), corrupt[0].start_completed());
    for (size_t i = 0; i < corrupt[0].steps().size(); ++i) {
      DynamicBitset selection = corrupt[0].steps()[i].selection;
      if (i == 0) {
        for (int c = 0; c < catalog.size(); ++c) {
          if (!catalog.Offered(c, first) && !((start >> c) & 1)) {
            selection.set(c);
            break;
          }
        }
      }
      bad.AppendStep(corrupt[0].steps()[i].term, selection);
    }
    bad.set_cost(corrupt[0].cost());
    corrupt[0] = std::move(bad);
    expect("CheckRanked", CheckRanked(catalog, paths, start, end, 3, 3, &exact),
           CheckRanked(catalog, corrupt, start, end, 3, 3, &exact));
  }

  expect("CheckEvaluateSum", CheckEvaluateSum(10, 10), CheckEvaluateSum(10, 11));
  expect("CheckAfterCommit", CheckAfterCommit(4, 4), CheckAfterCommit(4, 5));
  expect("CheckAfterUndo", CheckAfterUndo(9, 9), CheckAfterUndo(8, 9));

  auto parse = [](const char* text) { return *JsonValue::Parse(text); };
  expect("CheckOutcomeOk", CheckOutcomeOk(parse(R"({"outcome":"ok"})")),
         CheckOutcomeOk(parse(R"({"outcome":"degraded"})")));
  expect("CheckSummary",
         CheckSummary(parse(R"({"nodes":3,"edges":2,"terminal_paths":2,"goal_paths":1})"), 2, 1, -1),
         CheckSummary(parse(R"({"nodes":3,"edges":2,"terminal_paths":2,"goal_paths":2})"), 2, 1, -1));
  expect("CheckWarmEqualsCold", CheckWarmEqualsCold("{\"a\":1}", "{\"a\":1}"),
         CheckWarmEqualsCold("{\"a\":1}", "{\"a\":2}"));

  // A real one-semester graph rendered the way the server renders it.
  coursenav::ExplorationRequest small;
  small.start.term = end.Prev();
  small.start.completed = dataset.catalog.NewCourseSet();
  small.end_term = end;
  auto graph = coursenav::plan::Execute(dataset.catalog, dataset.schedule, small);
  if (!graph.ok() || !graph->generation.has_value()) {
    broken.push_back("self-test graph request failed");
  } else {
    JsonValue::Object result;
    result["nodes"] = JsonValue(graph->generation->graph.num_nodes());
    result["graph"] = coursenav::LearningGraphToJson(graph->generation->graph, dataset.catalog);
    JsonValue valid(result);
    result["graph"].object()["edges"].array().pop_back();
    expect("CheckFullPayload", CheckFullPayload(valid), CheckFullPayload(JsonValue(result)));
  }

  coursenav::serve::ServerStats stats;
  stats.submitted = 3;
  stats.ok = 3;
  coursenav::serve::ServerStats lost = stats;
  lost.ok = 2;
  expect("CheckServerStats", CheckServerStats(stats, 3), CheckServerStats(lost, 3));
  return broken;
}

}  // namespace perfbench
