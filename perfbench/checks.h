// Correctness checks of the benchmark. Each checker compares a program
// output against a computation made apart from the program (a naive
// enumerator written from the paper's path definition, the raw offering
// table and prerequisite trees) or against a property the method must have.
// Checkers return an empty string on success and a description otherwise,
// so the self-test can feed them hand-corrupted outputs.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/brandeis_cs.h"
#include "graph/learning_graph.h"
#include "graph/path.h"
#include "serve/server.h"
#include "util/json.h"

namespace perfbench {

/// The bundled dataset re-read into plain course masks (38 courses fit one
/// word): offerings per term and prerequisite trees, resolved once.
class PlainCatalog {
 public:
  explicit PlainCatalog(const coursenav::data::BrandeisDataset& dataset);

  int size() const { return size_; }
  bool Offered(int course, coursenav::Term term) const;
  uint64_t OfferedMask(coursenav::Term term) const;
  bool PrereqMet(int course, uint64_t completed) const;
  /// The CS major, transcribed: all 7 core courses and at least 5 of the
  /// 31 electives (the two groups are disjoint, so no allocation is
  /// needed).
  bool MajorDone(uint64_t completed) const;
  static uint64_t Mask(const coursenav::DynamicBitset& set);

 private:
  struct Node {
    int kind = 0;  // 0 const, 1 var, 2 not, 3 and, 4 or
    bool value = true;
    int course = -1;
    std::vector<int> children;
  };
  int Build(const coursenav::expr::Expr& expr,
            const coursenav::data::BrandeisDataset& dataset);
  bool Eval(int node, uint64_t completed) const;

  int size_ = 0;
  coursenav::Term first_;
  std::vector<uint64_t> offered_;  // by term offset from first_
  std::vector<Node> nodes_;
  std::vector<int> roots_;  // per course
  uint64_t core_ = 0;
  uint64_t electives_ = 0;
};

/// Counts of the naive enumeration: every root-to-leaf path, the goal
/// paths, and the goal paths by length in semesters.
struct NaiveCounts {
  uint64_t total = 0;
  uint64_t goal = 0;
  std::vector<uint64_t> goal_by_length;
};

/// The paper's path definition, enumerated without memo or pruning: from
/// (term, X) elect any W of 1..m courses that are offered in `term`, not
/// completed and whose prerequisites X meets; elect nothing only when no
/// course is electable but some uncompleted course is still offered before
/// `end`. A path ends when the goal holds (goal mode), at `end`, or when
/// it cannot continue.
NaiveCounts NaiveEnumerate(const PlainCatalog& catalog, coursenav::Term term,
                           uint64_t completed, coursenav::Term end, int m,
                           bool goal_mode);

/// Leaf tally of a materialized graph, counted by walking its nodes.
struct GraphTally {
  int64_t nodes = 0;
  int64_t edges = 0;
  int64_t leaves = 0;
  int64_t goal_leaves = 0;
};
GraphTally TallyGraph(const coursenav::LearningGraph& graph);

std::string CheckGraphTotals(const GraphTally& graph, uint64_t count_total,
                             uint64_t count_goal);
std::string CheckSameGraph(const GraphTally& serial, const GraphTally& parallel);
std::string CheckNaive(const NaiveCounts& naive, uint64_t program_total,
                       uint64_t program_goal, bool compare_total);
/// Time-ranked top-k: costs non-decreasing, each path feasible (offered,
/// prerequisites met, at most m courses) and ending at the CS major by
/// `end`. With `naive` given, the costs must be the k smallest goal-path
/// lengths.
std::string CheckRanked(const PlainCatalog& catalog,
                        const std::vector<coursenav::LearningPath>& paths,
                        uint64_t start_completed, coursenav::Term end, int m,
                        size_t k, const NaiveCounts* naive);

std::string CheckEvaluateSum(uint64_t sum_surviving, uint64_t remaining_before);
std::string CheckAfterCommit(uint64_t remaining_after, uint64_t committed_surviving);
std::string CheckAfterUndo(uint64_t remaining_after_undo, uint64_t remaining_before);

std::string CheckOutcomeOk(const coursenav::JsonValue& response);
/// Summary counts against library counts: terminal and goal paths, and a
/// tree's edge count.
std::string CheckSummary(const coursenav::JsonValue& result, int64_t total,
                         int64_t goal, int64_t paths_returned);
std::string CheckWarmEqualsCold(const std::string& warm, const std::string& cold);
std::string CheckFullPayload(const coursenav::JsonValue& result);
std::string CheckServerStats(const coursenav::serve::ServerStats& stats,
                             int64_t client_sent);

/// Feeds every checker a valid and a hand-corrupted output; returns the
/// checkers that failed to tell them apart.
std::vector<std::string> SelfTest(const coursenav::data::BrandeisDataset& dataset,
                                  const PlainCatalog& catalog);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
