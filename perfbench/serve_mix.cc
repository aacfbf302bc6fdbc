// serve_mix: one closed-loop client sends a seeded envelope stream to the
// in-process ExplorationServer through Handle(), framing each request and
// response with EncodeFrame/DecodeFrameHeader. The stream is mostly repeated
// summary asks that hit the request cache, plus cold asks for distinct
// statuses, full-payload asks on 2-3-semester horizons, and goal and ranked
// asks with expression goals. An op is one request, frame in to frame out.
// Most of its time goes to the cache's clone on hit, graph export, JSON and
// the server, none of which cohort_batch touches.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/request_cache.h"
#include "checks.h"
#include "common.h"
#include "core/counting.h"
#include "graph/export.h"
#include "plan/planner.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using namespace coursenav;

/// The stream of one round: popular asks repeated with Zipf-like
/// popularity (the same for every seed, so the hit-dominated median and the
/// 4-semester hits near p90 keep their place), then seeded cold summaries,
/// full payloads (each sent cold, then warm) and expression-goal asks, in
/// one fixed order.
///
/// The proportions are chosen, not measured: there is no request trace of
/// real traffic to take them from. They give a 63% result-hit share, enough
/// for cache hits to hold the median op while misses and renders fill the
/// tail. Replace them with a measured mix once a trace exists.
constexpr int kHotRepeats[] = {30, 12, 8, 10};
constexpr int kColdAsks = 22;
constexpr int kFullAsks = 4;
constexpr int kExprAsks = 10;
constexpr uint64_t kStreamOrderSeed = 0x5eed;
/// Size bands of the seeded asks, in counted paths: a summary hit clones the
/// whole cached graph and a full payload renders it, so these bound both.
constexpr uint64_t kMaxSummaryPaths = 5'000;
constexpr uint64_t kMinFullPaths = 2'500;
constexpr uint64_t kMaxFullPaths = 5'000;
constexpr int64_t kMaxStatuses = 100'000;

const char* const kGoalSpecs[] = {
    "COSI12B and COSI21A",
    "COSI21B and COSI29A",
    "COSI30A or COSI35A",
    "COSI21B and (COSI101A or COSI107A or COSI109A)",
    "COSI12B and COSI21A and COSI29A and COSI2A",
    "(COSI35A and COSI12B) or COSI30A",
};

/// One distinct ask: its request document, how it is served, and the
/// library's answer computed outside the server.
struct Ask {
  JsonValue request;
  bool full = false;
  int64_t total = -1;
  int64_t goal = -1;
  int64_t paths_returned = -1;
};

struct Sent {
  int ask = 0;
  std::string tenant;
};

JsonValue CodesJson(const Catalog& catalog, const DynamicBitset& set) {
  JsonValue::Array codes;
  set.ForEach([&](int id) { codes.emplace_back(catalog.course(id).code); });
  return JsonValue(std::move(codes));
}

class ServeMix : public Workload {
 public:
  void Setup(Env& env) override {
    const data::BrandeisDataset& ds = env.dataset;
    end_ = data::EvaluationEndTerm();
    const Clock::time_point draw_start = Clock::now();
    Rng rng(env.args.seed * 0x9e3779b97f4a7c15ULL + 23);

    // Popular asks: a 3-semester deadline summary, a goal and a ranked ask
    // from the start of sophomore year, and the paper's 4-semester deadline
    // summary.
    const DynamicBitset none = ds.catalog.NewCourseSet();
    std::vector<int> hot;
    hot.push_back(AddAsk(env, Request(ds, {end_.Plus(-3), none}, "deadline"), false, 0, UINT64_MAX));
    JsonValue goal = Request(ds, {end_.Plus(-4), none}, "goal");
    goal.object()["goal"] = JsonValue(kGoalSpecs[0]);
    hot.push_back(AddAsk(env, goal, false, 0, UINT64_MAX));
    JsonValue ranked = Request(ds, {end_.Plus(-4), none}, "ranked");
    ranked.object()["goal"] = JsonValue(kGoalSpecs[1]);
    ranked.object()["ranking"] = JsonValue("workload");
    ranked.object()["top_k"] = JsonValue(5);
    hot.push_back(AddAsk(env, ranked, false, 0, UINT64_MAX));
    hot.push_back(AddAsk(env, Request(ds, {end_.Plus(-4), none}, "deadline"), false, 0,
                         UINT64_MAX));
    for (int a : hot) {
      if (a < 0) {
        std::fprintf(stderr, "perfbench: a popular ask does not fit the status cap\n");
        std::exit(2);
      }
    }
    std::vector<int> stream;
    for (size_t h = 0; h < hot.size(); ++h) {
      for (int r = 0; r < kHotRepeats[h]; ++r) stream.push_back(hot[h]);
    }
    for (int i = 0; i < kColdAsks; ++i) {
      stream.push_back(DrawAsk(env, &rng, "deadline", 2 + rng.Below(2), false, 0, kMaxSummaryPaths));
    }
    std::vector<int> full;
    for (int i = 0; i < kFullAsks; ++i) {
      const int a = DrawAsk(env, &rng, i % 2 == 0 ? "deadline" : "goal", 2 + i % 2, true,
                            kMinFullPaths, kMaxFullPaths);
      full.push_back(a);
      stream.push_back(a);
      stream.push_back(a);  // cold, then warm
    }
    for (int i = 0; i < kExprAsks; ++i) {
      stream.push_back(DrawAsk(env, &rng, i % 2 == 0 ? "goal" : "ranked", 3 + rng.Below(2), false,
                               0, kMaxSummaryPaths));
    }
    // The order is the same for every seed (every seed fills the same
    // slots with different asks), so the seed moves no op next to a
    // different neighbour.
    Rng order(kStreamOrderSeed);
    order.Shuffle(&stream);
    static const char* const kTenants[] = {"registrar", "students", "advisors"};
    for (size_t i = 0; i < stream.size(); ++i) {
      sent_.push_back({stream[i], kTenants[rng.Below(3)]});
    }
    env.inputs_ms += MsSince(draw_start);

    // Warm-up: every hot and full-payload ask once; main() then clears
    // the request cache before the timed rounds.
    std::vector<int> warm = hot;
    warm.insert(warm.end(), full.begin(), full.end());
    for (int a : warm) {
      const std::string reply = env.server->Handle(Envelope(a, "warmup", "warm"));
      ++client_sent_;
      auto parsed = JsonValue::Parse(reply);
      if (!parsed.ok()) env.Fail("warm-up reply does not parse");
    }
  }

  void Round(Env& env, int round) override {
    cache::RequestCache::Global().Clear();
    std::vector<std::string> signature;
    std::vector<std::string> cold(asks_.size());
    for (size_t i = 0; i < sent_.size(); ++i) {
      const Sent& item = sent_[i];
      const std::string envelope = Envelope(item.ask, item.tenant, "r" + std::to_string(i));
      std::string reply;
      env.Op("serve/request", [&] {
        std::string frame;
        {
          Trace::Span span(&env.trace, "serve::EncodeFrame");
          frame = serve::EncodeFrame(envelope);
        }
        std::string_view payload;
        {
          Trace::Span span(&env.trace, "serve::DecodeFrameHeader");
          unsigned char header[serve::kFrameHeaderBytes];
          std::memcpy(header, frame.data(), sizeof(header));
          auto length = serve::DecodeFrameHeader(header, serve::kDefaultMaxFrameBytes);
          if (!length.ok() || *length + sizeof(header) != frame.size()) return false;
          payload = std::string_view(frame).substr(sizeof(header), *length);
        }
        std::string response;
        {
          Trace::Span span(&env.trace, "serve::ExplorationServer::Handle");
          response = env.server->Handle(payload);
        }
        Trace::Span span(&env.trace, "serve::EncodeFrame/response");
        const std::string out = serve::EncodeFrame(response);
        unsigned char header[serve::kFrameHeaderBytes];
        std::memcpy(header, out.data(), sizeof(header));
        auto length = serve::DecodeFrameHeader(header, out.size());
        if (!length.ok() || *length + sizeof(header) != out.size()) return false;
        reply = out.substr(sizeof(header));
        return true;
      });
      ++client_sent_;
      const double op_ms = env.op_ms.back();
      env.Check([&] { Inspect(env, round, item, reply, op_ms, &cold, &signature); });
    }
    if (round == 1) {
      signature_ = signature;
    } else if (signature != signature_) {
      env.Fail("round " + std::to_string(round) + " did different work than round 1");
    }
    env.Check([&] {
      const std::string error = CheckServerStats(env.server->Stats(), client_sent_);
      if (!error.empty()) env.Fail(error);
    });
  }

  void Layers(Env& env) override {
    env.SetLayer("serve.queue_wait_ms", Median(queue_wait_ms_), "ms");
    env.SetLayer("serve.service_ms", Median(service_ms_), "ms");
    env.SetLayer("serve.overhead_ms", Median(overhead_ms_), "ms");
    Replay(env);
  }

 private:
  JsonValue Request(const data::BrandeisDataset& ds, const EnrollmentStatus& start,
                    const char* type) const {
    JsonValue::Object s;
    s["term"] = JsonValue(start.term.ToString());
    s["completed"] = CodesJson(ds.catalog, start.completed);
    JsonValue::Object request;
    request["start"] = JsonValue(std::move(s));
    request["end_term"] = JsonValue(end_.ToString());
    request["type"] = JsonValue(type);
    return JsonValue(std::move(request));
  }

  /// Adds an ask when the library's count falls in [min_paths, max_paths]
  /// and reaches the goal; returns its index or -1.
  int AddAsk(Env& env, JsonValue request, bool full, uint64_t min_paths, uint64_t max_paths) {
    const data::BrandeisDataset& ds = env.dataset;
    auto parsed = ExplorationRequestFromJson(request, ds.catalog);
    if (!parsed.ok()) {
      env.Fail("seeded request does not parse: " + parsed.status().ToString());
      return -1;
    }
    ExplorationOptions options;
    options.limits.max_nodes = kMaxStatuses;
    auto count = parsed->goal == nullptr
                     ? CountDeadlineDrivenPaths(ds.catalog, ds.schedule, parsed->start,
                                                parsed->end_term, options)
                     : CountGoalDrivenPaths(ds.catalog, ds.schedule, parsed->start,
                                            parsed->end_term, *parsed->goal, options);
    if (!count.ok() || count->total_paths < min_paths || count->total_paths > max_paths ||
        count->goal_paths == 0) {
      return -1;
    }
    Ask ask;
    ask.request = std::move(request);
    ask.full = full;
    ask.total = static_cast<int64_t>(count->total_paths);
    ask.goal = static_cast<int64_t>(count->goal_paths);
    if (parsed->type == TaskType::kRanked) {
      ask.paths_returned = std::min<int64_t>(parsed->top_k, ask.goal);
    }
    asks_.push_back(std::move(ask));
    return static_cast<int>(asks_.size()) - 1;
  }

  /// Draws seeded asks `left` semesters before the deadline until one fits
  /// the size band: a random walk of 1-3 semesters of 1-3-course loads, then
  /// the goal expression, ranking and k.
  int DrawAsk(Env& env, Rng* rng, const std::string& type, int left, bool full,
              uint64_t min_paths, uint64_t max_paths) {
    const data::BrandeisDataset& ds = env.dataset;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const Term target = end_.Plus(-left);
      DynamicBitset completed = ds.catalog.NewCourseSet();
      for (Term t = target.Plus(-(1 + rng->Below(3))); t < target; t = t.Next()) {
        std::vector<int> ids = ComputeOptions(ds.catalog, ds.schedule, completed, t, {}).ToIndices();
        rng->Shuffle(&ids);
        const int take = std::min(static_cast<int>(ids.size()), 1 + rng->Below(3));
        for (int k = 0; k < take; ++k) completed.set(ids[static_cast<size_t>(k)]);
      }
      JsonValue request = Request(ds, {target, completed}, type.c_str());
      if (type != "deadline") {
        request.object()["goal"] = JsonValue(kGoalSpecs[rng->Below(6)]);
      }
      if (type == "ranked") {
        request.object()["ranking"] = JsonValue(rng->Chance(1, 2) ? "time" : "workload");
        request.object()["top_k"] = JsonValue(3 + rng->Below(8));
      }
      const int index = AddAsk(env, std::move(request), full, min_paths, max_paths);
      if (index >= 0) return index;
    }
    std::fprintf(stderr, "perfbench: no %s ask fits its size band\n", type.c_str());
    std::exit(2);
  }

  std::string Envelope(int ask, const std::string& tenant, const std::string& id) const {
    return serve::MakeRequestEnvelope(tenant, id, kDeadlineCeilingSeconds * 1e3,
                                      asks_[static_cast<size_t>(ask)].request,
                                      /*degrade=*/false, asks_[static_cast<size_t>(ask)].full)
        .Dump();
  }

  void Inspect(Env& env, int round, const Sent& item, const std::string& reply, double op_ms,
               std::vector<std::string>* cold, std::vector<std::string>* signature) {
    auto parsed = JsonValue::Parse(reply);
    if (!parsed.ok()) {
      ++env.failed;
      env.Fail("reply does not parse");
      return;
    }
    const std::string outcome_error = CheckOutcomeOk(*parsed);
    if (!outcome_error.empty()) {
      // A non-ok outcome is a failed operation and a failed check; the
      // checks below need its result, so they are skipped.
      ++env.failed;
      env.Fail("ask " + std::to_string(item.ask) + ": " + outcome_error);
      return;
    }
    auto number = [&](const char* key) {
      auto v = parsed->Get(key);
      return v.ok() && v->is_number() ? *v->GetNumber() : 0.0;
    };
    queue_wait_ms_.push_back(number("queue_wait_ms"));
    service_ms_.push_back(number("service_ms"));
    overhead_ms_.push_back(op_ms - number("queue_wait_ms") - number("service_ms"));
    auto cache = parsed->Get("cache");
    const std::string cache_name = cache.ok() && cache->is_string() ? *cache->GetString() : "";
    const JsonValue result = parsed->Get("result").value_or(JsonValue());
    const std::string bytes = result.Dump();
    signature->push_back(cache_name + ":" + std::to_string(bytes.size()));
    if (round != 1) return;
    const Ask& ask = asks_[static_cast<size_t>(item.ask)];
    auto report = [&](const std::string& error) {
      if (!error.empty()) env.Fail("ask " + std::to_string(item.ask) + ": " + error);
    };
    report(CheckSummary(result, ask.total, ask.goal, ask.paths_returned));
    if (ask.full) report(CheckFullPayload(result));
    std::string& first = (*cold)[static_cast<size_t>(item.ask)];
    if (first.empty()) {
      first = bytes;
    } else {
      report(CheckWarmEqualsCold(bytes, first));
    }
  }

  /// Traced runs: replays round 1's stream through the public functions
  /// the server composes, against a cache instance of its own, one span per
  /// layer.
  void Replay(Env& env) {
    const data::BrandeisDataset& ds = env.dataset;
    constexpr int kReplayRound = 1000;
    env.trace.set_round(kReplayRound);
    cache::RequestCache cache;
    ExplorationStats work;
    double render_ms = 0, render_bytes = 0, dump_ms = 0, response_bytes = 0;
    std::vector<double> frame_us;
    for (size_t i = 0; i < sent_.size(); ++i) {
      const Sent& item = sent_[i];
      const std::string text = Envelope(item.ask, item.tenant, "r" + std::to_string(i));
      Trace::Span request_span(&env.trace, "replay/request");
      Result<JsonValue> json = Status::Internal("not run");
      {
        Trace::Span span(&env.trace, "util/json::JsonValue::Parse");
        json = JsonValue::Parse(text);
      }
      if (!json.ok()) return env.Fail("replay: envelope does not parse");
      Result<serve::RequestEnvelope> envelope = Status::Internal("not run");
      {
        Trace::Span span(&env.trace, "serve::ParseRequestEnvelope");
        envelope = serve::ParseRequestEnvelope(*json);
      }
      if (!envelope.ok()) return env.Fail("replay: " + envelope.status().ToString());
      Result<ExplorationRequest> request = Status::Internal("not run");
      {
        Trace::Span span(&env.trace, "plan::ExplorationRequestFromJson");
        Status schema = ValidateRequestJsonSchema(envelope->request);
        if (!schema.ok()) return env.Fail("replay: " + schema.ToString());
        request = ExplorationRequestFromJson(envelope->request, ds.catalog);
      }
      if (!request.ok()) return env.Fail("replay: " + request.status().ToString());
      {
        Trace::Span span(&env.trace, "plan::Planner::Lower");
        auto plan = plan::Planner::Lower(*request);
        if (!plan.ok()) return env.Fail("replay: " + plan.status().ToString());
      }
      Result<ExplorationResponse> response = Status::Internal("not run");
      cache::CacheOutcome outcome = cache::CacheOutcome::kDisabled;
      {
        Trace::Span span(&env.trace, "cache::RequestCache::Execute");
        response = cache.Execute(ds.catalog, ds.schedule, *request, &outcome);
        span.Rename(std::string("cache::RequestCache::Execute.") +
                    std::string(cache::CacheOutcomeName(outcome)));
      }
      if (!response.ok()) return env.Fail("replay: " + response.status().ToString());
      if (outcome == cache::CacheOutcome::kMiss) {
        const ExplorationStats& s =
            response->generation ? response->generation->stats : response->ranked->stats;
        work.nodes_created += s.nodes_created;
        work.nodes_expanded += s.nodes_expanded;
        work.pruned_time += s.pruned_time;
        work.pruned_availability += s.pruned_availability;
      }
      serve::ResponseEnvelope out;
      out.tenant = envelope->tenant;
      out.request_id = envelope->request_id;
      out.outcome = serve::ResponseOutcome::kOk;
      out.cache = std::string(cache::CacheOutcomeName(outcome));
      {
        const Clock::time_point start = Clock::now();
        Trace::Span span(&env.trace, envelope->full_payload ? "graph::Render/full"
                                                            : "graph::Render/summary");
        out.result = RenderPayload(*response, envelope->full_payload, ds.catalog);
        if (envelope->full_payload) render_ms += MsSince(start);
      }
      std::string wire;
      {
        const Clock::time_point start = Clock::now();
        Trace::Span span(&env.trace, "serve::ResponseEnvelope::ToJson+Dump");
        wire = out.ToJson().Dump();
        dump_ms += MsSince(start);
      }
      response_bytes += static_cast<double>(wire.size());
      if (envelope->full_payload) render_bytes += static_cast<double>(wire.size());
      {
        const Clock::time_point start = Clock::now();
        Trace::Span span(&env.trace, "serve::EncodeFrame/response");
        const std::string frame = serve::EncodeFrame(wire);
        unsigned char header[serve::kFrameHeaderBytes];
        std::memcpy(header, frame.data(), sizeof(header));
        if (!serve::DecodeFrameHeader(header, frame.size()).ok()) env.Fail("replay: frame");
        frame_us.push_back(MsSince(start) * 1e3);
      }
    }
    env.trace.set_round(0);
    const double n = static_cast<double>(sent_.size());
    auto median_us = [&](const char* name) { return Median(env.trace.Durations(name, kReplayRound)) * 1e3; };
    env.SetLayer("json.parse_us", median_us("util/json::JsonValue::Parse"), "us");
    env.SetLayer("serve.envelope_parse_us", median_us("serve::ParseRequestEnvelope"), "us");
    env.SetLayer("plan.request_parse_us", median_us("plan::ExplorationRequestFromJson"), "us");
    env.SetLayer("plan.lower_us", median_us("plan::Planner::Lower"), "us");
    env.SetLayer("cache.hit_ms",
                 Median(env.trace.Durations("cache::RequestCache::Execute.hit", kReplayRound)), "ms");
    env.SetLayer("cache.miss_ms",
                 Median(env.trace.Durations("cache::RequestCache::Execute.miss", kReplayRound)), "ms");
    const double full_count = static_cast<double>(2 * kFullAsks);
    env.SetLayer("graph.render_ms", render_ms / full_count, "ms");
    env.SetLayer("graph.render_mb_per_s", render_bytes / 1e6 / (render_ms / 1e3), "MB/s");
    env.SetLayer("serve.response_dump_ms", dump_ms / n, "ms");
    env.SetLayer("serve.response_kb", response_bytes / n / 1024.0, "KB");
    env.SetLayer("serve.frame_us", Median(frame_us), "us");
    const cache::CacheStats stats = cache.Stats();
    env.SetLayer("cache.result_bytes", static_cast<double>(stats.result_bytes), "B");
    env.SetLayer("cache.result_hits", static_cast<double>(stats.result_hits), "count");
    env.SetLayer("cache.result_misses", static_cast<double>(stats.result_misses), "count");
    env.SetLayer("cache.bypasses", static_cast<double>(stats.bypasses), "count");
    env.SetLayer("cache.plan_hits", static_cast<double>(stats.plan_hits), "count");
    env.SetLayer("cache.result_hit_ratio",
                 static_cast<double>(stats.result_hits) /
                     static_cast<double>(stats.result_hits + stats.result_misses),
                 "ratio");
    env.SetLayer("core.nodes_created", static_cast<double>(work.nodes_created), "count");
    env.SetLayer("core.nodes_expanded", static_cast<double>(work.nodes_expanded), "count");
    env.SetLayer("core.pruned_time", static_cast<double>(work.pruned_time), "count");
    env.SetLayer("core.pruned_availability", static_cast<double>(work.pruned_availability),
                 "count");
  }

  /// The result payload the server builds: summary counts, plus the graph
  /// or paths when the full payload was asked for.
  static JsonValue RenderPayload(const ExplorationResponse& response, bool full,
                                 const Catalog& catalog) {
    JsonValue::Object object;
    if (response.generation) {
      const GenerationResult& g = *response.generation;
      object["nodes"] = JsonValue(g.stats.nodes_created);
      object["edges"] = JsonValue(g.stats.edges_created);
      object["terminal_paths"] = JsonValue(g.stats.terminal_paths);
      object["goal_paths"] = JsonValue(g.stats.goal_paths);
      if (full) object["graph"] = LearningGraphToJson(g.graph, catalog);
    }
    if (response.ranked) {
      object["paths_returned"] = JsonValue(static_cast<int64_t>(response.ranked->paths.size()));
      if (full) object["paths"] = LearningPathsToJson(response.ranked->paths, catalog);
    }
    return JsonValue(std::move(object));
  }

  Term end_;
  std::vector<Ask> asks_;
  std::vector<Sent> sent_;
  std::vector<std::string> signature_;
  int64_t client_sent_ = 0;
  std::vector<double> queue_wait_ms_, service_ms_, overhead_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix() { return std::make_unique<ServeMix>(); }

}  // namespace perfbench
