// The traced run: the same operation stream, replayed through each layer's
// public functions in the steps LdlSystem::Query takes, with a span around
// every call. Three passes share one stream prefix:
//   1. untraced Query/AddClause calls (answer fingerprints, allocations per
//      query, and the untraced throughput the tracing overhead is read
//      against);
//   2. traced replay on a fresh system (the reported per-layer metrics);
//   3. traced replay again on another fresh system (determinism check:
//      its machine-independent counters must equal pass 2's).
// Then storage and term operations are replayed over pass 2's answers.
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <utility>

#include "alloc_count.h"
#include "ast/parser.h"
#include "common.h"
#include "engine/counting.h"
#include "engine/magic.h"
#include "engine/query_eval.h"
#include "graph/adornment.h"
#include "optimizer/optimizer.h"
#include "optimizer/project_pushdown.h"
#include "storage/statistics.h"

namespace perfbench {
namespace {

constexpr uint32_t kNoParent = UINT32_MAX;
/// Answer tuples kept for the storage and term replays.
constexpr size_t kMaxReplayTuples = 200'000;
constexpr int kReplayReps = 3;

struct Span {
  const char* name = "";
  uint32_t parent = kNoParent;
  uint32_t op = 0;  ///< shared by the spans of one operation
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  AllocCount allocs;  ///< allocations inside the span, children included
};

/// Spans kept in memory, nested by a stack of open spans. Capacity is
/// reserved up front so recording does not allocate inside the spans.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) {
    spans_.reserve(capacity);
    open_.reserve(16);
  }

  uint32_t Begin(const char* name, uint32_t op) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.op = op;
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    spans_.push_back(s);
    open_.push_back(id);
    spans_[id].allocs = AllocNow();
    spans_[id].start_ns = NowNs();
    return id;
  }

  void End(uint32_t id) {
    Span& s = spans_[id];
    s.end_ns = NowNs();
    s.allocs = AllocNow() - s.allocs;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name, uint32_t op)
      : rec_(rec), id_(rec->Begin(name, op)) {}
  ~Scope() { rec_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

/// Self time and self allocations per span name, summed over a pass.
struct SelfTotals {
  uint64_t calls = 0;
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  AllocCount self_allocs;
};

std::map<std::string, SelfTotals> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<AllocCount> child_allocs(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    child_ns[s.parent] += s.end_ns - s.start_ns;
    child_allocs[s.parent] += s.allocs;
  }
  std::map<std::string, SelfTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfTotals& t = out[spans[i].name];
    const int64_t dur = spans[i].end_ns - spans[i].start_ns;
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.self_allocs += spans[i].allocs - child_allocs[i];
  }
  return out;
}

struct PassResult {
  bool ok = true;
  uint64_t queries = 0;
  uint64_t ops = 0;
  std::vector<uint64_t> fingerprints;  ///< per operation; 0 for writes
  /// Machine-independent counters; must repeat exactly for a seed.
  std::map<std::string, uint64_t> counters;
  std::vector<Span> spans;
  std::vector<ldl::Tuple> answer_tuples;
};

/// Replays one query in the steps LdlSystem::Query takes. Returns the
/// answers, or nullopt after reporting the failing step on stderr.
std::optional<ldl::Relation> ReplayQuery(
    const Op& op, uint32_t id, ldl::LdlSystem* sys, ldl::Statistics* stats,
    bool* stats_dirty, SpanRecorder* rec,
    std::map<std::string, uint64_t>* counters) {
  auto fail = [&](const char* step, const ldl::Status& st) {
    std::fprintf(stderr, "perfbench: traced %s? %s failed: %s\n",
                 op.text.c_str(), step, st.ToString().c_str());
    return std::nullopt;
  };
  Scope root(rec, "query", id);
  ldl::Result<ldl::Literal> goal = [&] {
    Scope s(rec, "ast.parse", id);
    return ldl::ParseLiteral(op.text);
  }();
  if (!goal.ok()) return fail("parse", goal.status());
  ++(*counters)["ast.parse.calls"];

  const ldl::OptimizerOptions options;
  ldl::Program working;
  {
    Scope s(rec, "optimizer.pushdown", id);
    ldl::Result<ldl::ProjectedProgram> projected =
        ldl::PushProjections(sys->program(), *goal);
    working = projected.ok() ? std::move(projected->rewritten)
                             : sys->program();
  }
  if (*stats_dirty) {
    Scope s(rec, "storage.stats", id);
    *stats = ldl::Statistics::Collect(*sys->database());
    *stats_dirty = false;
    ++(*counters)["storage.stats.calls"];
  }
  ldl::Result<ldl::QueryPlan> plan = [&] {
    Scope s(rec, "optimizer.optimize", id);
    ldl::Optimizer optimizer(working, *stats, options);
    return optimizer.Optimize(*goal);
  }();
  if (!plan.ok()) return fail("optimize", plan.status());
  if (!plan->safe) return fail("optimize", ldl::Status::Unsafe("unsafe plan"));
  const ldl::PlanSearchStats& search = plan->search_stats;
  (*counters)["optimizer.calls"] += 1;
  (*counters)["optimizer.cost_evaluations"] += search.cost_evaluations;
  (*counters)["optimizer.subplans_optimized"] += search.subplans_optimized;
  (*counters)["optimizer.memo_hits"] += search.memo_hits;
  (*counters)["optimizer.memo_misses"] += search.memo_misses;
  (*counters)["optimizer.prunes_unsafe"] += search.prunes_unsafe;

  const ldl::RecursionMethod method = plan->top_method;
  ++(*counters)[std::string("engine.method.") +
                ldl::RecursionMethodToString(method)];
  // The rewrite EvaluateQuery will run, called on its own: counting's
  // rewrite, and magic's adornment plus rewrite (also counting's fallback
  // when its rewrite does not apply).
  bool needs_magic = method == ldl::RecursionMethod::kMagic;
  if (method == ldl::RecursionMethod::kCounting) {
    Scope s(rec, "engine.rewrite", id);
    needs_magic = !ldl::CountingRewrite(working, *goal).ok();
  }
  if (needs_magic) {
    ldl::Result<ldl::AdornedProgram> adorned = [&] {
      Scope s(rec, "graph.adorn", id);
      return ldl::AdornProgramForQuery(working, *goal, plan->sips);
    }();
    if (!adorned.ok()) return fail("adorn", adorned.status());
    Scope s(rec, "engine.rewrite", id);
    ldl::Result<ldl::MagicProgram> magic = ldl::MagicRewrite(*adorned);
    if (!magic.ok()) return fail("magic rewrite", magic.status());
  }

  ldl::QueryEvalOptions eval;
  eval.fixpoint.engine = options.engine;
  eval.sips = plan->sips;
  eval.fixpoint.rule_orders.insert(plan->rule_orders.begin(),
                                   plan->rule_orders.end());
  ldl::Result<ldl::QueryResult> result = [&] {
    Scope s(rec, "engine.execute", id);
    return ldl::EvaluateQuery(working, sys->database(), *goal, method, eval);
  }();
  if (!result.ok()) return fail("execute", result.status());
  const ldl::EvalCounters& c = result->stats.counters;
  (*counters)["engine.tuples_examined"] += c.tuples_examined;
  (*counters)["engine.derivations"] += c.derivations;
  (*counters)["engine.inserts"] += c.inserts;
  (*counters)["engine.rule_firings"] += c.rule_firings;
  (*counters)["engine.rounds"] += result->stats.iterations;
  return std::move(result->answers);
}

/// Replays a write as AddClause performs it: parse, then add the facts.
bool ReplayWrite(const Op& op, uint32_t id, ldl::LdlSystem* sys,
                 bool* stats_dirty, SpanRecorder* rec,
                 std::map<std::string, uint64_t>* counters) {
  Scope root(rec, "write", id);
  ldl::Result<ldl::Program> parsed = [&] {
    Scope s(rec, "ast.parse", id);
    return ldl::ParseProgram(op.text);
  }();
  ++(*counters)["ast.parse.calls"];
  if (!parsed.ok()) return false;
  Scope s(rec, "storage.add_fact", id);
  for (const ldl::Literal& fact : parsed->facts()) {
    if (!sys->database()->AddFact(fact).ok()) return false;
  }
  *stats_dirty = true;
  return true;
}

PassResult TracedPass(const Workload& w, const std::string& program_text,
                      uint64_t seed) {
  PassResult out;
  Oracle oracle(w);
  std::unique_ptr<ldl::LdlSystem> sys =
      SetUpChecked(w, program_text, seed, oracle);
  if (sys == nullptr) {
    out.ok = false;
    return out;
  }
  ldl::Statistics stats = sys->statistics();
  bool stats_dirty = false;
  SpanRecorder rec(12 * w.trace_ops + 16);
  OpStream stream(w, seed);
  const AllocCount before = AllocNow();
  for (uint32_t i = 0; i < w.trace_ops; ++i) {
    const Op op = stream.Next();
    ++out.ops;
    if (op.kind == Op::kWrite) {
      out.ok &= ReplayWrite(op, i, sys.get(), &stats_dirty, &rec,
                            &out.counters);
      out.fingerprints.push_back(0);
      continue;
    }
    ++out.queries;
    std::optional<ldl::Relation> answers =
        ReplayQuery(op, i, sys.get(), &stats, &stats_dirty, &rec,
                    &out.counters);
    Answers pairs;
    if (!answers.has_value() || !ToAnswers(*answers, &pairs)) {
      out.ok = false;
      out.fingerprints.push_back(0);
      continue;
    }
    out.fingerprints.push_back(Fingerprint(pairs));
    for (const ldl::Tuple& t : answers->tuples()) {
      if (out.answer_tuples.size() == kMaxReplayTuples) break;
      out.answer_tuples.push_back(t);
    }
  }
  // Allocation counts of the whole pass and per layer are part of the
  // determinism check.
  out.counters["process.allocs"] = (AllocNow() - before).calls;
  for (const auto& [name, t] : SelfTimes(rec.spans())) {
    out.counters["allocs." + name] = t.self_allocs.calls;
  }
  out.spans = rec.spans();
  return out;
}

/// Storage and term operations replayed over a pass's answer tuples.
struct LayerReplay {
  double insert_ns_per_tuple = 0;
  double insert_allocs_per_tuple = 0;
  double index_build_ms = 0;
  double probe_ns = 0;
  double bytes_per_tuple = 0;
  double hash_ns = 0;
  double eq_ns = 0;
  std::map<std::string, uint64_t> counters;
};

LayerReplay ReplayLayers(const std::vector<ldl::Tuple>& tuples) {
  LayerReplay out;
  if (tuples.empty()) return out;
  const std::vector<int> cols{1};
  std::vector<ldl::Tuple> keys;
  for (const ldl::Tuple& t : tuples) keys.push_back({t[1]});
  std::vector<double> insert_ns, build_ms, probe_ns;
  uint64_t sink = 0;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    std::vector<ldl::Tuple> batch = tuples;
    ldl::Relation rel("replay", 2);
    AllocCount a0 = AllocNow();
    int64_t t0 = NowNs();
    for (ldl::Tuple& t : batch) rel.Insert(std::move(t));
    insert_ns.push_back(static_cast<double>(NowNs() - t0) / tuples.size());
    const AllocCount inserted = AllocNow() - a0;

    a0 = AllocNow();
    t0 = NowNs();
    rel.PrepareIndex(cols);
    build_ms.push_back((NowNs() - t0) / 1e6);
    const AllocCount built = AllocNow() - a0;

    t0 = NowNs();
    for (const ldl::Tuple& key : keys) sink += rel.Lookup(cols, key).size();
    probe_ns.push_back(static_cast<double>(NowNs() - t0) / keys.size());

    if (rep == 0) {
      out.insert_allocs_per_tuple =
          static_cast<double>(inserted.calls) / tuples.size();
      out.counters["allocs.storage.insert"] = inserted.calls;
      out.counters["allocs.storage.index_build"] = built.calls;
      ldl::ResourceAccountant accountant;
      rel.set_accountant(&accountant);
      out.bytes_per_tuple =
          static_cast<double>(rel.charged_bytes()) / rel.size();
      rel.set_accountant(nullptr);
    }
  }
  out.insert_ns_per_tuple = Median(insert_ns);
  out.index_build_ms = Median(build_ms);
  out.probe_ns = Median(probe_ns);

  std::vector<ldl::Term> terms;
  for (const ldl::Tuple& t : tuples) terms.insert(terms.end(), t.begin(), t.end());
  const std::vector<ldl::Term> copies = terms;
  std::vector<double> hash_ns, eq_ns;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    int64_t t0 = NowNs();
    for (const ldl::Term& t : terms) sink += t.Hash();
    hash_ns.push_back(static_cast<double>(NowNs() - t0) / terms.size());
    t0 = NowNs();
    for (size_t i = 0; i < terms.size(); ++i) sink += terms[i] == copies[i];
    eq_ns.push_back(static_cast<double>(NowNs() - t0) / terms.size());
  }
  out.hash_ns = Median(hash_ns);
  out.eq_ns = Median(eq_ns);
  // Keeps the replayed lookups and hashes observable.
  out.counters["replay.sink_parity"] = sink & 1;
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
      << ",\"parent\":"
      << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
      << ",\"start_ns\":" << s.start_ns - origin
      << ",\"end_ns\":" << s.end_ns - origin
      << ",\"allocs\":" << s.allocs.calls << "}\n";
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

int RunTraced(const Workload& w, const std::string& program_text,
              uint64_t seed, const std::string& spans_path) {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Pass 1: untraced.
  std::vector<uint64_t> expected;
  AllocCount query_allocs;
  uint64_t queries = 0;
  double busy_ms = 0;
  {
    Oracle oracle(w);
    std::unique_ptr<ldl::LdlSystem> sys =
        SetUpChecked(w, program_text, seed, oracle);
    if (sys == nullptr) return 1;
    OpStream stream(w, seed);
    ldl::Relation got;
    for (size_t i = 0; i < w.trace_ops; ++i) {
      got = ldl::Relation();
      const Op op = stream.Next();
      ++attempted;
      const AllocCount a0 = AllocNow();
      const int64_t t0 = NowNs();
      const bool ok = RunOp(sys.get(), op, &got);
      busy_ms += (NowNs() - t0) / 1e6;
      const AllocCount used = AllocNow() - a0;
      expected.push_back(0);
      if (!ok) {
        ++failed;
        continue;
      }
      if (op.kind == Op::kWrite) {
        oracle.AddFact(op.pred, op.a, op.b);
        continue;
      }
      ++queries;
      query_allocs += used;
      const Answers want = oracle.Answer(op);
      if (!CheckAnswers(op, got, want)) {
        ++failed;
        continue;
      }
      expected.back() = Fingerprint(want);
    }
  }

  // Passes 2 and 3: traced, each on a fresh system.
  PassResult traced[2] = {TracedPass(w, program_text, seed),
                          TracedPass(w, program_text, seed)};
  uint64_t fingerprint_mismatches = 0;
  for (const PassResult& pass : traced) {
    attempted += pass.ops;
    if (!pass.ok || pass.fingerprints.size() != expected.size()) {
      ++failed;
      continue;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (pass.fingerprints[i] != expected[i]) ++fingerprint_mismatches;
    }
  }
  failed += fingerprint_mismatches;
  const PassResult& t = traced[0];

  const LayerReplay replay = ReplayLayers(t.answer_tuples);
  const LayerReplay replay2 = ReplayLayers(traced[1].answer_tuples);

  // Determinism: every machine-independent counter of the two traced
  // passes (and of their storage replays) must be identical.
  uint64_t determinism_mismatches = 0;
  auto compare = [&](const std::map<std::string, uint64_t>& a,
                     const std::map<std::string, uint64_t>& b) {
    std::map<std::string, std::pair<uint64_t, uint64_t>> all;
    for (const auto& [k, v] : a) all[k].first = v;
    for (const auto& [k, v] : b) all[k].second = v;
    for (const auto& [k, v] : all) {
      if (v.first == v.second) continue;
      ++determinism_mismatches;
      std::fprintf(stderr,
                   "perfbench: determinism: %s differs: %llu vs %llu\n",
                   k.c_str(), static_cast<unsigned long long>(v.first),
                   static_cast<unsigned long long>(v.second));
    }
  };
  compare(t.counters, traced[1].counters);
  compare(replay.counters, replay2.counters);

  if (!spans_path.empty()) WriteSpans(spans_path, t.spans);

  const std::map<std::string, SelfTotals> self = SelfTimes(t.spans);
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? SelfTotals{} : it->second;
  };
  auto count = [&](const char* name) -> double {
    auto it = t.counters.find(name);
    return it == t.counters.end() ? 0 : static_cast<double>(it->second);
  };
  const double ops = static_cast<double>(t.ops);
  auto ms_per_op = [&](const char* name) {
    return self_of(name).self_ns / 1e6 / ops;
  };
  const double root_ms =
      (self_of("query").total_ns + self_of("write").total_ns) / 1e6;
  const double traced_qps = Ratio(t.queries, root_ms / 1e3);
  const double untraced_qps = Ratio(queries, busy_ms / 1e3);
  const SelfTotals optimize = self_of("optimizer.optimize");
  const SelfTotals execute = self_of("engine.execute");
  const double examined = count("engine.tuples_examined");

  std::printf("traced ops=%zu queries=%llu spans=%zu\n", w.trace_ops,
              static_cast<unsigned long long>(t.queries), t.spans.size());
  for (const auto& [name, tot] : self) {
    std::printf("span %-20s calls=%-6llu self=%.4f ms/op\n", name.c_str(),
                static_cast<unsigned long long>(tot.calls),
                tot.self_ns / 1e6 / ops);
  }

  const std::vector<Metric> metrics = {
      {"ast.parse.calls", count("ast.parse.calls"), "count"},
      {"ast.parse.ms", ms_per_op("ast.parse"), "ms"},
      {"ast.term.hash_ns", replay.hash_ns, "ns"},
      {"ast.term.eq_ns", replay.eq_ns, "ns"},
      {"storage.stats.calls", count("storage.stats.calls"), "count"},
      {"storage.stats.ms", ms_per_op("storage.stats"), "ms"},
      {"storage.add_fact.ms", ms_per_op("storage.add_fact"), "ms"},
      {"storage.insert.ns_per_tuple", replay.insert_ns_per_tuple, "ns"},
      {"storage.insert.allocs_per_tuple", replay.insert_allocs_per_tuple,
       "count"},
      {"storage.index.build_ms", replay.index_build_ms, "ms"},
      {"storage.index.probe_ns", replay.probe_ns, "ns"},
      {"storage.bytes_per_tuple", replay.bytes_per_tuple, "B"},
      {"graph.adorn.ms", ms_per_op("graph.adorn"), "ms"},
      {"optimizer.pushdown.ms", ms_per_op("optimizer.pushdown"), "ms"},
      {"optimizer.optimize.ms", ms_per_op("optimizer.optimize"), "ms"},
      {"optimizer.cost_evaluations", count("optimizer.cost_evaluations"),
       "count"},
      {"optimizer.subplans_optimized", count("optimizer.subplans_optimized"),
       "count"},
      {"optimizer.memo_hits", count("optimizer.memo_hits"), "count"},
      {"optimizer.memo_misses", count("optimizer.memo_misses"), "count"},
      {"optimizer.memo_hit_frac",
       Ratio(count("optimizer.memo_hits"),
             count("optimizer.memo_hits") + count("optimizer.memo_misses")),
       "ratio"},
      {"optimizer.prunes_unsafe", count("optimizer.prunes_unsafe"), "count"},
      {"optimizer.ns_per_cost_eval",
       Ratio(optimize.self_ns, count("optimizer.cost_evaluations")), "ns"},
      {"optimizer.allocs_per_call",
       Ratio(optimize.self_allocs.calls, optimize.calls), "count"},
      {"engine.rewrite.ms", ms_per_op("engine.rewrite"), "ms"},
      {"engine.execute.ms", ms_per_op("engine.execute"), "ms"},
      {"engine.tuples_examined", examined, "count"},
      {"engine.derivations", count("engine.derivations"), "count"},
      {"engine.inserts", count("engine.inserts"), "count"},
      {"engine.rule_firings", count("engine.rule_firings"), "count"},
      {"engine.rounds", count("engine.rounds"), "count"},
      {"engine.insert_frac",
       Ratio(count("engine.inserts"), count("engine.derivations")), "ratio"},
      {"engine.ns_per_examined", Ratio(execute.self_ns, examined), "ns"},
      {"engine.allocs_per_examined",
       Ratio(execute.self_allocs.calls, examined), "count"},
      {"engine.method.seminaive", count("engine.method.seminaive"), "count"},
      {"engine.method.magic", count("engine.method.magic"), "count"},
      {"engine.method.counting", count("engine.method.counting"), "count"},
      {"process.allocs_per_query", Ratio(query_allocs.calls, queries),
       "count"},
      {"process.alloc_bytes_per_query", Ratio(query_allocs.bytes, queries),
       "B"},
      {"trace.ops", ops, "count"},
      {"trace.query.ms", root_ms / ops, "ms"},
      {"trace.queries_per_s", traced_qps, "1/s"},
      {"trace.untraced_queries_per_s", untraced_qps, "1/s"},
      {"trace.overhead_frac", 1 - Ratio(traced_qps, untraced_qps), "ratio"},
      {"trace.fingerprint_mismatches",
       static_cast<double>(fingerprint_mismatches), "count"},
      {"trace.determinism_mismatches",
       static_cast<double>(determinism_mismatches), "count"},
  };
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench
