#include "workloads.h"

#include <algorithm>
#include <set>
#include <utility>

namespace perfbench {

namespace {

constexpr char kSameGenerationRules[] =
    "sg(X, Y) <- flat(X, Y).\n"
    "sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).\n";

constexpr char kAncestorRules[] =
    "anc(X, Y) <- up(X, Y).\n"
    "anc(X, Y) <- up(X, Z), anc(Z, Y).\n";

constexpr char kClosureRules[] =
    "tc(X, Y) <- edge(X, Y).\n"
    "tc(X, Y) <- edge(X, Z), tc(Z, Y).\n";

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return SplitMix(seed * 0x100000001b3ULL + stream).Next();
}

template <typename T>
void Shuffle(std::vector<T>* v, SplitMix* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

/// The same-generation substrate: `fanout` roots joined by a `flat` ring,
/// each the top of a tree of the given fan-out and depth, with up(child,
/// parent) and dn(parent, child) edges. Node labels are a seeded permutation
/// of 0..n-1. Returns the labels.
std::vector<int64_t> MakeSameGeneration(size_t fanout, size_t depth,
                                        SplitMix* rng, Facts* facts) {
  size_t n = 0;
  size_t width = fanout;
  for (size_t d = 0; d <= depth; ++d, width *= fanout) n += width;
  std::vector<int64_t> label(n);
  for (size_t i = 0; i < n; ++i) label[i] = static_cast<int64_t>(i);
  Shuffle(&label, rng);

  std::vector<Pair>& up = (*facts)["up"];
  std::vector<Pair>& dn = (*facts)["dn"];
  std::vector<Pair>& flat = (*facts)["flat"];
  std::vector<size_t> level;
  size_t next = 0;
  for (size_t i = 0; i < fanout; ++i) level.push_back(next++);
  for (size_t i = 0; i < fanout; ++i) {
    flat.push_back({label[level[i]], label[level[(i + 1) % fanout]]});
  }
  for (size_t d = 1; d <= depth; ++d) {
    std::vector<size_t> below;
    for (size_t parent : level) {
      for (size_t f = 0; f < fanout; ++f) {
        const size_t child = next++;
        below.push_back(child);
        up.push_back({label[child], label[parent]});
        dn.push_back({label[parent], label[child]});
      }
    }
    level = std::move(below);
  }
  return label;
}

void AppendFact(const std::string& pred, int64_t a, int64_t b,
                std::string* out) {
  *out += pred;
  *out += '(';
  *out += std::to_string(a);
  *out += ", ";
  *out += std::to_string(b);
  *out += ")";
}

void MakeLookupBase(uint64_t seed, Workload* w) {
  SplitMix rng(Mix(seed, 1));
  w->rules = std::string(kAncestorRules) + kSameGenerationRules;
  w->constants = MakeSameGeneration(4, 6, &rng, &w->facts);
  w->classes = {"anc", "sg"};
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "lookup") {
    MakeLookupBase(seed, &w);
    w.trace_ops = 240;
    w.setup_reps = 5;
  } else if (name == "update_mix") {
    MakeLookupBase(seed, &w);
    w.write_nodes = w.constants;
    w.trace_ops = 240;
    w.setup_reps = 5;
  } else if (name == "closure") {
    SplitMix rng(Mix(seed, 1));
    w.rules = std::string(kSameGenerationRules) + kClosureRules;
    MakeSameGeneration(3, 5, &rng, &w.facts);
    // A random DAG of 400 nodes: each node but the last gets three
    // successors among the higher-numbered nodes (duplicates collapse).
    // The shape comes from a fixed seed, so the closure's size is the same
    // for every run; the run's seed permutes the node labels.
    constexpr size_t kNodes = 400;
    SplitMix shape(Mix(0, 3));
    std::vector<int64_t> label(kNodes);
    for (size_t i = 0; i < kNodes; ++i) label[i] = static_cast<int64_t>(i);
    Shuffle(&label, &rng);
    std::set<std::pair<int64_t, int64_t>> seen;
    std::vector<Pair>& edge = w.facts["edge"];
    for (size_t i = 0; i + 1 < kNodes; ++i) {
      for (int k = 0; k < 3; ++k) {
        const size_t j = i + 1 + shape.Uniform(kNodes - i - 1);
        if (seen.insert({static_cast<int64_t>(i), static_cast<int64_t>(j)})
                .second) {
          edge.push_back({label[i], label[j]});
        }
      }
    }
    w.classes = {"sg", "tc"};
    w.trace_ops = 4;
    w.setup_reps = 5;
  } else if (name == "planning") {
    SplitMix rng(Mix(seed, 1));
    constexpr int64_t kDomain = 60;
    constexpr int kRelations = 8;
    constexpr int kViews = 6;
    // Relation r has 28 + 2r rows (30..44). Every relation maps a shared
    // core of 20 values onto itself (a random cycle per relation), so chains
    // that start in the core survive all 24 joins and top(c, Y) has
    // answers. The other rows map non-core values to distinct non-core
    // values, reusing (r % 4) * 3 first values. Cardinalities and distinct
    // counts, the only statistics the optimizer reads, are therefore the
    // same for every seed, and so is the search it performs.
    constexpr size_t kCore = 20;
    std::vector<int64_t> values;
    for (int64_t v = 0; v < kDomain; ++v) values.push_back(v);
    Shuffle(&values, &rng);
    const std::vector<int64_t> core(values.begin(), values.begin() + kCore);
    std::vector<int64_t> others(values.begin() + kCore, values.end());
    for (int r = 1; r <= kRelations; ++r) {
      const size_t rows = 28 + 2 * r;
      const size_t extra = rows - kCore;
      const size_t firsts = extra - (r % 4) * 3;
      std::vector<int64_t> cycle = core;
      Shuffle(&cycle, &rng);
      std::vector<Pair>& rel = w.facts["r" + std::to_string(r)];
      for (size_t i = 0; i < kCore; ++i) {
        rel.push_back({cycle[i], cycle[(i + 1) % kCore]});
      }
      Shuffle(&others, &rng);
      const std::vector<int64_t> from(others.begin(), others.begin() + firsts);
      Shuffle(&others, &rng);
      for (size_t i = 0; i < extra; ++i) {
        rel.push_back({from[i % firsts], others[i]});
      }
    }
    // View k joins all eight relations in a chain, starting at relation k.
    for (int k = 1; k <= kViews; ++k) {
      const std::string view = "v" + std::to_string(k);
      std::vector<std::string>& chain = w.views[view];
      std::string rule = view + "(X, Y) <- ";
      for (int j = 0; j < kRelations; ++j) {
        chain.push_back("r" + std::to_string((k - 1 + j) % kRelations + 1));
        const std::string from = j == 0 ? "X" : "A" + std::to_string(j);
        const std::string to =
            j + 1 == kRelations ? "Y" : "A" + std::to_string(j + 1);
        rule += chain.back() + "(" + from + ", " + to + ")";
        rule += j + 1 == kRelations ? ".\n" : ", ";
      }
      w.rules += rule;
    }
    w.top_rules = {{"v1", "v2", "v3"}, {"v4", "v5", "v6"}};
    w.rules +=
        "top(X, Y) <- v1(X, Z), v2(Z, W), v3(W, Y).\n"
        "top(X, Y) <- v4(X, Z), v5(Z, W), v6(W, Y).\n";
    for (int64_t c = 0; c < kDomain; ++c) w.constants.push_back(c);
    w.classes = {"top"};
    w.trace_ops = 120;
    w.setup_reps = 15;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::string ProgramText(const Workload& w) {
  std::string text = w.rules;
  for (const auto& [pred, pairs] : w.facts) {
    for (const Pair& p : pairs) {
      AppendFact(pred, p.a, p.b, &text);
      text += ".\n";
    }
  }
  return text;
}

OpStream::OpStream(const Workload& w, uint64_t seed)
    : w_(w), rng_(Mix(seed, 2)) {}

Op OpStream::Query(int cls) {
  Op op;
  op.cls = cls;
  op.pred = w_.classes[cls];
  op.bound = !w_.constants.empty();
  if (op.bound) {
    op.a = w_.constants[rng_.Uniform(w_.constants.size())];
    op.text = op.pred + "(" + std::to_string(op.a) + ", Y)";
  } else {
    op.text = op.pred + "(X, Y)";
  }
  return op;
}

Op OpStream::Next() {
  const uint64_t i = index_++;
  // update_mix: every fourth operation adds a flat fact between two
  // random nodes; the rest are the lookup query mix.
  if (!w_.write_nodes.empty() && i % 4 == 3) {
    Op op;
    op.kind = Op::kWrite;
    op.pred = "flat";
    op.a = w_.write_nodes[rng_.Uniform(w_.write_nodes.size())];
    op.b = w_.write_nodes[rng_.Uniform(w_.write_nodes.size())];
    AppendFact(op.pred, op.a, op.b, &op.text);
    op.text += ".";
    return op;
  }
  return Query(static_cast<int>(reads_++ % w_.classes.size()));
}

}  // namespace perfbench
