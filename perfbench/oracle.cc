#include "oracle.h"

#include <algorithm>

namespace perfbench {

Oracle::Oracle(const Workload& w) : w_(w) {
  for (const auto& [pred, pairs] : w.facts) {
    for (const Pair& p : pairs) AddFact(pred, p.a, p.b);
  }
}

void Oracle::AddFact(const std::string& pred, int64_t a, int64_t b) {
  std::vector<int64_t>& out = rels_[pred][a];
  if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
}

const Oracle::Adjacency& Oracle::Rel(const std::string& pred) const {
  auto it = rels_.find(pred);
  return it == rels_.end() ? empty_ : it->second;
}

Oracle::NodeSet Oracle::Reach(const std::string& pred, int64_t from) const {
  const Adjacency& adj = Rel(pred);
  NodeSet seen;
  std::vector<int64_t> stack{from};
  while (!stack.empty()) {
    const int64_t x = stack.back();
    stack.pop_back();
    auto it = adj.find(x);
    if (it == adj.end()) continue;
    for (int64_t y : it->second) {
      if (seen.insert(y).second) stack.push_back(y);
    }
  }
  return seen;
}

Oracle::NodeSet Oracle::SameGeneration(int64_t x) const {
  const Adjacency& up = Rel("up");
  const Adjacency& dn = Rel("dn");
  const Adjacency& flat = Rel("flat");
  auto step = [](const Adjacency& adj, const NodeSet& from) {
    NodeSet to;
    for (int64_t n : from) {
      auto it = adj.find(n);
      if (it != adj.end()) to.insert(it->second.begin(), it->second.end());
    }
    return to;
  };
  NodeSet out;
  NodeSet level{x};
  // `level` holds the ancestors exactly k up-steps above x. The up graph is
  // a forest, so it empties after at most (number of nodes) steps.
  for (size_t k = 0; !level.empty() && k <= up.size(); ++k) {
    NodeSet partners = step(flat, level);
    for (size_t d = 0; d < k && !partners.empty(); ++d) {
      partners = step(dn, partners);
    }
    out.insert(partners.begin(), partners.end());
    level = step(up, level);
  }
  return out;
}

Oracle::NodeSet Oracle::Chain(const std::vector<std::string>& rels,
                              int64_t from) const {
  NodeSet frontier{from};
  for (const std::string& rel : rels) {
    const Adjacency& adj = Rel(rel);
    NodeSet next;
    for (int64_t x : frontier) {
      auto it = adj.find(x);
      if (it != adj.end()) next.insert(it->second.begin(), it->second.end());
    }
    frontier = std::move(next);
  }
  return frontier;
}

std::vector<int64_t> Oracle::Sources(const std::string& pred) const {
  std::vector<int64_t> out;
  for (const auto& [node, succ] : Rel(pred)) out.push_back(node);
  return out;
}

Answers Oracle::Answer(const Op& op) const {
  auto answers_of = [&](int64_t x) -> NodeSet {
    if (op.pred == "anc") return Reach("up", x);
    if (op.pred == "tc") return Reach("edge", x);
    if (op.pred == "sg") return SameGeneration(x);
    NodeSet out;  // top: the union of its rules' view chains
    for (const std::vector<std::string>& views : w_.top_rules) {
      std::vector<std::string> rels;
      for (const std::string& v : views) {
        const std::vector<std::string>& chain = w_.views.at(v);
        rels.insert(rels.end(), chain.begin(), chain.end());
      }
      NodeSet part = Chain(rels, x);
      out.insert(part.begin(), part.end());
    }
    return out;
  };

  std::vector<int64_t> sources;
  if (op.bound) {
    sources.push_back(op.a);
  } else if (op.pred == "sg") {
    // sg(X, Y) needs X to start a flat edge at some level: every node
    // with a parent or a flat edge.
    NodeSet all;
    for (int64_t x : Sources("up")) all.insert(x);
    for (int64_t x : Sources("flat")) all.insert(x);
    sources.assign(all.begin(), all.end());
  } else {
    sources = Sources(op.pred == "tc" ? "edge" : "up");
  }
  Answers out;
  for (int64_t x : sources) {
    for (int64_t y : answers_of(x)) out.emplace_back(x, y);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
