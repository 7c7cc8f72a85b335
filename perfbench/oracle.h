#ifndef LDLOPT_PERFBENCH_ORACLE_H_
#define LDLOPT_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

using Answers = std::vector<std::pair<int64_t, int64_t>>;

/// Expected answers computed straight from the generated facts, with no
/// code shared with the engine: graph reachability for anc and tc, a level
/// walk for sg, and a hash-join chain walk for the planning views. Writes
/// are folded in through AddFact so update_mix stays checkable.
class Oracle {
 public:
  explicit Oracle(const Workload& w);

  void AddFact(const std::string& pred, int64_t a, int64_t b);

  /// Sorted, duplicate-free answers of a query op.
  Answers Answer(const Op& op) const;

 private:
  using Adjacency = std::unordered_map<int64_t, std::vector<int64_t>>;
  using NodeSet = std::unordered_set<int64_t>;

  const Adjacency& Rel(const std::string& pred) const;
  /// Nodes reachable from `from` by one or more `pred` edges.
  NodeSet Reach(const std::string& pred, int64_t from) const;
  /// sg(x, Y): climb k levels on up, cross one flat edge, descend k on dn.
  NodeSet SameGeneration(int64_t x) const;
  /// Values reachable from `from` along a chain of relations.
  NodeSet Chain(const std::vector<std::string>& rels, int64_t from) const;
  /// Every node appearing as the first argument of `pred`.
  std::vector<int64_t> Sources(const std::string& pred) const;

  const Workload& w_;
  std::unordered_map<std::string, Adjacency> rels_;
  Adjacency empty_;
};

}  // namespace perfbench

#endif  // LDLOPT_PERFBENCH_ORACLE_H_
