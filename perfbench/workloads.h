#ifndef LDLOPT_PERFBENCH_WORKLOADS_H_
#define LDLOPT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64, kept here so the generated inputs depend on the seed alone
/// and never on the code under test.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

struct Pair {
  int64_t a = 0;
  int64_t b = 0;
};

/// Binary base facts by predicate name, as generated. The program sees them
/// only as LDL text; the oracle reads them directly.
using Facts = std::map<std::string, std::vector<Pair>>;

/// One operation of a workload's closed-loop stream.
struct Op {
  enum Kind { kQuery, kWrite };
  Kind kind = kQuery;
  int cls = 0;       ///< query class (index into Workload::classes)
  std::string pred;  ///< goal predicate, or the written fact's predicate
  bool bound = false;  ///< the goal's first argument is the constant `a`
  int64_t a = 0;
  int64_t b = 0;     ///< second argument of a written fact
  std::string text;  ///< goal text "anc(17, Y)" or clause text "flat(3, 9)."
};

struct Workload {
  std::string name;
  std::string rules;  ///< rule text, loaded before the facts
  Facts facts;
  std::vector<std::string> classes;  ///< query class names
  /// Chain views of the planning workload: view name -> base relations
  /// joined left to right on adjacent arguments.
  std::map<std::string, std::vector<std::string>> views;
  /// Rules of the planning goal predicate: each a chain of views.
  std::vector<std::vector<std::string>> top_rules;
  /// Constants a bound goal draws from, uniformly.
  std::vector<int64_t> constants;
  /// Nodes a written fact draws its arguments from (update_mix).
  std::vector<int64_t> write_nodes;
  /// Operations the traced run replays (a fixed prefix of the stream, so
  /// its counters repeat exactly).
  size_t trace_ops = 0;
  /// Fresh systems built to time set-up; the median is reported.
  int setup_reps = 0;
};

/// Builds workload `name` from `seed`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// The rules followed by every fact, as one LDL program text.
std::string ProgramText(const Workload& w);

/// The workload's operation stream for `seed`. Two streams built from the
/// same workload and seed yield the same operations.
class OpStream {
 public:
  OpStream(const Workload& w, uint64_t seed);
  Op Next();
  /// One query of class `cls` (used for warm-up).
  Op Query(int cls);

 private:
  const Workload& w_;
  SplitMix rng_;
  uint64_t index_ = 0;
  uint64_t reads_ = 0;
};

}  // namespace perfbench

#endif  // LDLOPT_PERFBENCH_WORKLOADS_H_
