#ifndef LDLOPT_PERFBENCH_COMMON_H_
#define LDLOPT_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ldl/ldl.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Converts an engine answer relation of binary integer tuples to sorted
/// pairs. Returns false on any other shape.
bool ToAnswers(const ldl::Relation& rel, Answers* out);

/// Order-independent digest of sorted answers.
uint64_t Fingerprint(const Answers& answers);

/// Runs `op` through the system (Query or AddClause); a query's answers
/// are moved into `answers`. Returns false, with a message on stderr, when
/// the call fails.
bool RunOp(ldl::LdlSystem* sys, const Op& op, ldl::Relation* answers);

/// True iff a query's answers equal `expected`; reports a mismatch on
/// stderr.
bool CheckAnswers(const Op& op, const ldl::Relation& got,
                  const Answers& expected);

/// Loads the program text into a fresh system, collects statistics, and
/// runs the warm-up queries (one per class, so the base indexes the stream
/// probes exist), moving their answers into `answers`. Returns nullptr,
/// with a message on stderr, when any step fails.
std::unique_ptr<ldl::LdlSystem> SetUp(const std::string& program_text,
                                      const std::vector<Op>& warmups,
                                      std::vector<ldl::Relation>* answers);

/// SetUp with the workload's warm-up queries, whose answers are then
/// checked against the oracle. Returns nullptr on any failure.
std::unique_ptr<ldl::LdlSystem> SetUpChecked(const Workload& w,
                                             const std::string& program_text,
                                             uint64_t seed,
                                             const Oracle& oracle);

/// One warm-up query per class, drawn from a stream separate from the
/// measured one.
std::vector<Op> WarmupOps(const Workload& w, uint64_t seed);

double Median(std::vector<double> v);

/// A named metric value for the result line, in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the contract's result object as the last line of stdout.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// The traced run (--trace 1): replays a fixed prefix of the stream through
/// each layer's public functions and prints the per-layer metrics. Returns
/// the process exit code.
int RunTraced(const Workload& w, const std::string& program_text,
              uint64_t seed, const std::string& spans_path);

}  // namespace perfbench

#endif  // LDLOPT_PERFBENCH_COMMON_H_
