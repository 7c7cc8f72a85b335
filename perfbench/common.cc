#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

bool ToAnswers(const ldl::Relation& rel, Answers* out) {
  out->clear();
  out->reserve(rel.size());
  for (const ldl::Tuple& t : rel.tuples()) {
    if (t.size() != 2 || t[0].kind() != ldl::TermKind::kInt ||
        t[1].kind() != ldl::TermKind::kInt) {
      return false;
    }
    out->emplace_back(t[0].int_value(), t[1].int_value());
  }
  std::sort(out->begin(), out->end());
  return true;
}

uint64_t Fingerprint(const Answers& answers) {
  uint64_t h = 0xcbf29ce484222325ULL ^ answers.size();
  for (const auto& [a, b] : answers) {
    h = SplitMix(h ^ static_cast<uint64_t>(a)).Next();
    h = SplitMix(h ^ static_cast<uint64_t>(b)).Next();
  }
  return h;
}

bool RunOp(ldl::LdlSystem* sys, const Op& op, ldl::Relation* answers) {
  if (op.kind == Op::kWrite) {
    ldl::Status st = sys->AddClause(op.text);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", op.text.c_str(),
                   st.ToString().c_str());
      return false;
    }
    return true;
  }
  ldl::Result<ldl::QueryAnswer> r = sys->Query(op.text);
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: %s? failed: %s\n", op.text.c_str(),
                 r.status().ToString().c_str());
    return false;
  }
  *answers = std::move(r->answers);
  return true;
}

bool CheckAnswers(const Op& op, const ldl::Relation& got,
                  const Answers& expected) {
  Answers pairs;
  if (!ToAnswers(got, &pairs)) {
    std::fprintf(stderr, "perfbench: %s? returned non-integer pairs\n",
                 op.text.c_str());
    return false;
  }
  if (pairs != expected) {
    std::fprintf(stderr,
                 "perfbench: %s? disagrees with oracle (%zu answers, "
                 "expected %zu)\n",
                 op.text.c_str(), pairs.size(), expected.size());
    return false;
  }
  return true;
}

std::unique_ptr<ldl::LdlSystem> SetUp(const std::string& program_text,
                                      const std::vector<Op>& warmups,
                                      std::vector<ldl::Relation>* answers) {
  auto sys = std::make_unique<ldl::LdlSystem>();
  ldl::Status st = sys->LoadProgram(program_text);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: load failed: %s\n",
                 st.ToString().c_str());
    return nullptr;
  }
  sys->RefreshStatistics();
  answers->assign(warmups.size(), ldl::Relation());
  for (size_t i = 0; i < warmups.size(); ++i) {
    if (!RunOp(sys.get(), warmups[i], &(*answers)[i])) return nullptr;
  }
  return sys;
}

std::unique_ptr<ldl::LdlSystem> SetUpChecked(const Workload& w,
                                             const std::string& program_text,
                                             uint64_t seed,
                                             const Oracle& oracle) {
  const std::vector<Op> warmups = WarmupOps(w, seed);
  std::vector<ldl::Relation> answers;
  std::unique_ptr<ldl::LdlSystem> sys =
      SetUp(program_text, warmups, &answers);
  for (size_t i = 0; sys != nullptr && i < warmups.size(); ++i) {
    if (!CheckAnswers(warmups[i], answers[i], oracle.Answer(warmups[i]))) {
      sys.reset();
    }
  }
  return sys;
}

std::vector<Op> WarmupOps(const Workload& w, uint64_t seed) {
  OpStream warm(w, seed ^ 0x77617266ULL);
  std::vector<Op> ops;
  for (size_t c = 0; c < w.classes.size(); ++c) {
    ops.push_back(warm.Query(static_cast<int>(c)));
  }
  return ops;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.12g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
