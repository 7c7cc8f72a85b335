// ldl_perfbench: a seeded, closed-loop stream of operations against one
// LdlSystem, with every answer checked against an independent oracle.
//
//   ldl_perfbench --workload lookup --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// replay instead (traced.cc) and prints the per-layer metrics. The last
// line of stdout is the result object; a human-readable summary precedes it.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "calibration.h"
#include "common.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

/// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
  rank = rank == 0 ? 1 : rank;
  return sorted[rank - 1];
}

/// The highest of p99.9, p99, p95, p90 and p75 that leaves at least ten
/// samples beyond it; the median when there are too few samples for any.
struct Tail {
  double percentile = 50;
  double value = 0;
};
Tail TailOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (n >= rank + 10) return {p, Percentile(samples, p)};
  }
  return {50, Median(samples)};
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / v.size());
}

/// VmHWM, the peak RSS of this process image. (getrusage's ru_maxrss is
/// not used: it keeps the parent's RSS from before exec.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

int RunUntraced(const Workload& w, const std::string& program_text,
                const Args& args) {
  Oracle oracle(w);
  const std::vector<Op> warmups = WarmupOps(w, args.seed);

  // Times are reported at reference speed (calibration.h); the raw wall
  // times go to the summary lines.
  Calibrator cal;

  // Set-up, timed on several fresh systems; the last one is measured.
  std::vector<Answers> warm_expected;
  for (const Op& op : warmups) warm_expected.push_back(oracle.Answer(op));
  std::vector<double> raw_setup_s;
  std::unique_ptr<ldl::LdlSystem> sys;
  std::vector<double> setup_s;
  for (int r = 0; r < w.setup_reps; ++r) {
    // Each set-up starts from a trimmed heap, as in a fresh process; the
    // discarded systems would otherwise leave a seed-dependent heap shape
    // behind that moves peak RSS in 4 MB steps.
    sys.reset();
    malloc_trim(0);
    std::vector<ldl::Relation> warm_answers;
    const size_t calibration = cal.Measure();
    const int64_t t0 = NowNs();
    sys = SetUp(program_text, warmups, &warm_answers);
    raw_setup_s.push_back((NowNs() - t0) / 1e9);
    if (sys == nullptr) return 1;
    cal.Measure();
    setup_s.push_back(raw_setup_s.back() * cal.Factor(calibration));
    for (size_t i = 0; i < warmups.size(); ++i) {
      if (!CheckAnswers(warmups[i], warm_answers[i], warm_expected[i])) {
        return 1;
      }
    }
  }

  // Free goals repeat, so their (expensive) expected answers are computed
  // once; bound goals are cheap to check every time.
  std::unordered_map<std::string, Answers> expected_free;
  struct Sample {
    int cls = -1;  ///< query class; -1 for a write
    double raw_ms = 0;
    size_t calibration = 0;
  };
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  OpStream stream(w, args.seed);
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  ldl::Relation got;
  while (NowNs() < deadline) {
    got = ldl::Relation();  // frees the last answers outside the timed call
    const Op op = stream.Next();
    ++attempted;
    const size_t calibration = cal.Before();
    const int64_t t0 = NowNs();
    const bool ok = RunOp(sys.get(), op, &got);
    const double raw_ms = (NowNs() - t0) / 1e6;
    if (!ok) {
      ++failed;
      continue;
    }
    if (op.kind == Op::kWrite) {
      oracle.AddFact(op.pred, op.a, op.b);
      samples.push_back({-1, raw_ms, calibration});
      continue;
    }
    bool right;
    if (op.bound) {
      right = CheckAnswers(op, got, oracle.Answer(op));
    } else {
      auto it = expected_free.find(op.text);
      if (it == expected_free.end()) {
        it = expected_free.emplace(op.text, oracle.Answer(op)).first;
      }
      right = CheckAnswers(op, got, it->second);
    }
    if (!right) {
      ++failed;
      continue;
    }
    samples.push_back({op.cls, raw_ms, calibration});
  }
  got = ldl::Relation();
  cal.Measure();

  // Throughput is the median over windows of consecutive operations: whole
  // cycles of the stream's pattern (one query per class, and for
  // update_mix the write cycle too) covering at least 250 ms each.
  const size_t cycle =
      w.classes.size() * (w.write_nodes.empty() ? 1 : 4);
  std::vector<std::vector<double>> class_ms(w.classes.size());
  std::vector<std::vector<double>> raw_class_ms(w.classes.size());
  std::vector<double> write_ms;
  std::vector<double> window_qps;
  double window_ms = 0;
  uint64_t window_queries = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const double ms = s.raw_ms * cal.Factor(s.calibration);
    window_ms += ms;
    if (s.cls < 0) {
      write_ms.push_back(ms);
    } else {
      ++window_queries;
      class_ms[s.cls].push_back(ms);
      raw_class_ms[s.cls].push_back(s.raw_ms);
    }
    if ((i + 1) % cycle == 0 && window_ms >= 250) {
      window_qps.push_back(window_queries / (window_ms / 1e3));
      window_ms = 0;
      window_queries = 0;
    }
  }
  if (window_qps.empty()) {
    std::fprintf(stderr, "perfbench: run too short for one throughput window\n");
    return 1;
  }

  std::vector<double> p50s;
  std::vector<double> tails;
  for (size_t c = 0; c < w.classes.size(); ++c) {
    if (class_ms[c].empty()) {
      std::fprintf(stderr, "perfbench: no correct %s queries\n",
                   w.classes[c].c_str());
      return 1;
    }
    const Tail tail = TailOf(class_ms[c]);
    p50s.push_back(Median(class_ms[c]));
    tails.push_back(tail.value);
    const Tail raw_tail = TailOf(raw_class_ms[c]);
    std::printf(
        "class %-4s n=%zu p50=%.4f ms p%g=%.4f ms (raw p50=%.4f p%g=%.4f)\n",
        w.classes[c].c_str(), class_ms[c].size(), p50s.back(),
        tail.percentile, tail.value, Median(raw_class_ms[c]),
        raw_tail.percentile, raw_tail.value);
  }
  if (!write_ms.empty()) {
    const Tail tail = TailOf(write_ms);
    std::printf("write      n=%zu p50=%.4f ms p%g=%.4f ms\n", write_ms.size(),
                Median(write_ms), tail.percentile, tail.value);
  }
  std::printf("throughput windows=%zu median=%.4f 1/s\n", window_qps.size(),
              Median(window_qps));
  std::printf("setup runs=%zu median=%.4f s (raw %.4f s)\n",
              raw_setup_s.size(), Median(setup_s), Median(raw_setup_s));
  std::printf("calibration kernel median=%.4f ms (reference %.2f ms)\n",
              cal.MedianKernelMs(), Calibrator::kReferenceMs);

  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"query_p50_ms", GeoMean(p50s), "ms"},
      {"query_tail_ms", GeoMean(tails), "ms"},
      {"queries_per_s", Median(window_qps), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ldl_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  perfbench::Workload w;
  if (!perfbench::MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string program_text = perfbench::ProgramText(w);
  if (args.trace == 1) {
    return perfbench::RunTraced(w, program_text, args.seed, args.spans);
  }
  return perfbench::RunUntraced(w, program_text, args);
}
