#include "calibration.h"

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <string>
#include <unordered_map>

#include "common.h"

namespace perfbench {

namespace {

constexpr int64_t kMinIntervalNs = 5'000'000;

struct Value {
  int64_t i = 0;
  double d = 0;
  std::string s;
  std::shared_ptr<int> p;
};

/// One pass of the kernel over `arena`; returns a value derived from all
/// its work.
uint64_t Kernel(std::vector<std::byte>* arena) {
  std::pmr::monotonic_buffer_resource mem(arena->data(), arena->size());
  std::pmr::vector<std::pmr::vector<Value>> rows(&mem);
  std::pmr::unordered_map<uint64_t, std::pmr::vector<uint32_t>> buckets(&mem);
  SplitMix rng(11);
  for (uint32_t i = 0; i < 1000; ++i) {
    std::pmr::vector<Value> row(2, &mem);
    row[0].i = static_cast<int64_t>(rng.Next() & 0xffff);
    row[1].i = static_cast<int64_t>(rng.Next() & 0xffff);
    buckets[static_cast<uint64_t>(row[0].i * 31 + row[1].i)].push_back(i);
    rows.push_back(row);
    rows.push_back(rows.back());
  }
  return rows.size() + buckets.size();
}

}  // namespace

size_t Calibrator::Measure() {
  const int64_t t0 = NowNs();
  sink_ += Kernel(&arena_);
  last_ns_ = NowNs();
  kernel_ms_.push_back((last_ns_ - t0) / 1e6);
  return kernel_ms_.size() - 1;
}

size_t Calibrator::Before() {
  if (kernel_ms_.empty() || NowNs() - last_ns_ >= kMinIntervalNs) {
    return Measure();
  }
  return kernel_ms_.size() - 1;
}

double Calibrator::Factor(size_t i) const {
  const double kernel = i + 1 < kernel_ms_.size()
                            ? (kernel_ms_[i] + kernel_ms_[i + 1]) / 2
                            : kernel_ms_[i];
  return kReferenceMs / kernel;
}

double Calibrator::MedianKernelMs() const { return Median(kernel_ms_); }

}  // namespace perfbench
