#ifndef LDLOPT_PERFBENCH_CALIBRATION_H_
#define LDLOPT_PERFBENCH_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Host-speed calibration. On a shared machine the same work can run
/// 1.5-2x slower for stretches of 100 ms to minutes, which no amount of
/// sampling inside one run averages out. The calibrator times a small fixed
/// kernel that lives in the benchmark (no code of the system under test):
/// objects holding a string and a shared pointer, vectors of them, and a
/// hash map of id lists, the shape of the engine's inner loops. It
/// allocates from a private arena, so the heap state the program leaves
/// behind does not reach it. It is timed between operations; an
/// operation's wall time times Factor() is its time at the reference speed,
/// at which the kernel takes kReferenceMs.
class Calibrator {
 public:
  /// The kernel's duration that defines reference speed: about what it
  /// takes on a 4-core Xeon container in a quiet period.
  static constexpr double kReferenceMs = 0.15;

  /// Times the kernel unless the latest timing is younger than 5 ms.
  /// Returns the index of the latest timing, to pass to Factor() once the
  /// operation that follows has run.
  size_t Before();
  /// Times one pass of the kernel now; returns the timing's index. One
  /// pass, because the first pass after an operation runs in the caches
  /// the operation left, which is what makes it track the operation's
  /// slowdowns; repeated passes run warm and track them less.
  size_t Measure();
  /// Reference-speed factor for an operation that ran after timing `i`:
  /// kReferenceMs over the mean of timing i and the one after it.
  double Factor(size_t i) const;
  /// Median kernel time over the run.
  double MedianKernelMs() const;

 private:
  /// The kernel's private arena (it needs about 0.7 MB).
  std::vector<std::byte> arena_ = std::vector<std::byte>(2 << 20);
  std::vector<double> kernel_ms_;
  int64_t last_ns_ = 0;
  uint64_t sink_ = 0;  ///< keeps the kernel's work observable
};

}  // namespace perfbench

#endif  // LDLOPT_PERFBENCH_CALIBRATION_H_
