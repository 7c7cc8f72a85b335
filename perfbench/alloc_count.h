#ifndef LDLOPT_PERFBENCH_ALLOC_COUNT_H_
#define LDLOPT_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Heap allocations made by this process so far: calls to any form of
/// operator new, and the bytes they requested. The counting operator
/// new/delete replacements live in alloc_count.cc and are linked into the
/// benchmark binary only.
struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;

  AllocCount operator-(const AllocCount& o) const {
    return {calls - o.calls, bytes - o.bytes};
  }
  AllocCount& operator+=(const AllocCount& o) {
    calls += o.calls;
    bytes += o.bytes;
    return *this;
  }
};

AllocCount AllocNow();

}  // namespace perfbench

#endif  // LDLOPT_PERFBENCH_ALLOC_COUNT_H_
