// Heap-allocation counter for the benchmark driver. alloc_counter.cpp
// replaces the global operator new/delete of the driver binary only (the
// library is untouched) and counts while counting is switched on.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;  ///< requested bytes of those allocations
  /// Usable bytes allocated minus usable bytes freed while counting: the
  /// growth of the live heap over a counted interval.
  std::int64_t live_bytes = 0;
};

/// Start or stop counting. While off, operator new and delete pay one
/// relaxed load.
void set_alloc_counting(bool on);

/// Allocations and requested bytes counted so far, from every thread.
AllocTotals alloc_totals();

}  // namespace perfbench
