// Test/bench-only allocation accounting.
//
// When the build option RLL_COUNT_ALLOCS is ON (the default), the
// translation unit alloc_count.cc defines replacement global operator
// new/delete overloads that count every allocation in a relaxed atomic.
// The overrides are not opt-in: because alloc_count.o defines operator
// new, the linker pulls it out of librll_obs.a to resolve the first
// operator new call it meets, so every binary that links the archive and
// allocates gets the counting allocator, whether or not it ever calls
// AllocationCount(). A deployment build configures
// -DRLL_COUNT_ALLOCS=OFF.
//
// This is an observability instrument, not an allocator: the overrides
// route through malloc/free, so ASan/TSan still see every byte (they
// intercept malloc; only the new/delete type-mismatch check is lost).
// Uses:
//
//   * tests/arena_test.cc asserts the steady-state trainer batch loop
//     performs zero operator-new calls between batches,
//   * bench/micro_ops and bench/serve_load report `allocs_per_op` into
//     their BENCH JSON, which tools/bench_gate gates (may not rise).
//
// With the option OFF, AllocCountingActive() returns false and callers
// skip their assertions / omit the metric.

#ifndef RLL_OBS_ALLOC_COUNT_H_
#define RLL_OBS_ALLOC_COUNT_H_

#include <cstdint>

namespace rll::obs {

/// True when this binary carries the counting operator-new overrides.
bool AllocCountingActive();

/// Process-wide count of operator-new calls (all variants) since start.
/// Monotonic; callers measure deltas. Always 0 when counting is inactive.
uint64_t AllocationCount();

}  // namespace rll::obs

#endif  // RLL_OBS_ALLOC_COUNT_H_
