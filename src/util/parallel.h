// Deterministic data-parallel primitives over the shared ThreadPool.
//
// The training hot path (Adam, elementwise autograd kernels, the embedding
// scatter-add) must produce bit-identical results at 1, 2, or N threads so
// any run is reproducible from its seed regardless of the machine it lands
// on. The primitives here make that a structural property instead of a
// per-kernel proof obligation:
//
//   * The iteration space [0, n) is split into fixed-size blocks of `grain`
//     iterations. The partition depends only on (n, grain) — never on the
//     worker count — so block boundaries are identical on every machine.
//   * Blocks are claimed dynamically (atomic cursor), so scheduling stays
//     load-balanced; but a block only ever writes its own outputs or its own
//     partial-reduction slot, so which worker ran it cannot be observed.
//   * Reduction partials are combined on the calling thread in ascending
//     block order (a fixed left-to-right tree). Each block accumulates in
//     double; the combine is a double sum in block order. The serial path
//     performs the same blocked accumulation, so serial == parallel bitwise.
//
// Nested use is safe: a call made from inside a pool worker runs inline
// (the same rule ThreadPool::ParallelFor follows), with identical blocking
// and combine order, so determinism survives nesting too.
//
// The pool used by every kernel in the library is ComputePool(): by default
// the process-global pool (sized by LAYERGCN_NUM_THREADS or the hardware),
// overridable with ScopedComputePool for tests, benchmarks, and the CLI
// --threads flag.

#ifndef LAYERGCN_UTIL_PARALLEL_H_
#define LAYERGCN_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>

#include "util/thread_pool.h"

namespace layergcn::util {
namespace parallel {

/// Default block size for scalar elementwise kernels: large enough that the
/// per-block dispatch (one atomic increment + one std::function call) is
/// noise, small enough that mid-size embedding tables still split. Kernels
/// iterating over rows scale it down by the row width so a block always
/// represents roughly this much scalar work.
///
/// The pool is engaged only when the partition has more than one block (and
/// the pool has more than one worker, and the caller is not already a pool
/// worker); otherwise the same blocked loop runs inline on the caller, so
/// the work-size cutoff is the grain itself.
inline constexpr int64_t kDefaultGrain = 16384;

/// Block size for kernels iterating over rows `cols` wide: one block is
/// roughly kDefaultGrain scalar elements regardless of the row width. Fixed
/// for a given shape, so the blocked partition stays worker-count-free.
inline int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, kDefaultGrain / std::max<int64_t>(cols, 1));
}

/// Number of fixed blocks for an iteration space of `n` at block size
/// `grain` (== ceil(n / grain); 0 when n <= 0).
int64_t NumBlocks(int64_t n, int64_t grain);

/// The pool the compute kernels run on: the ScopedComputePool override if
/// one is active, else ThreadPool::Global().
ThreadPool* ComputePool();

/// RAII override of ComputePool(). Intended for single-threaded
/// orchestration (tests / benchmarks / CLI startup); the override is
/// process-global, not per-thread.
class ScopedComputePool {
 public:
  explicit ScopedComputePool(ThreadPool* pool);
  ~ScopedComputePool();

  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

 private:
  ThreadPool* previous_;
};

/// Runs body(lo, hi) for every fixed block [lo, hi) of [0, n). Blocks may
/// run concurrently and in any order; `body` must write only state owned by
/// its block. Deterministic for any worker count provided each output
/// element is computed by exactly one block (true by construction for
/// elementwise kernels).
void For(int64_t n, const std::function<void(int64_t, int64_t)>& body,
         int64_t grain = kDefaultGrain);

/// Blocked reduction: block(lo, hi) returns its partial (accumulated in
/// double over the block); partials are summed in ascending block order.
/// Bit-exact for any worker count, including the inline/serial path.
double Reduce(int64_t n,
              const std::function<double(int64_t, int64_t)>& block,
              int64_t grain = kDefaultGrain);

}  // namespace parallel
}  // namespace layergcn::util

#endif  // LAYERGCN_UTIL_PARALLEL_H_
