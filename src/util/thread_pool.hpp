// Shared parallel execution engine.
//
// SurfOS re-optimizes surface configurations online as users move and
// services multiplex; the compute between "environment changed" and "surface
// reprogrammed" is dominated by three embarrassingly-parallel loops (channel
// precompute over RX points / panel pairs, power-map evaluation over RX
// points, and finite-difference / population objective probes). This module
// provides the one process-wide thread pool those loops share. At fleet
// scale the outermost loop is `Fleet::step_all`'s loop over sites, and the
// loops above run inline inside each site's step.
//
// Determinism contract: `parallel_for(begin, end, fn)` runs fn(i) exactly
// once for every i in [begin, end). Callers write results into pre-sized
// output slots (out[i] = ...) and perform any floating-point reduction
// *after* the loop, in index order. Under that discipline results are
// bit-identical regardless of thread count, and `SURFOS_THREADS=1` (a plain
// serial loop, no pool machinery) reproduces them exactly for debugging.
//
// Exceptions thrown by `fn` are captured and the one from the lowest chunk
// index is rethrown on the calling thread after all workers have drained —
// also deterministic under the contract above.
//
// Parallelism happens at one level: the outermost running loop owns the
// pool. A `parallel_for` issued while a loop is running — from a pool worker
// or from the thread that started the loop — runs inline (serially) on the
// issuing thread, so objectives evaluated inside a parallel batch may call
// parallel helpers without deadlocking the pool, and every index of such an
// inner loop runs on one thread. The serial paths (SURFOS_THREADS=1, a
// one-index range) do not open a region: their body is still the outermost
// loop and its inner loops fan out. A nested loop is a plain loop: the free
// parallel_for / run_chunked below test the region flag before they reach
// the global pool, so it takes no lock, builds no std::function and touches
// no shared counter.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace surfos::util {

class ThreadPool {
 public:
  /// `threads` is the total parallelism degree (calling thread included).
  /// 0 means "auto": the SURFOS_THREADS knob when it is not 0, otherwise
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallelism degree (>= 1). 1 means every parallel_for is a serial loop.
  std::size_t thread_count() const noexcept { return degree_; }

  /// Calls fn(i) for every i in [begin, end), distributing contiguous chunks
  /// over the pool; the calling thread participates. Blocks until every
  /// index ran; rethrows the lowest-chunk exception if any fn threw.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    run_chunked(begin, end, [&fn](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) fn(i);
    });
  }

  /// Type-erased core: `range_fn(b, e)` is invoked on half-open subranges
  /// that exactly tile [begin, end). Exposed for callers that want to
  /// amortize per-index work (e.g. per-chunk scratch buffers).
  void run_chunked(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t, std::size_t)>&
                       range_fn);

  /// True while the current thread runs inside a parallel loop, as a pool
  /// worker or as the loop's caller (nested calls run inline).
  static bool in_parallel_region() noexcept;

 private:
  struct Impl;
  Impl* impl_ = nullptr;    // null when degree_ == 1 (pure serial mode)
  std::size_t degree_ = 1;
};

/// The process-wide pool, lazily constructed on first use. Sized from
/// SURFOS_THREADS when it is not 0, else hardware concurrency.
ThreadPool& global_pool();

/// Re-sizes the process-wide pool (tests / benches measuring scaling).
/// `threads` as in the ThreadPool constructor. Must not be called while a
/// parallel_for on the global pool is in flight.
void reset_global_pool(std::size_t threads);

/// Convenience forwarding to the global pool; a nested call runs inline
/// without touching it.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  if (ThreadPool::in_parallel_region()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  global_pool().parallel_for(begin, end, std::forward<Fn>(fn));
}

/// ThreadPool::run_chunked on the global pool; a nested call runs
/// range_fn(begin, end) inline without touching it.
template <typename Fn>
void run_chunked(std::size_t begin, std::size_t end, Fn&& range_fn) {
  if (ThreadPool::in_parallel_region()) {
    if (begin < end) range_fn(begin, end);
    return;
  }
  global_pool().run_chunked(begin, end, std::forward<Fn>(range_fn));
}

}  // namespace surfos::util
