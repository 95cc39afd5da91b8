#include "util/thread_pool.hpp"

#include "core/config.hpp"
#include "telemetry/telemetry.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace surfos::util {

namespace {

// True on pool workers always, and on a loop's caller while its loop runs.
thread_local bool t_in_region = false;

std::size_t auto_degree() {
  // The pool is built once per process, so SURFOS_THREADS is a
  // construction-time knob; its default 0 means one worker per core.
  if (const std::size_t threads = core::knob(core::Knob::kThreads)) {
    return threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// One parallel_for in flight: a chunk cursor plus completion accounting.
/// Held by shared_ptr so late-waking workers can safely probe an already
/// finished loop.
struct LoopState {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::size_t chunk_count = 0;
  const std::function<void(std::size_t, std::size_t)>* range_fn = nullptr;
  /// The submitting thread's ambient trace context: workers adopt it while
  /// draining this loop, so traced spans inside the body keep the intent's
  /// trace id across the pool boundary.
  telemetry::TraceContext trace{};

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_chunks{0};

  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;                 // from the lowest-index chunk
  std::size_t error_chunk = std::numeric_limits<std::size_t>::max();

  bool exhausted() const noexcept {
    return next_chunk.load(std::memory_order_relaxed) >= chunk_count;
  }

  /// Runs chunks until the cursor is exhausted. Returns when this thread
  /// can grab no more work (other threads may still be running chunks).
  void drain() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunk_count) return;
      const std::size_t b = begin + c * chunk;
      const std::size_t e = std::min(end, b + chunk);
      try {
        (*range_fn)(b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
      if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          chunk_count) {
        std::lock_guard<std::mutex> lock(mutex);
        done_cv.notify_all();
      }
    }
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [this] {
      return done_chunks.load(std::memory_order_acquire) == chunk_count;
    });
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable work_cv;
  std::deque<std::shared_ptr<LoopState>> queue;
  bool stopping = false;

  explicit Impl(std::size_t worker_count) {
    workers.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    work_cv.notify_all();
    for (auto& t : workers) t.join();
  }

  void worker_loop() {
    t_in_region = true;
    for (;;) {
      std::shared_ptr<LoopState> loop;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [this] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        // A loop stays at the head until its cursor is exhausted so every
        // waking worker joins it; exhausted loops are dropped here.
        while (!queue.empty() && queue.front()->exhausted()) queue.pop_front();
        if (queue.empty()) continue;
        loop = queue.front();
      }
      {
        const telemetry::TraceScope trace_scope(loop->trace);
        loop->drain();
      }
    }
  }

  void run(const std::shared_ptr<LoopState>& state) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(state);
    }
    work_cv.notify_all();
    state->drain();
    state->wait();
    std::lock_guard<std::mutex> lock(mutex);
    while (!queue.empty() && queue.front()->exhausted()) queue.pop_front();
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : degree_(threads == 0 ? auto_degree() : threads) {
  if (degree_ > 1) impl_ = new Impl(degree_ - 1);
}

ThreadPool::~ThreadPool() { delete impl_; }

bool ThreadPool::in_parallel_region() noexcept { return t_in_region; }

void ThreadPool::run_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& range_fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Dispatch count is structural (one per parallel loop issued), so it is
  // identical under any SURFOS_THREADS value; which *path* a dispatch takes
  // is a scheduling detail and tracked by the non-deterministic counters.
  SURFOS_COUNT("util.pool.dispatches");
  // Serial path: SURFOS_THREADS=1, tiny ranges, or a call nested inside a
  // running loop (running inline avoids deadlock and keeps parallelism at
  // one level).
  if (impl_ == nullptr || n == 1 || t_in_region) {
    if (t_in_region) {
      SURFOS_COUNT_SCHED("util.pool.nested_inline", 1);
    } else {
      SURFOS_COUNT_SCHED("util.pool.serial_runs", 1);
    }
    range_fn(begin, end);
    return;
  }
  SURFOS_TRACE_SPAN("util.pool.run");
  auto state = std::make_shared<LoopState>();
  state->begin = begin;
  state->end = end;
  state->trace = telemetry::current_trace();
  // ~4 chunks per thread bounds imbalance from uneven per-index cost while
  // keeping scheduling overhead negligible; chunk geometry only affects
  // which thread runs which indices, so slot-writing callers stay
  // bit-deterministic across any thread count.
  state->chunk = std::max<std::size_t>(1, n / (4 * degree_));
  state->chunk_count = (n + state->chunk - 1) / state->chunk;
  state->range_fn = &range_fn;
  SURFOS_COUNT_SCHED("util.pool.chunks", state->chunk_count);
  {
    // The caller drains chunks too, so it is inside the loop like any
    // worker: loops its chunks issue run inline instead of being handed
    // back to the pool. Restored on every exit path.
    struct RegionScope {
      bool previous = std::exchange(t_in_region, true);
      ~RegionScope() { t_in_region = previous; }
    } region;
    impl_->run(state);
  }
  if (state->error) std::rethrow_exception(state->error);
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>();
  return *g_global_pool;
}

void reset_global_pool(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace surfos::util
