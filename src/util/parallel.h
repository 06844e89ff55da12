// parallel.h — deterministic sharded execution over index ranges.
//
// The project's parallelism contract is *bit-identical results for every
// thread count*, so experiments stay reproducible when scaled out:
//
//  * parallel_shards splits [0, n) into one contiguous chunk per worker.
//    Shard boundaries depend on the thread count, so callers must only use
//    it where each index's output is independent of the shard it fell in
//    (element-wise transforms, writes into per-index slots).
//
//  * parallel_for_dynamic hands out single indices from an atomic cursor,
//    for items of very uneven cost (the trace generator's content items,
//    whose session counts span four orders of magnitude). fn(i) writes
//    only what index i owns, so the result cannot depend on which worker
//    claimed which index.
//
//  * parallel_chunked_reduce splits [0, n) into fixed-size chunks whose
//    boundaries depend only on n, hands chunks to workers, and merges the
//    per-chunk accumulators in ascending chunk order on the calling
//    thread, each as soon as every earlier one is merged. Floating-point
//    reductions (RunningStats::merge, Kahan-free sums) therefore produce
//    the same bits at --threads 1 and --threads 64.
//
//  * parallel_chunked_reduce_stateful is the same reduction plus one
//    scratch object per worker (reusable event/peer buffers, a Matcher
//    instance), for chunk work with allocation-heavy inner loops — the
//    simulator's per-swarm sweep is the canonical user.
//
// Chunk boundaries and the fold order depend only on (n, chunk_len), so
// results are the same on every host, whatever its core or NUMA-node
// count.
//
// Exceptions thrown inside workers are captured and rethrown on the
// calling thread (first one wins).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace cl {

/// Resolves a thread-count knob: 0 means "use all hardware threads".
/// Explicit values are capped at max(4 × hardware threads, 16) — past
/// that oversubscription only burns memory on stacks, and an absurd
/// request (--threads 100000) must not crash the process — and clamped
/// to [1, n] when n > 0.
[[nodiscard]] inline unsigned resolve_threads(unsigned requested,
                                              std::size_t n = 0) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  unsigned t = requested == 0 ? hw : requested;
  t = std::min(t, std::max(hw * 4, 16u));
  if (n > 0) {
    t = static_cast<unsigned>(
        std::min<std::size_t>(t, std::max<std::size_t>(1, n)));
  }
  return std::max(1u, t);
}

/// Wall-clock phase breakdown of one parallel_chunked_reduce call
/// (cl simulate --timing). The ascending fold of the per-chunk partials
/// streams on the calling thread while the other workers still process
/// chunks, so the two overlap.
struct ReduceTiming {
  double work_seconds = 0;   ///< whole chunk phase, up to the last fold
  double merge_seconds = 0;  ///< calling thread's time inside merge
};

namespace detail {

/// Runs fn on `workers` std::threads (the calling thread doubles as
/// worker 0), propagating the first exception.
template <typename Fn>
void run_workers(unsigned workers, Fn&& fn) {
  if (workers <= 1) {
    fn(0u);
    return;
  }
  std::exception_ptr error;
  std::mutex error_mutex;
  auto guarded = [&](unsigned worker) {
    try {
      fn(worker);
    } catch (...) {
      const std::lock_guard lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (unsigned w = 1; w < workers; ++w) {
      pool.emplace_back(guarded, w);
    }
  } catch (...) {
    // Thread creation failed (resource exhaustion): join what started —
    // joinable std::thread destructors would otherwise std::terminate.
    for (auto& t : pool) t.join();
    throw;
  }
  guarded(0u);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

/// Splits [0, n) into one contiguous half-open range per shard and calls
/// fn(shard, begin, end) concurrently on `threads` workers. Shard `s`
/// covers indices [s*n/T, (s+1)*n/T), so ranges ascend with the shard
/// index — recombining per-shard output in shard order preserves the
/// sequential index order.
template <typename Fn>
void parallel_shards(std::size_t n, unsigned threads, Fn&& fn) {
  const unsigned t = resolve_threads(threads, n);
  if (n == 0) return;
  if (t <= 1) {
    fn(0u, std::size_t{0}, n);
    return;
  }
  detail::run_workers(t, [&](unsigned shard) {
    const std::size_t begin = n * shard / t;
    const std::size_t end = n * (shard + 1) / t;
    if (begin < end) fn(shard, begin, end);
  });
}

/// Calls fn(i) once for every i in [0, n) on up to `threads` workers that
/// claim indices in ascending order from one atomic cursor: a worker that
/// drew a heavy item simply claims fewer. Which worker runs which index is
/// racy, so fn(i) must write only state owned by index i.
template <typename Fn>
void parallel_for_dynamic(std::size_t n, unsigned threads, Fn&& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> cursor{0};
  detail::run_workers(resolve_threads(threads, n), [&](unsigned) {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < n; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  });
}

/// Default chunk length of parallel_chunked_reduce. Small enough to load-
/// balance skewed work, large enough to amortise the merge.
inline constexpr std::size_t kReduceChunk = 2048;

/// Deterministic parallel reduction over [0, n) with per-worker scratch
/// state.
///
/// The range is cut into fixed-length chunks (boundaries depend only on n,
/// never on the thread count) that workers claim from one atomic cursor.
/// Each worker builds one `make_state()` scratch object the first time it
/// obtains a chunk, constructs every chunk accumulator it processes with
/// `make_acc()`, and folds the chunk with `chunk_fn(state, acc, begin,
/// end)`. The accumulators fold into the result in ascending chunk order,
/// so the result is bit-identical for every thread count, including 1.
///
/// The fold streams: the calling thread (worker 0) folds each partial as
/// soon as every earlier chunk has been folded — between its own chunks,
/// and once it has no chunk left to claim, waiting for the pending ones —
/// and frees it at once, so partials do not pile up until the last chunk
/// ends. Only the calling thread runs `merge`: a fold on another worker
/// would grow the merged result in that thread's allocator arena.
///
/// The worker state must be pure scratch (reusable buffers, matcher
/// instances, ...): which worker processes which chunk is racy, so any
/// state that influenced the accumulators would break determinism.
/// `make_acc` must likewise be safe to call concurrently.
///
/// `timing`, when non-null, receives the wall time of the whole chunk
/// phase, which ends when the last partial is folded, and the calling
/// thread's time inside `merge`, most of which overlaps the chunk work.
template <typename MakeState, typename MakeAcc, typename ChunkFn,
          typename Merge>
auto parallel_chunked_reduce_stateful(std::size_t n, unsigned threads,
                                      MakeState&& make_state,
                                      MakeAcc&& make_acc, ChunkFn&& chunk_fn,
                                      Merge&& merge,
                                      std::size_t chunk_len = kReduceChunk,
                                      ReduceTiming* timing = nullptr) {
  using Acc = decltype(make_acc());
  using Clock = std::chrono::steady_clock;
  Acc total = make_acc();
  if (n == 0) return total;
  chunk_len = std::max<std::size_t>(1, chunk_len);
  const std::size_t chunks = (n + chunk_len - 1) / chunk_len;
  // One slot per chunk: the worker that processes a chunk emplaces its
  // accumulator, then publishes the chunk's status (release) for the
  // folding thread to read (acquire).
  enum : int { kPending = 0, kReady = 1, kFailed = 2 };
  std::vector<std::optional<Acc>> partial(chunks);
  std::vector<std::atomic<int>> status(chunks);
  std::atomic<std::size_t> cursor{0};
  const auto publish = [&](std::size_t c, int value) {
    status[c].store(value, std::memory_order_release);
    status[c].notify_one();
  };

  // Calling thread only: folds chunks in ascending order while the next
  // one is ready; with `wait`, blocks on pending ones until every chunk
  // is folded. Stops at a failed chunk — its worker's exception is what
  // run_workers rethrows.
  std::size_t folded = 0;
  double merge_seconds = 0;
  const auto fold = [&](bool wait) {
    while (folded < chunks) {
      std::atomic<int>& s = status[folded];
      int state = s.load(std::memory_order_acquire);
      if (state == kPending) {
        if (!wait) return;
        s.wait(kPending, std::memory_order_acquire);
        state = s.load(std::memory_order_acquire);
      }
      if (state == kFailed) return;
      const auto merge_start = timing != nullptr ? Clock::now()
                                                 : Clock::time_point{};
      merge(total, *partial[folded]);
      partial[folded].reset();
      if (timing != nullptr) {
        merge_seconds +=
            std::chrono::duration<double>(Clock::now() - merge_start).count();
      }
      ++folded;
    }
  };

  const auto work_start = Clock::now();
  detail::run_workers(resolve_threads(threads, chunks), [&](unsigned worker) {
    // Assignment is racy; results only key off the chunk id.
    const auto next_chunk = [&] {
      return cursor.fetch_add(1, std::memory_order_relaxed);
    };
    const bool folds = worker == 0;
    std::size_t c = next_chunk();
    if (c < chunks) {  // else skip the state construction
      try {
        auto state = make_state();
        while (c < chunks) {
          const std::size_t begin = c * chunk_len;
          const std::size_t end = std::min(n, begin + chunk_len);
          partial[c].emplace(make_acc());
          chunk_fn(state, *partial[c], begin, end);
          publish(c, kReady);
          c = next_chunk();
          if (folds) fold(false);
        }
      } catch (...) {
        // The claimed chunk will never be ready: let the fold stop there.
        if (c < chunks) publish(c, kFailed);
        throw;
      }
    }
    if (folds) fold(true);
  });
  if (timing != nullptr) {
    timing->work_seconds =
        std::chrono::duration<double>(Clock::now() - work_start).count();
    timing->merge_seconds = merge_seconds;
  }
  return total;
}

/// Deterministic parallel reduction over [0, n) — the stateless variant:
/// identical chunking/merge discipline, `chunk_fn(acc, begin, end)`.
template <typename MakeAcc, typename ChunkFn, typename Merge>
auto parallel_chunked_reduce(std::size_t n, unsigned threads,
                             MakeAcc&& make_acc, ChunkFn&& chunk_fn,
                             Merge&& merge,
                             std::size_t chunk_len = kReduceChunk) {
  using Acc = decltype(make_acc());
  return parallel_chunked_reduce_stateful(
      n, threads, [] { return 0; }, std::forward<MakeAcc>(make_acc),
      [&chunk_fn](int, Acc& acc, std::size_t begin, std::size_t end) {
        chunk_fn(acc, begin, end);
      },
      std::forward<Merge>(merge), chunk_len);
}

}  // namespace cl
