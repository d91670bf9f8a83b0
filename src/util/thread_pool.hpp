// Fixed-size worker pool with a blocking task queue and a parallel_for
// helper. Used by the parallel ray caster ("our generator uses a parallel
// ray-caster on 32 processors", paper section 3.4), by sample-view
// synthesis and by the segmented LZ77 parse that encodes each view set.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace lon {

class ThreadPool {
 public:
  /// Starts `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future resolves when it finishes.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [begin, end) across the pool, blocking until all
  /// iterations finish. Work is divided into contiguous chunks (two per
  /// worker by default) to keep cache behaviour friendly for image tiles.
  /// With one chunk, or when called from one of this pool's own workers, the
  /// range runs inline on the calling thread, so a nested parallel_for never
  /// waits on the pool it runs in.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn, std::size_t chunks = 0);

  /// The process-wide shared worker pool (LoRS stripe verification,
  /// sample-view synthesis and the LZ77 segments of every view-set encode).
  /// Sized from LON_POOL_THREADS when set, otherwise hardware concurrency.
  /// Constructed on first use and never destroyed before exit; safe to call
  /// from any thread.
  ///
  /// Ownership rule (DESIGN.md section 10): the simulator thread owns all
  /// virtual-time state; pool workers only run pure CPU work (checksums,
  /// LZ77 segments, sample views, ray-cast tiles) over disjoint data and
  /// must never touch the simulator, the network, or the tracer. The caller
  /// allocates every buffer a worker writes before it fans out: each worker
  /// thread has its own malloc arena, which keeps what it freed resident.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::jthread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace lon
