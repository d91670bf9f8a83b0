// Fixed-size worker pool with a blocking task queue and a parallel_for
// helper. Used by the parallel ray caster ("our generator uses a parallel
// ray-caster on 32 processors", paper section 3.4) and by bulk view-set
// (de)compression.
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
  /// iterations finish. Work is divided into contiguous chunks (one per
  /// worker by default) to keep cache behaviour friendly for image tiles.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn, std::size_t chunks = 0);

  /// The process-wide shared worker pool (LoRS stripe verification, server
  /// generation and batch codec work). Sized from LON_POOL_THREADS when set,
  /// otherwise hardware concurrency. Constructed on first use and never
  /// destroyed before exit; safe to call from any thread.
  ///
  /// Ownership rule (DESIGN.md section 10): the simulator thread owns all
  /// virtual-time state; pool workers only run pure CPU work (checksums,
  /// codec chunks, ray-cast tiles) over disjoint data and must never touch
  /// the simulator, the network, or the tracer.
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
