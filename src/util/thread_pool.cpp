#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace lon {

namespace {

// The pool whose worker_loop runs on this thread, if any.
thread_local const ThreadPool* tls_owner = nullptr;

}  // namespace

ThreadPool& ThreadPool::shared() {
  static ThreadPool* pool = [] {
    std::size_t threads = 0;
    if (const char* env = std::getenv("LON_POOL_THREADS"); env != nullptr) {
      threads = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    }
    // Leaked deliberately: workers may still be draining detached work when
    // static destructors run; joining here would be a shutdown hazard.
    return new ThreadPool(threads);
  }();
  return *pool;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // jthread joins in its destructor.
}

void ThreadPool::worker_loop() {
  tls_owner = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t chunks) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (chunks == 0) chunks = std::min(n, size() * 2);
  chunks = std::max<std::size_t>(1, std::min(chunks, n));
  if (chunks == 1 || tls_owner == this) {
    // Inline: one chunk gains nothing from a hand-off, and a worker that
    // queued chunks behind itself and waited could deadlock the pool.
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t per = (n + chunks - 1) / chunks;

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * per;
    const std::size_t hi = std::min(end, lo + per);
    if (lo >= hi) break;
    futures.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Every chunk captures &fn: rethrowing out of the first failed get() while
  // later chunks are still running would leave them calling through a
  // dangling reference. Drain all futures first, then surface the first
  // failure.
  for (auto& f : futures) f.wait();
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace lon
