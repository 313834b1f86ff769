#include "util/thread_pool.h"

#include <algorithm>
#include <stdexcept>

namespace whoiscrf::util {

namespace {

constexpr uint64_t kItemMask = 0xffffffffu;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop(size_t slot) {
  uint32_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] {
      return stop_ || !tasks_.empty() || generation_ != seen;
    });
    if (generation_ != seen) {
      // Snapshot the fork-join under the lock; if it has already finished,
      // RunItems' first claim fails and job_fn_ is never called.
      seen = generation_;
      const ItemFn* fn = job_fn_;
      const size_t n = job_n_;
      lock.unlock();
      RunItems(seen, n, *fn, slot);
      lock.lock();
    } else if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop();
      lock.unlock();
      task();
      lock.lock();
    } else {
      return;  // stop_ with nothing queued
    }
  }
}

void ThreadPool::RunItems(uint32_t generation, size_t n, const ItemFn& fn,
                          size_t slot) {
  const uint64_t tag = static_cast<uint64_t>(generation) << 32;
  uint64_t cur = cursor_.load(std::memory_order_relaxed);
  while (true) {
    if ((cur & ~kItemMask) != tag || (cur & kItemMask) >= n) return;
    if (!cursor_.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_relaxed)) {
      continue;
    }
    try {
      fn(static_cast<size_t>(cur & kItemMask), slot);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job_error_) job_error_ = std::current_exception();
    }
    // Release publishes the item's writes to the caller, which reads
    // finished_ with acquire. The last item wakes the caller under mu_, so
    // the wake-up cannot slip between its check and its wait.
    if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
    cur = cursor_.load(std::memory_order_relaxed);
  }
}

void ThreadPool::ForkJoin(size_t n, const ItemFn& fn) {
  if (n == 0) return;
  if (n > kItemMask) throw std::length_error("ThreadPool::ForkJoin: n");
  std::lock_guard<std::mutex> fork_lock(fork_mu_);
  uint32_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = ++generation_;
    if (generation == 0) generation = ++generation_;  // 0 is "none seen"
    job_fn_ = &fn;
    job_n_ = n;
    job_error_ = nullptr;
    finished_.store(0, std::memory_order_relaxed);
    cursor_.store(static_cast<uint64_t>(generation) << 32,
                  std::memory_order_relaxed);
  }
  if (n > 1) cv_.notify_all();
  RunItems(generation, n, fn, 0);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return finished_.load(std::memory_order_acquire) == n;
    });
    job_fn_ = nullptr;
    error = job_error_;
    job_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ForkJoin(n, [&fn](size_t i, size_t) { fn(i); });
}

}  // namespace whoiscrf::util
