#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace whoiscrf::util {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
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

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelChunks(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t chunks = std::min(n, workers_.size());
  // Everything below lives on this frame. `remaining` is only touched
  // under done_mu, so the last chunk's unlock is its final access: were
  // the count decremented outside the lock, this call could see zero,
  // return and free done_mu while that chunk was still about to lock it.
  size_t remaining = chunks;
  std::exception_ptr error;
  std::mutex error_mu;
  std::mutex done_mu;
  std::condition_variable done_cv;

  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t len = base + (c < extra ? 1 : 0);
    const size_t end = begin + len;
    Submit([&, begin, end, c] {
      try {
        fn(begin, end, c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_all();
    });
    begin = end;
  }

  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  ParallelChunks(n, [&fn](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace whoiscrf::util
