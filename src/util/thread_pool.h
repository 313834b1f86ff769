// Fixed-size thread pool: the fork-join that runs CRF training's gradient
// shards (the paper fits its models with a parallel L-BFGS), bulk parsing
// in the benches, and the serve front end's long-running worker loops.
//
// ForkJoin hands out items one at a time from an atomic cursor, and the
// calling thread claims items alongside the workers. A call therefore
// finishes even when no worker wakes in time: the caller drains the work
// and then waits only for items already running. The cursor carries the
// call's generation, so a worker that wakes after the call has returned
// finds it exhausted and touches nothing but the pool's own state. A call
// allocates nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace whoiscrf::util {

class ThreadPool {
 public:
  // Starts `num_threads` workers; 0 selects the hardware concurrency
  // (min 1). ForkJoin runs on size() + 1 threads, the caller included, so
  // a pool meant for N running threads holds N - 1 workers.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Runs fn(item, slot) once for every item in [0, n) and returns when all
  // of them have finished. `slot` names the running thread: 0 for the
  // caller, 1..size() for the workers, so per-thread scratch indexed by
  // slot needs size() + 1 entries. Every item runs even when some throw;
  // the first exception observed is rethrown to the caller. Calls from
  // different threads are serialized; fn must not call ForkJoin on the
  // same pool.
  void ForkJoin(size_t n, const std::function<void(size_t, size_t)>& fn);

  // Runs fn(i) for each i in [0, n) through ForkJoin.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Enqueues one task for any worker to run, fire-and-forget (no wait
  // handle; the destructor still drains queued tasks before joining).
  // Long-running service loops (src/serve posts one pop-loop per worker)
  // use this; ForkJoin remains the fork-join interface.
  void Post(std::function<void()> task);

 private:
  using ItemFn = std::function<void(size_t, size_t)>;

  void WorkerLoop(size_t slot);
  // Claims and runs items of fork-join `generation` until its cursor is
  // exhausted or has moved on to a later generation.
  void RunItems(uint32_t generation, size_t n, const ItemFn& fn, size_t slot);

  std::mutex mu_;
  std::condition_variable cv_;       // workers: a task or a fork-join
  std::condition_variable done_cv_;  // ForkJoin's caller: items finished
  // Guarded by mu_.
  std::queue<std::function<void()>> tasks_;
  bool stop_ = false;
  uint32_t generation_ = 0;   // of the current fork-join
  const ItemFn* job_fn_ = nullptr;
  size_t job_n_ = 0;
  std::exception_ptr job_error_;

  // (generation << 32) | next item; a claim is a compare-exchange that
  // fails once the generation has changed.
  std::atomic<uint64_t> cursor_{0};
  std::atomic<size_t> finished_{0};  // items of the current fork-join
  std::mutex fork_mu_;  // serializes ForkJoin callers

  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace whoiscrf::util
