#pragma once
// Shared-memory parallelism primitives, two flavours:
//
//  * parallel_for / parallel_map — thin OpenMP wrappers for data-parallel
//    loops inside one call frame (kernels, per-config solves). Callers pass
//    a callable that owns no shared mutable state; reductions merge
//    thread-local accumulators.
//  * WorkerPool — a persistent std::thread pool with task handles, for
//    coarse long-lived units of work (runtime shards, overlapped batched
//    forwards) that OpenMP's fork/join model fits badly. Waiting on a
//    handle HELPS: the blocked thread executes other queued tasks, so tasks
//    may submit tasks and wait on them from inside the pool without
//    deadlock, and a pool of N threads is safe at any nesting depth.
//
// Grain semantics (parallel_for): `grain` is the minimum number of
// consecutive iterations a worker should own. The loop runs serially unless
// at least two full grains of work exist, and the OpenMP schedule hands out
// chunks of `grain` iterations (schedule(static, grain)), so neighbouring
// indices stay on one thread and fork/join overhead is bounded by the
// caller's cost estimate. Callers with cheap per-iteration bodies must pass
// a large grain (or rely on the conservative default); callers whose items
// are individually expensive (simulations, per-config solves) pass grain 1.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace deepbat {

/// Conservative default grain: loops with bodies this cheap only benefit
/// from threads once they are thousands of iterations long.
inline constexpr std::size_t kDefaultGrain = 256;

/// Number of threads a parallel region will use (1 without OpenMP).
inline int hardware_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Parallel loop over [0, n). `body(i)` must be safe to run concurrently for
/// distinct i. Falls back to a serial loop when OpenMP is unavailable, when
/// fewer than two grains of work exist, or inside an existing parallel
/// region (no nesting).
template <typename Body>
void parallel_for(std::size_t n, Body&& body,
                  std::size_t grain = kDefaultGrain) {
#ifdef _OPENMP
  const std::size_t g = grain == 0 ? 1 : grain;
  if (n >= g * 2 && omp_get_max_threads() > 1 && !omp_in_parallel()) {
    const auto chunk = static_cast<int>(g);
#pragma omp parallel for schedule(static, chunk)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
      body(static_cast<std::size_t>(i));
    }
    return;
  }
#else
  (void)grain;
#endif
  for (std::size_t i = 0; i < n; ++i) body(i);
}

/// Map [0, n) -> T with a parallel loop; results land in index order, so no
/// synchronization is needed beyond the fork/join barrier.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn,
                            std::size_t grain = kDefaultGrain) {
  std::vector<T> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, grain);
  return out;
}

// ---------------------------------------------------------- worker pool --

/// Persistent worker pool for coarse tasks. Submission returns a Handle;
/// Handle::wait() blocks until the task ran somewhere — on a pool worker,
/// or on the waiting thread itself (a waiter drains the queue while its
/// task is pending, which is what makes nested submit-then-wait from
/// inside a pool task deadlock-free). Queue transfer gives the usual
/// release/acquire ordering: everything written before submit() is visible
/// to the task, and everything the task wrote is visible after wait().
///
/// Tasks must not outlive the pool; the destructor finishes queued tasks
/// and joins. An exception escaping a task is captured and rethrown by
/// Handle::rethrow() (wait() itself never throws).
class WorkerPool {
  struct Task {
    std::function<void()> fn;
    bool done = false;
    std::exception_ptr error;
  };

  struct State {
    std::mutex mu;
    std::condition_variable work_cv;  // queue grew or pool is stopping
    std::condition_variable done_cv;  // some task completed
    std::deque<std::shared_ptr<Task>> queue;
    bool stop = false;

    /// Pop and run the front task. Called with `lock` held; returns with it
    /// re-held. The task runs unlocked so other submitters/waiters proceed.
    void run_front(std::unique_lock<std::mutex>& lock) {
      const std::shared_ptr<Task> task = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      try {
        task->fn();
      } catch (...) {
        task->error = std::current_exception();
      }
      task->fn = nullptr;  // release captures eagerly
      lock.lock();
      task->done = true;
      done_cv.notify_all();
    }
  };

 public:
  class Handle {
   public:
    Handle() = default;

    /// Block until the task has run, helping with other queued tasks while
    /// it is pending. No-op on a default-constructed or already-waited
    /// handle. Never throws; the task's exception is held for rethrow().
    void wait() {
      if (task_ == nullptr) return;
      std::unique_lock<std::mutex> lock(state_->mu);
      while (!task_->done) {
        if (!state_->queue.empty()) {
          state_->run_front(lock);
        } else {
          state_->done_cv.wait(lock);
        }
      }
    }

    /// wait(), then rethrow the exception the task exited with (if any).
    void rethrow() {
      wait();
      if (task_ != nullptr && task_->error != nullptr) {
        std::rethrow_exception(std::exchange(task_->error, nullptr));
      }
    }

    bool valid() const { return task_ != nullptr; }

   private:
    friend class WorkerPool;
    Handle(std::shared_ptr<State> state, std::shared_ptr<Task> task)
        : state_(std::move(state)), task_(std::move(task)) {}

    std::shared_ptr<State> state_;
    std::shared_ptr<Task> task_;
  };

  explicit WorkerPool(std::size_t threads)
      : state_(std::make_shared<State>()) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([state = state_] {
        std::unique_lock<std::mutex> lock(state->mu);
        for (;;) {
          state->work_cv.wait(
              lock, [&] { return state->stop || !state->queue.empty(); });
          if (state->queue.empty()) return;  // stop && drained
          state->run_front(lock);
        }
      });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->stop = true;
    }
    state_->work_cv.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  Handle submit(std::function<void()> fn) {
    auto task = std::make_shared<Task>();
    task->fn = std::move(fn);
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->queue.push_back(task);
    }
    state_->work_cv.notify_one();
    return Handle(state_, std::move(task));
  }

 private:
  std::shared_ptr<State> state_;
  std::vector<std::thread> workers_;
};

}  // namespace deepbat
