#include "common/thread_pool.h"

#include <algorithm>

#include "common/env_config.h"
#include "obs/telemetry.h"

namespace cit {
namespace {

// True while this thread is executing a ParallelFor body (worker or
// caller). Nested ParallelFor calls from such a thread run inline.
thread_local bool t_in_parallel_region = false;

}  // namespace

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(NumThreads());
  return *pool;
}

namespace {
// Absolute bound on workers a pool will ever spawn.
constexpr int kHardMaxThreads = 64;

// Effective cap: hardware concurrency unless CIT_OVERSUBSCRIBE lifts the
// clamp (hardware_concurrency() may report 0 when unknown — no clamp then).
int EffectiveMaxThreads() {
  if (AllowOversubscribe()) return kHardMaxThreads;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw >= 1 ? std::min(hw, kHardMaxThreads) : kHardMaxThreads;
}
}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : max_threads_(EffectiveMaxThreads()),
      active_threads_(std::clamp(num_threads, 1, max_threads_)) {
  workers_.reserve(static_cast<size_t>(active_threads_ - 1));
  for (int i = 0; i < active_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::SetNumThreads(int n) {
  std::unique_lock<std::mutex> lock(mu_);
  active_threads_ = std::clamp(n, 1, max_threads_);
  // A freshly spawned worker just blocks on work_cv_ until a job arrives.
  while (static_cast<int>(workers_.size()) < active_threads_ - 1) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_job = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && job_id_ != seen_job);
      });
      if (shutdown_) return;
      seen_job = job_id_;
    }
    RunClaims(seen_job);
  }
}

void ThreadPool::RunClaims(uint64_t id) {
  while (true) {
    const std::function<void(int64_t)>* job;
    int64_t index;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (job_id_ != id || next_index_ >= job_end_) return;
      job = job_;
      index = next_index_++;
    }
    {
      CIT_OBS_SPAN("threadpool.task");
      t_in_parallel_region = true;
      (*job)(index);
      t_in_parallel_region = false;
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--unfinished_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t)>& body) {
  if (end <= begin) return;
  bool run_inline = t_in_parallel_region || end - begin == 1 ||
                    active_threads_.load(std::memory_order_relaxed) <= 1;
  uint64_t id = 0;
  if (!run_inline) {
    std::unique_lock<std::mutex> lock(mu_);
    if (job_ != nullptr) {
      run_inline = true;  // another caller's job holds the workers
    } else {
      job_ = &body;
      next_index_ = begin;
      job_end_ = end;
      unfinished_ = end - begin;
      id = ++job_id_;
    }
  }
  if (run_inline) {
    CIT_OBS_COUNT("threadpool.inline_jobs", 1);
    for (int64_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Fork-to-join latency of the whole job; the task spans break the same
  // interval down per index and executing thread.
  CIT_OBS_SPAN("threadpool.job");
  CIT_OBS_COUNT("threadpool.jobs", 1);
  CIT_OBS_GAUGE("threadpool.queue_depth", end - begin);
  work_cv_.notify_all();
  RunClaims(id);  // the caller participates
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return unfinished_ == 0; });
  job_ = nullptr;
}

}  // namespace cit
