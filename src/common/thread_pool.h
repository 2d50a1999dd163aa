#ifndef CIT_COMMON_THREAD_POOL_H_
#define CIT_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cit {

// A small fixed-size pool that fans out coarse, independent units of work:
// the cells of a sweep (env::RunSweep) and the slots of a rollout
// (rl::RolloutRunner). The math kernels never enter it; each runs serially
// on its calling thread. Design constraints, in order of importance:
//
//  1. Determinism: ParallelFor hands out one index at a time, and a body
//     writes only the output slot of its own index, so which thread ran an
//     index never shows in a result. Every kernel is serial with a fixed
//     per-element reduction order, so an index computes the same floats on
//     any thread, and results are bitwise identical for any thread count.
//  2. No work stealing, no task futures: a ParallelFor is a single fork /
//     join. The calling thread claims indices like a worker does, and the
//     call returns only after every index finished.
//  3. Re-entrancy safety: a ParallelFor issued from inside a body (a sweep
//     cell whose agent collects rollouts, say) runs inline instead of
//     deadlocking on the pool's own workers.
//
// The pool is lazily constructed on first use with NumThreads() - 1
// workers (see env_config.h; CIT_NUM_THREADS sets it). SetNumThreads()
// adjusts the active count at runtime, spawning further workers on demand
// (capped at max_threads()) — used by tests and benchmarks to compare
// thread counts inside one process.
//
// Thread counts above hardware_concurrency() are clamped: oversubscribing
// only adds context switches, and the determinism contract guarantees the
// clamp cannot change any result. Set CIT_OVERSUBSCRIBE=1 to lift the
// clamp (TSan runs do, so races are exercised on any host).
class ThreadPool {
 public:
  // The process-wide pool that runs sweep cells and rollout slots.
  static ThreadPool& Global();

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Threads usable by the next ParallelFor (>= 1, counting the caller).
  int num_threads() const { return active_threads_; }
  // Cap on SetNumThreads (not a promise that this many workers exist yet):
  // min(64, hardware_concurrency) unless CIT_OVERSUBSCRIBE lifts the
  // hardware clamp.
  int max_threads() const { return max_threads_; }
  // Clamped to [1, max_threads()]; spawns missing workers.
  void SetNumThreads(int n);

  // Runs body(i) for every i in [begin, end) and returns once all of them
  // finished; each thread claims one index at a time. The range runs
  // inline on the caller, in ascending order, when it holds one index, one
  // thread is active, the caller is itself inside a ParallelFor body, or
  // another caller's ParallelFor is in flight. `body` must be safe to
  // invoke concurrently for distinct indices.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t)>& body);

 private:
  void WorkerLoop();
  // Claims indices of job `id` one at a time and runs them until none is
  // left (or a newer job replaced it).
  void RunClaims(uint64_t id);

  const int max_threads_;
  std::atomic<int> active_threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: job posted / exit
  std::condition_variable done_cv_;   // signals caller: all indices done
  bool shutdown_ = false;

  // Current fork/join job; indices are claimed from next_index_.
  const std::function<void(int64_t)>* job_ = nullptr;
  int64_t next_index_ = 0;
  int64_t job_end_ = 0;
  int64_t unfinished_ = 0;
  uint64_t job_id_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace cit

#endif  // CIT_COMMON_THREAD_POOL_H_
