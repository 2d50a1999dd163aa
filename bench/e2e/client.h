#ifndef CIT_BENCH_E2E_CLIENT_H_
#define CIT_BENCH_E2E_CLIENT_H_

// Client side of the serving workloads: closed-loop callers on one thread
// over a few non-blocking Unix-socket connections, timing every request
// from its send to its reply and checking every reply byte for byte.

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

#include "e2e.h"

namespace cit::e2e {

// Owns a set of connected, non-blocking AF_UNIX stream sockets.
class Connections {
 public:
  Connections() = default;
  ~Connections() { Close(); }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;
  Connections(Connections&& other) noexcept : fds_(std::move(other.fds_)) {
    other.fds_.clear();
  }
  Connections& operator=(Connections&& other) noexcept;

  // Appends `n` connections to `socket_path`; false if any connect fails.
  bool Open(const std::string& socket_path, int n);
  // Takes ownership of a connected socket.
  void Adopt(int fd) { fds_.push_back(fd); }
  void Close();
  const std::vector<int>& fds() const { return fds_; }

 private:
  std::vector<int> fds_;
};

// Sends `requests` pipelined on fds[i] for every i at once and waits for
// every reply; counts replies that differ from `expected` (same order).
// Set-up traffic: warm-up and checks, never timed per request.
bool ClosedBurst(const std::vector<int>& fds,
                 const std::vector<std::string>& requests,
                 const std::vector<std::string>& expected,
                 int64_t* mismatches);

// Opens `n` connections to a two-worker server so that even-numbered ones
// sit on one worker and odd-numbered ones on the other. Left to the
// accept race, the first worker to wake takes every pending connection,
// so the per-worker load would differ from run to run. Each connection is
// dialled while the other worker is kept busy with `busy_line` decides;
// an attempt whose ping shows the steering failed is redone.
bool BalancedConnections(const std::string& socket_path, int n,
                         const std::string& busy_line, Connections* out,
                         int* attempts);

// Where the client and the server's worker threads run: each on a CPU of
// its own, and every kRotateNs all of them move on to the next CPU, so
// over a run each spends the same time on every CPU. On a shared 4-vCPU
// VM, left to the scheduler, the placement changed serve_light's p50 by
// up to 40% between runs (200 to 280 us, same seed): a wake-up on another
// vCPU costs tens of microseconds there, one on the waker's own almost
// nothing. Pinned for good, a run inherited whatever its CPUs were going
// through: in eight runs of ten in a row serve_heavy's p90 came out twice
// its p50, as if one worker's vCPU ran at half speed. Needs one CPU more
// than the threads it places; with fewer nothing is pinned.
class Placement {
 public:
  static constexpr int64_t kRotateNs = 100'000'000;

  // The calling thread is the client.
  Placement();
  ~Placement();  // the client gets all its CPUs back
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  // Takes the threads started since `before` (ThreadIds() taken before
  // starting them) as the server's workers, replacing earlier ones, and
  // pins every thread.
  void AdoptServer(const std::vector<int>& before);
  // Moves every thread on to the next CPU.
  void Rotate();
  bool active() const { return active_; }

 private:
  void Apply() const;

  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::vector<int> tids_;  // the client first
  size_t step_ = 0;
  bool active_ = false;
};

// Ids of the process's threads, ascending.
std::vector<int> ThreadIds();

struct LoadResult {
  int64_t sent = 0;
  int64_t replied = 0;
  int64_t mismatched = 0;  // replies not byte-equal to the expected line,
                           // or with no request outstanding
  int64_t missing = 0;     // no reply within the grace period
  std::vector<double> latency;  // per reply: us since its request was sent
  double wall_s = 0.0;  // first send to last reply

  int64_t failed() const { return mismatched + missing; }
};

// Closed loop: keeps `depth` requests outstanding on each of `fds` for
// `duration_s`, sending a connection's next request as soon as one of its
// replies arrives; the calling thread spins on the sockets meanwhile. The
// k-th request sent carries line order[k % size]. After the last send,
// replies get `grace_s` before the missing ones count as failed. `placement` (if not null) rotates every kRotateNs. With
// `spans` enabled every request becomes a span named `span_name` from its
// send to its reply, child of the log's root, with request id id_base + k.
LoadResult RunClosedLoop(const std::vector<int>& fds, int depth,
                         double duration_s, const std::vector<int32_t>& order,
                         const std::vector<std::string>& lines,
                         const std::vector<std::string>& expected,
                         double grace_s, Placement* placement, SpanLog* spans,
                         const std::string& span_name, uint64_t id_base);

}  // namespace cit::e2e

#endif  // CIT_BENCH_E2E_CLIENT_H_
