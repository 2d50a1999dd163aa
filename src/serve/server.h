#ifndef CIT_SERVE_SERVER_H_
#define CIT_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "market/panel.h"

// The serving front-end around DecideWeights (DESIGN.md §10): a local
// Unix-socket daemon speaking the line protocol in serve/protocol.h.
//
// Threading model — the part the rest of the scaling roadmap leans on:
//   * N worker threads, each owning its own ServedModel replica,
//     constructed *on* that worker thread. Everything thread-affine in the
//     inference stack therefore lands where it is used: the single-owner
//     plan::CompiledFn caches, which pin themselves to the first thread
//     that runs them.
//   * Each worker multiplexes its accepted connections with poll(), so a
//     slow, silent, or half-open client can never stall the worker: socket
//     I/O is non-blocking, EINTR-safe, partial-read/write correct, and
//     SIGPIPE-immune (MSG_NOSIGNAL); a connection that makes no forward
//     progress for request_deadline_ms mid-request or mid-response is
//     dropped, and an idle one after idle_timeout_ms.
//   * Request batching: each worker coalesces the decide requests pending
//     at the end of a poll round (and, with batch_window_us > 0, across a
//     deadline-bounded window) into one ServedModel::DecideBatch forward,
//     then de-interleaves the stacked output weights back onto each
//     connection. Responses stay in per-connection request order: inline
//     replies (ping/stats/swap/errors) queue behind any still-pending
//     batched decide on the same connection.
//   * Checkpoint hot-swap: a "swap <path>" request reads the file once and
//     validates those bytes by loading them into the handling worker's
//     replica (the loader stages and verifies everything before
//     committing, so a bad file changes nothing), then publishes
//     {bytes, generation}. Other workers load the same bytes lazily before
//     their next decision, so no worker reads the file after the swap is
//     acknowledged: rewriting or deleting it cannot change what a
//     generation serves. Weight commits go through Var::mutable_value(),
//     which bumps parameter versions, so each replica's stale compiled
//     plans invalidate and re-record on that replica's own thread.
//   * Every decide response carries the generation of the weights that
//     produced it, which is what makes bitwise serve-vs-library checks
//     possible across a mid-soak swap.
namespace cit::serve {

// One model replica as the server sees it. Implementations must be
// deterministic and stateless across DecideBatch calls (equal panels get
// bitwise-equal weights, in any batch, before/after unrelated calls).
class ServedModel {
 public:
  virtual ~ServedModel() = default;

  virtual int64_t num_assets() const = 0;
  // Minimum rows a decide request's price window must have.
  virtual int64_t min_days() const = 0;

  // Portfolio weights for the transition panel.last_day -> next day, one
  // result per panel. Each result must be bitwise identical to a batch of
  // one on that panel alone; the server sends every flush here, a lone
  // request included.
  virtual std::vector<Result<std::vector<double>>> DecideBatch(
      const std::vector<const market::PricePanel*>& panels) = 0;

  // A batch of one.
  Result<std::vector<double>> Decide(const market::PricePanel& panel) {
    return std::move(DecideBatch({&panel})[0]);
  }

  // Replaces the replica's weights from the bytes of a weights file; must
  // stage and validate before committing (on error the replica is
  // unchanged). Equal bytes must load the same way on every replica.
  virtual Status LoadWeights(const std::vector<uint8_t>& bytes) = 0;
};

// Builds one replica; invoked once per worker, on the worker's thread.
// Returning nullptr fails Server::Start.
using ModelFactory = std::function<std::unique_ptr<ServedModel>()>;

struct ServerConfig {
  std::string socket_path;          // AF_UNIX path (unlinked + rebound)
  int workers = 1;                  // replica-pinned worker threads
  int64_t request_deadline_ms = 2000;  // max stall mid-request/mid-response
  int64_t idle_timeout_ms = 30000;  // drop silent idle connections; 0 = keep
  size_t max_line = size_t{1} << 20;  // request-line byte cap
  int listen_backlog = 64;
  // >0: shrink each accepted connection's kernel send buffer (tests use
  // this to force the slow-reader write-deadline path quickly).
  int sndbuf_bytes = 0;
  // Request batching (per worker): decide requests land on a queue and
  // execute together through ServedModel::DecideBatch, up to max_batch per
  // forward. A lone queued request never waits — it runs at once as a
  // batch of one — and a full batch flushes at once; a partial batch
  // (2..max_batch-1 requests) may wait up to batch_window_us for more
  // arrivals before flushing. max_batch <= 1 makes every decide a batch
  // of one.
  int64_t batch_window_us = 0;
  int max_batch = 8;
  // Flip the obs runtime switch on at Start so the stats endpoint counts
  // (citd sets this; tests manage the flag themselves).
  bool enable_telemetry = false;
};

class Server {
 public:
  Server(ServerConfig config, ModelFactory factory);
  ~Server();  // implies Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket and spawns the workers; returns once every worker
  // has built its replica and is accepting (or an error, fully unwound).
  Status Start();
  // Idempotent: closes the listener, drops live connections, joins.
  void Stop();

  bool running() const;
  // Current published weights generation (0 until the first swap).
  uint64_t generation() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cit::serve

#endif  // CIT_SERVE_SERVER_H_
