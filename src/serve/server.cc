#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "nn/checkpoint.h"
#include "obs/telemetry.h"
#include "serve/protocol.h"

namespace cit::serve {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One client connection as seen by its worker. All I/O is non-blocking;
// buffers carry whatever a partial read/write left behind.
struct Conn {
  int fd = -1;
  uint64_t id = 0;  // worker-local, never reused; keys queued batch items
  std::string in;        // bytes received, not yet consumed as lines
  std::string out;       // response bytes not yet accepted by the kernel
  size_t out_off = 0;    // how much of `out` is already sent
  bool read_closed = false;      // peer shut down its write side
  bool close_after_flush = false;  // protocol violation: drain, then drop
  bool io_dead = false;  // this round's read detected a dead peer
  short revents = 0;  // this poll round's events, stashed before any erase
  // Forward-progress deadline: armed while a partial request or pending
  // response exists, re-armed on every completed request / flushed byte.
  int64_t deadline_ms = -1;
  int64_t idle_at_ms = -1;  // drop when idle past this (-1 = never)

  // Per-connection response ordering across the batch queue: every request
  // answered out of line (a batched decide) claims a slot here in request
  // order; inline replies arriving while a slot is pending queue behind it
  // instead of overtaking. Slots drain front-to-back into `out` once ready.
  struct Slot {
    bool ready = false;
    std::string text;
  };
  std::deque<Slot> slots;

  size_t pending_out() const { return out.size() - out_off; }
};

// Appends a response in per-connection request order: directly to the
// socket buffer when nothing is pending, behind the pending slots when a
// batched decide is still in flight.
void Respond(Conn& c, std::string text) {
  if (c.slots.empty()) {
    c.out += text;
  } else {
    c.slots.push_back(Conn::Slot{true, std::move(text)});
  }
}

void DrainReadySlots(Conn& c) {
  while (!c.slots.empty() && c.slots.front().ready) {
    c.out += c.slots.front().text;
    c.slots.pop_front();
  }
}

void CloseFd(int fd) {
  int rc;
  do {
    rc = ::close(fd);
  } while (rc != 0 && errno == EINTR);
}

}  // namespace

struct Server::Impl {
  ServerConfig config;
  ModelFactory factory;

  int listen_fd = -1;
  std::vector<std::thread> workers;
  std::atomic<bool> stop{false};
  bool started = false;

  // Worker start handshake: Start() returns only after every worker built
  // its replica (factory runs on the worker thread so thread-affine state
  // — compiled-plan ownership — pins where it will be used).
  std::mutex start_mu;
  std::condition_variable start_cv;
  int workers_ready = 0;
  int workers_failed = 0;

  // Hot-swap publication: a successful "swap" validates+commits the file's
  // bytes on the handling worker, then publishes those bytes and bumps the
  // generation, both under swap_mu. Other workers notice the bump and load
  // the published bytes lazily.
  std::mutex swap_mu;
  std::shared_ptr<const std::vector<uint8_t>> swap_bytes;
  std::atomic<uint64_t> generation{0};

  struct Worker {
    std::unique_ptr<ServedModel> replica;
    uint64_t local_gen = 0;
  };

  // One decide request parked on the worker's batch queue, keyed back to
  // its connection by id (ids are never reused, so a connection dropped
  // while its request is queued just discards the response).
  struct PendingDecide {
    uint64_t conn_id;
    market::PricePanel panel;
  };
  struct BatchState {
    std::deque<PendingDecide> queue;
    int64_t deadline_us = -1;  // flush-by time for the oldest queued item
  };

  void WorkerMain();
  void MaybeReload(Worker& w);
  void HandleLine(Worker& w, Conn& c, std::string_view line, BatchState& bs);
  void HandleDecide(Worker& w, Conn& c, const Request& req, BatchState& bs);
  std::string HandleSwap(Worker& w, const Request& req);
  void FlushBatches(Worker& w, std::vector<Conn>& conns, BatchState& bs);
  void ExecuteBatch(Worker& w, std::vector<Conn>& conns, BatchState& bs);

  // Drains the socket into conn.in. Returns false if the connection died
  // (error/reset); EOF just marks read_closed.
  bool ReadInto(Conn& conn);
  // Pushes pending response bytes. Returns false if the peer is gone.
  bool FlushOut(Conn& conn);
};

Server::Server(ServerConfig config, ModelFactory factory)
    : impl_(new Impl) {
  impl_->config = std::move(config);
  impl_->factory = std::move(factory);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  Impl& im = *impl_;
  if (im.started) return Status::FailedPrecondition("server already started");
  if (im.config.workers < 1) {
    return Status::InvalidArgument("server needs at least one worker");
  }
  im.config.max_batch = std::max(im.config.max_batch, 1);
  im.config.batch_window_us = std::max<int64_t>(im.config.batch_window_us, 0);
  if (!im.factory) {
    return Status::InvalidArgument("server needs a model factory");
  }

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (im.config.socket_path.empty() ||
      im.config.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unusable socket path: \"" +
                                   im.config.socket_path + "\"");
  }
  std::memcpy(addr.sun_path, im.config.socket_path.c_str(),
              im.config.socket_path.size() + 1);

  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  // A previous run's stale socket file would make bind fail with EADDRINUSE.
  ::unlink(im.config.socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int e = errno;
    CloseFd(fd);
    return Status::IoError("bind " + im.config.socket_path + ": " +
                           std::strerror(e));
  }
  if (::listen(fd, im.config.listen_backlog) != 0) {
    const int e = errno;
    CloseFd(fd);
    ::unlink(im.config.socket_path.c_str());
    return Status::IoError(std::string("listen: ") + std::strerror(e));
  }
  im.listen_fd = fd;
  im.stop.store(false, std::memory_order_relaxed);
  im.workers_ready = 0;
  im.workers_failed = 0;

  if (im.config.enable_telemetry) obs::SetEnabled(true);

  im.workers.reserve(static_cast<size_t>(im.config.workers));
  for (int i = 0; i < im.config.workers; ++i) {
    im.workers.emplace_back([this] { impl_->WorkerMain(); });
  }
  {
    std::unique_lock<std::mutex> lock(im.start_mu);
    im.start_cv.wait(lock, [&im] {
      return im.workers_ready + im.workers_failed == im.config.workers;
    });
    if (im.workers_failed > 0) {
      lock.unlock();
      im.started = true;  // so Stop() tears everything down
      Stop();
      return Status::Internal("model factory failed on a worker thread");
    }
  }
  im.started = true;
  CIT_OBS_GAUGE("serve.workers", im.config.workers);
  return Status::OK();
}

void Server::Stop() {
  Impl& im = *impl_;
  if (!im.started) return;
  im.stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : im.workers) {
    if (t.joinable()) t.join();
  }
  im.workers.clear();
  if (im.listen_fd >= 0) {
    CloseFd(im.listen_fd);
    im.listen_fd = -1;
    ::unlink(im.config.socket_path.c_str());
  }
  im.started = false;
}

bool Server::running() const { return impl_->started; }

uint64_t Server::generation() const {
  return impl_->generation.load(std::memory_order_acquire);
}

bool Server::Impl::ReadInto(Conn& conn) {
  for (;;) {
    char buf[4096];
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      // Keep draining; a request can span many reads.
      continue;
    }
    if (n == 0) {  // orderly shutdown of the peer's write side
      conn.read_closed = true;
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;  // ECONNRESET and friends
  }
}

bool Server::Impl::FlushOut(Conn& conn) {
  while (conn.pending_out() > 0) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off, conn.pending_out(),
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      // Any flushed byte is forward progress: re-arm the stall deadline.
      conn.deadline_ms = NowMs() + config.request_deadline_ms;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // EPIPE (suppressed signal), ECONNRESET, ...
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

void Server::Impl::MaybeReload(Impl::Worker& w) {
  if (generation.load(std::memory_order_acquire) == w.local_gen) return;
  uint64_t gen = 0;
  std::shared_ptr<const std::vector<uint8_t>> bytes;
  {
    std::lock_guard<std::mutex> lock(swap_mu);
    gen = generation.load(std::memory_order_relaxed);
    bytes = swap_bytes;
  }
  // The swapping worker's replica already loaded these bytes, and every
  // replica comes from the same factory, so this load cannot fail.
  const Status s = w.replica->LoadWeights(*bytes);
  CIT_CHECK_MSG(s.ok(), s.message().c_str());
  w.local_gen = gen;
}

void Server::Impl::HandleDecide(Impl::Worker& w, Conn& c, const Request& req,
                                BatchState& bs) {
  CIT_OBS_COUNT("serve.decides", 1);
  ServedModel& model = *w.replica;
  if (req.cols != model.num_assets()) {
    CIT_OBS_COUNT("serve.input_errors", 1);
    Respond(c, FormatError("input", "model serves " +
                                        std::to_string(model.num_assets()) +
                                        " assets, request has " +
                                        std::to_string(req.cols)));
    return;
  }
  if (req.rows < model.min_days()) {
    CIT_OBS_COUNT("serve.input_errors", 1);
    Respond(c, FormatError("input", "model needs >= " +
                                        std::to_string(model.min_days()) +
                                        " days, request has " +
                                        std::to_string(req.rows)));
    return;
  }
  market::PricePanel panel(req.rows, req.cols);
  for (int64_t d = 0; d < req.rows; ++d) {
    for (int64_t a = 0; a < req.cols; ++a) {
      panel.SetClose(d, a, req.prices[static_cast<size_t>(d * req.cols + a)]);
    }
  }
  panel.set_train_end(req.rows);
  // Park the request on the batch queue; its response slot keeps later
  // inline replies on this connection from overtaking it.
  c.slots.push_back(Conn::Slot{});
  if (bs.queue.empty()) bs.deadline_us = NowUs() + config.batch_window_us;
  bs.queue.push_back(PendingDecide{c.id, std::move(panel)});
}

static Conn* FindConn(std::vector<Conn>& conns, uint64_t id) {
  for (Conn& c : conns) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

// Pops and executes one batch of up to max_batch queued decides (a lone
// request is a batch of one): one DecideBatch forward, then de-interleaves
// the responses back onto each connection's first unanswered slot — queue
// order and per-connection slot order agree, both are request order.
void Server::Impl::ExecuteBatch(Impl::Worker& w, std::vector<Conn>& conns,
                                BatchState& bs) {
  const size_t k = std::min(bs.queue.size(),
                            static_cast<size_t>(config.max_batch));
  std::vector<PendingDecide> items;
  items.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    items.push_back(std::move(bs.queue.front()));
    bs.queue.pop_front();
  }
  CIT_OBS_HIST("serve.batch_size", k);
  std::vector<std::string> texts(k);
  MaybeReload(w);
  {
    CIT_OBS_SPAN("serve.batch_us");
    if (k > 1) CIT_OBS_COUNT("serve.batched_requests", k);
    std::vector<const market::PricePanel*> panels;
    panels.reserve(k);
    for (const PendingDecide& pd : items) panels.push_back(&pd.panel);
    std::vector<Result<std::vector<double>>> results =
        w.replica->DecideBatch(panels);
    for (size_t i = 0; i < k; ++i) {
      if (!results[i].ok()) {
        CIT_OBS_COUNT("serve.input_errors", 1);
        texts[i] = FormatError("input", results[i].status().message());
      } else {
        texts[i] = FormatDecideResponse(w.local_gen, results[i].value());
      }
    }
  }
  for (size_t i = 0; i < k; ++i) {
    Conn* c = FindConn(conns, items[i].conn_id);
    if (c == nullptr) continue;  // connection died while queued: discard
    for (Conn::Slot& s : c->slots) {
      if (!s.ready) {
        s.ready = true;
        s.text = std::move(texts[i]);
        break;
      }
    }
  }
}

void Server::Impl::FlushBatches(Impl::Worker& w, std::vector<Conn>& conns,
                                BatchState& bs) {
  // Full batches never wait for the window.
  while (bs.queue.size() >= static_cast<size_t>(config.max_batch)) {
    ExecuteBatch(w, conns, bs);
  }
  if (bs.queue.empty()) {
    bs.deadline_us = -1;
    return;
  }
  // A lone request never waits (it runs as a batch of one); a partial
  // batch may hold on for up to batch_window_us.
  if (bs.queue.size() == 1 || NowUs() >= bs.deadline_us) {
    while (!bs.queue.empty()) ExecuteBatch(w, conns, bs);
    bs.deadline_us = -1;
  }
}

std::string Server::Impl::HandleSwap(Impl::Worker& w, const Request& req) {
  // The file is read exactly once: these bytes are what every replica
  // serves under the new generation.
  auto bytes = std::make_shared<std::vector<uint8_t>>();
  Status s = nn::ReadFileBytes(req.path, bytes.get());
  std::lock_guard<std::mutex> lock(swap_mu);
  // Validate by loading into this worker's replica; on failure nothing
  // changed anywhere and the old generation keeps serving.
  if (s.ok()) s = w.replica->LoadWeights(*bytes);
  if (!s.ok()) {
    CIT_OBS_COUNT("serve.swap_errors", 1);
    return FormatError("model", "swap rejected: " + s.message());
  }
  swap_bytes = std::move(bytes);
  const uint64_t gen =
      generation.fetch_add(1, std::memory_order_acq_rel) + 1;
  w.local_gen = gen;
  CIT_OBS_COUNT("serve.swaps", 1);
  CIT_OBS_GAUGE("serve.generation", gen);
  return "ok swapped " + std::to_string(gen) + "\n";
}

// Parses and dispatches one request line. Decides are parked on the batch
// queue (the span then covers parse+enqueue; execution is timed by
// serve.batch_us); everything else responds in place, behind any pending
// slots on the same connection so responses keep request order.
void Server::Impl::HandleLine(Impl::Worker& w, Conn& c, std::string_view line,
                              BatchState& bs) {
  CIT_OBS_SPAN("serve.request_us");
  CIT_OBS_COUNT("serve.requests", 1);
  const Request req = ParseRequest(line);
  switch (req.kind) {
    case Request::kPing:
      MaybeReload(w);  // keep ping's generation fresh
      Respond(c, "ok pong " + std::to_string(w.local_gen) + "\n");
      return;
    case Request::kStats:
      Respond(c, obs::Registry::Global().SnapshotJson() + "\n");
      return;
    case Request::kDecide:
      HandleDecide(w, c, req, bs);
      return;
    case Request::kSwap:
      Respond(c, HandleSwap(w, req));
      return;
    case Request::kBad:
    default:
      if (req.error_code == "input") {
        CIT_OBS_COUNT("serve.input_errors", 1);
      } else {
        CIT_OBS_COUNT("serve.proto_errors", 1);
      }
      Respond(c, FormatError(req.error_code, req.error));
      return;
  }
}

void Server::Impl::WorkerMain() {
  Worker w;
  w.replica = factory ? factory() : nullptr;
  {
    std::lock_guard<std::mutex> lock(start_mu);
    if (w.replica == nullptr) {
      ++workers_failed;
    } else {
      ++workers_ready;
    }
  }
  start_cv.notify_all();
  if (w.replica == nullptr) return;

  std::vector<Conn> conns;
  std::vector<pollfd> pfds;
  BatchState bs;
  uint64_t next_conn_id = 1;

  auto drop = [&](size_t i) {
    CloseFd(conns[i].fd);
    conns.erase(conns.begin() + static_cast<ptrdiff_t>(i));
  };

  while (!stop.load(std::memory_order_relaxed)) {
    pfds.clear();
    pfds.push_back({listen_fd, POLLIN, 0});
    const int64_t now = NowMs();
    // Poll timeout: short enough to observe `stop` and the nearest
    // per-connection deadline, long enough not to spin.
    int64_t timeout = 50;
    for (const Conn& c : conns) {
      pollfd p{c.fd, 0, 0};
      if (!c.read_closed && !c.close_after_flush) p.events |= POLLIN;
      if (c.pending_out() > 0) p.events |= POLLOUT;
      pfds.push_back(p);
      for (int64_t dl : {c.deadline_ms, c.idle_at_ms}) {
        if (dl >= 0) timeout = std::min(timeout, std::max<int64_t>(dl - now, 0));
      }
    }
    if (bs.deadline_us >= 0) {
      // Wake in time to flush a waiting partial batch (round up so a
      // sub-millisecond window still sleeps at most one extra ms).
      const int64_t left_ms = (bs.deadline_us - NowUs() + 999) / 1000;
      timeout = std::min(timeout, std::max<int64_t>(left_ms, 0));
    }
    const int rc = ::poll(pfds.data(), pfds.size(), static_cast<int>(timeout));
    if (rc < 0 && errno != EINTR) break;  // poll itself failed: give up

    // Stash revents on the connections now: accepting appends to `conns`
    // and dropping erases from it, either of which would break the
    // conns[i] <-> pfds[i+1] index correspondence.
    for (size_t i = 1; i < pfds.size(); ++i) {
      conns[i - 1].revents = rc > 0 ? pfds[i].revents : 0;
    }

    // Accept everything pending; every worker polls the shared listen fd
    // and the kernel spreads wakeups across them.
    if (rc > 0 && (pfds[0].revents & POLLIN)) {
      for (;;) {
        const int cfd =
            ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) {
          if (errno == EINTR) continue;
          break;  // EAGAIN: another worker won the race, or queue drained
        }
        if (config.sndbuf_bytes > 0) {
          const int v = config.sndbuf_bytes;
          ::setsockopt(cfd, SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
        }
        Conn c;
        c.fd = cfd;
        c.id = next_conn_id++;
        c.revents = POLLIN;  // probe immediately; a no-data read is cheap
        if (config.idle_timeout_ms > 0) {
          c.idle_at_ms = NowMs() + config.idle_timeout_ms;
        }
        conns.push_back(std::move(c));
        CIT_OBS_COUNT("serve.accepts", 1);
      }
    }

    // Pass A — ingest: read every readable connection and consume its
    // complete lines. Handling runs inline on this worker, on this
    // worker's replica — that is what keeps plan ownership single; decide
    // requests are parked on the batch queue instead of executing here.
    for (Conn& c : conns) {
      c.io_dead = false;
      if (c.revents & (POLLERR | POLLNVAL)) {
        c.io_dead = true;
        continue;
      }
      if ((c.revents & (POLLIN | POLLHUP)) && !c.read_closed &&
          !c.close_after_flush) {
        if (!ReadInto(c)) {
          c.io_dead = true;
          continue;
        }
      }
      while (!c.close_after_flush) {
        const size_t nl = c.in.find('\n');
        if (nl == std::string::npos) {
          if (c.in.size() > config.max_line) {
            CIT_OBS_COUNT("serve.oversized", 1);
            Respond(c, FormatError("oversized",
                                   "request line exceeds " +
                                       std::to_string(config.max_line) +
                                       " bytes"));
            c.close_after_flush = true;
            c.in.clear();
          }
          break;
        }
        std::string line = c.in.substr(0, nl);
        c.in.erase(0, nl + 1);
        if (line.size() > config.max_line) {
          CIT_OBS_COUNT("serve.oversized", 1);
          Respond(c, FormatError("oversized",
                                 "request line exceeds " +
                                     std::to_string(config.max_line) +
                                     " bytes"));
          c.close_after_flush = true;
          c.in.clear();
          break;
        }
        HandleLine(w, c, line, bs);
        // A completed request is forward progress.
        c.deadline_ms = NowMs() + config.request_deadline_ms;
      }
    }

    // Batcher: execute whatever the flush policy says is due and route the
    // responses onto each connection's pending slots.
    FlushBatches(w, conns, bs);

    // Pass B — egress and lifecycle.
    for (size_t i = 0; i < conns.size();) {
      Conn& c = conns[i];
      DrainReadySlots(c);
      bool alive = !c.io_dead;
      if (alive) alive = FlushOut(c);
      // Dead peer, or nothing left to send after a protocol violation or a
      // clean end of session.
      const bool drained = c.slots.empty() && c.pending_out() == 0;
      if (!alive || (drained && (c.close_after_flush ||
                                 (c.read_closed && c.in.empty())))) {
        CIT_OBS_COUNT("serve.disconnects", 1);
        drop(i);
        continue;
      }

      const int64_t t = NowMs();
      if (!c.in.empty() || c.pending_out() > 0 || !c.slots.empty()) {
        // Work pending (buffered bytes, unsent response, or a decide still
        // waiting in the batch window): stall deadline armed, idle clock
        // paused.
        if (c.deadline_ms < 0) c.deadline_ms = t + config.request_deadline_ms;
        c.idle_at_ms = -1;
        if (c.deadline_ms <= t) {
          CIT_OBS_COUNT("serve.deadline_drops", 1);
          drop(i);
          continue;
        }
      } else {
        c.deadline_ms = -1;
        if (c.idle_at_ms < 0 && config.idle_timeout_ms > 0) {
          c.idle_at_ms = t + config.idle_timeout_ms;
        }
        if (c.idle_at_ms >= 0 && c.idle_at_ms <= t) {
          CIT_OBS_COUNT("serve.idle_drops", 1);
          drop(i);
          continue;
        }
      }
      ++i;
    }
  }

  for (Conn& c : conns) CloseFd(c.fd);
}

}  // namespace cit::serve
