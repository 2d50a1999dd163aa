#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>

namespace cit::e2e {

namespace {

int ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (path.size() + 1 > sizeof(addr.sun_path)) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends as much of out[off..] as the socket takes now. False on a dead
// connection.
bool FlushSome(int fd, const std::string& out, size_t* off) {
  while (*off < out.size()) {
    const ssize_t n = ::send(fd, out.data() + *off, out.size() - *off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      *off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
  return true;
}

// Reads whatever is pending. Returns bytes read (0 if none), -1 if the
// peer closed or the connection failed.
ssize_t ReadSome(int fd, char* buf, size_t cap) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, MSG_DONTWAIT);
    if (n > 0) return n;
    if (n == 0) return -1;
    if (errno == EINTR) continue;
    return (errno == EAGAIN || errno == EWOULDBLOCK) ? 0 : -1;
  }
}

int PollNs(std::vector<pollfd>& pfds, int64_t timeout_ns) {
  timespec ts;
  timeout_ns = std::max<int64_t>(timeout_ns, 0);
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
  return ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
}

// Keeps the worker serving `busy` occupied with `n_busy` copies of
// `busy_line`, waits until that worker has read all of them, then
// connects to `socket_path` and pings. While one worker executes decides
// only the other one can accept, so the new connection lands on it.
// *placed says the ping came back well before the busy worker's first
// reply, i.e. that the steering worked; *fd is the new connection (or
// -1). False on an I/O failure.
bool ConnectWhileBusy(int busy, const std::string& socket_path,
                      const std::string& busy_line, int n_busy, int* fd,
                      bool* placed) {
  std::string burst;
  for (int i = 0; i < n_busy; ++i) burst += busy_line;
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + 5'000'000'000;
  size_t off_b = 0;
  std::vector<pollfd> pfds(2);
  // Once the busy worker has read the whole burst it is parsing and
  // executing, not polling.
  for (int queued = 1; off_b < burst.size() || queued > 0;) {
    if (!FlushSome(busy, burst, &off_b) ||
        ::ioctl(busy, TIOCOUTQ, &queued) != 0 || NowNs() > deadline) {
      return false;
    }
  }
  const int64_t connected = NowNs() - t0;
  *fd = ConnectUnix(socket_path);
  if (*fd < 0) return false;
  const std::string ping = "ping\n";
  size_t off_p = 0;
  if (!FlushSome(*fd, ping, &off_p)) return false;

  int busy_lines = 0;
  int64_t busy_first = -1, pong = -1;
  char buf[65536];
  while (busy_lines < n_busy || pong < 0) {
    if (NowNs() > deadline) return false;
    pfds[0] = {busy, static_cast<short>(POLLIN |
                                        (off_b < burst.size() ? POLLOUT : 0)),
               0};
    pfds[1] = {*fd, POLLIN, 0};
    if (PollNs(pfds, 100'000'000) < 0 && errno != EINTR) return false;
    if (!FlushSome(busy, burst, &off_b)) return false;
    const ssize_t nb = ReadSome(busy, buf, sizeof(buf));
    if (nb < 0) return false;
    if (nb > 0 && busy_first < 0) busy_first = NowNs() - t0;
    busy_lines += static_cast<int>(std::count(buf, buf + nb, '\n'));
    const ssize_t np = ReadSome(*fd, buf, sizeof(buf));
    if (np < 0) return false;
    if (np > 0 && pong < 0) pong = NowNs() - t0;
  }
  // Answered by the idle worker: the ping's round trip is a small part
  // of the time the busy worker still needed.
  *placed = 4 * (pong - connected) < busy_first - connected;
  return true;
}

}  // namespace

Placement::Placement() {
  if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
  tids_.push_back(static_cast<int>(::syscall(SYS_gettid)));
}

Placement::~Placement() {
  if (active_) ::sched_setaffinity(tids_[0], sizeof(saved_), &saved_);
}

void Placement::AdoptServer(const std::vector<int>& before) {
  tids_.resize(1);
  for (int tid : ThreadIds()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      tids_.push_back(tid);
    }
  }
  active_ = tids_.size() < cpus_.size();
  Apply();
}

void Placement::Rotate() {
  ++step_;
  Apply();
}

void Placement::Apply() const {
  if (!active_) return;
  for (size_t j = 0; j < tids_.size(); ++j) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(j + step_) % cpus_.size()], &one);
    ::sched_setaffinity(tids_[j], sizeof(one), &one);
  }
}

std::vector<int> ThreadIds() {
  std::vector<int> ids;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(std::atoi(e.path().filename().c_str()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Connections& Connections::operator=(Connections&& other) noexcept {
  if (this != &other) {
    Close();
    fds_ = std::move(other.fds_);
    other.fds_.clear();
  }
  return *this;
}

bool Connections::Open(const std::string& socket_path, int n) {
  for (int i = 0; i < n; ++i) {
    const int fd = ConnectUnix(socket_path);
    if (fd < 0) return false;
    fds_.push_back(fd);
  }
  return true;
}

void Connections::Close() {
  for (int fd : fds_) ::close(fd);
  fds_.clear();
}

bool ClosedBurst(const std::vector<int>& fds,
                 const std::vector<std::string>& requests,
                 const std::vector<std::string>& expected,
                 int64_t* mismatches) {
  const size_t n = fds.size();
  std::string burst;
  for (const std::string& r : requests) burst += r;
  std::vector<size_t> off(n, 0);
  std::vector<ReplyStream> replies(n);
  for (size_t c = 0; c < n; ++c) {
    for (size_t i = 0; i < requests.size(); ++i) {
      replies[c].Expect(static_cast<int64_t>(i), &expected[i]);
    }
  }
  char buf[65536];
  std::vector<pollfd> pfds(n);
  const int64_t deadline = NowNs() + 30'000'000'000;
  for (;;) {
    size_t pending = 0;
    for (size_t c = 0; c < n; ++c) {
      if (!FlushSome(fds[c], burst, &off[c])) return false;
      const ssize_t got = ReadSome(fds[c], buf, sizeof(buf));
      if (got < 0) return false;
      replies[c].Feed(std::string_view(buf, static_cast<size_t>(got)),
                      [&](int64_t, bool ok) {
                        if (!ok) ++*mismatches;
                      });
      pending += replies[c].outstanding();
      pfds[c] = {fds[c],
                 static_cast<short>(POLLIN |
                                    (off[c] < burst.size() ? POLLOUT : 0)),
                 0};
    }
    if (pending == 0) {
      for (const ReplyStream& r : replies) *mismatches += r.unexpected();
      return true;
    }
    if (NowNs() > deadline) return false;
    if (PollNs(pfds, 100'000'000) < 0 && errno != EINTR) return false;
  }
}

bool BalancedConnections(const std::string& socket_path, int n,
                         const std::string& busy_line, Connections* out,
                         int* attempts) {
  constexpr int kMaxAttempts = 16;
  constexpr int kBusy = 48;  // six full batches: ~10 ms of one worker
  for (*attempts = 1; *attempts <= kMaxAttempts; ++*attempts) {
    // Connection 0 goes wherever the kernel puts it; connection j then
    // lands on the worker not serving connection j - 1 (kept busy through
    // connection (j - 1) % 2, which sits on that same worker), so even
    // and odd connections alternate between the two workers.
    Connections conns;
    if (!conns.Open(socket_path, 1)) return false;
    bool placed = true;
    for (int j = 1; j < n && placed; ++j) {
      int fd = -1;
      const bool io_ok =
          ConnectWhileBusy(conns.fds()[static_cast<size_t>((j - 1) % 2)],
                           socket_path, busy_line, kBusy, &fd, &placed);
      if (fd >= 0) conns.Adopt(fd);
      if (!io_ok) return false;
    }
    if (placed) {
      *out = std::move(conns);
      return true;
    }
  }
  return false;
}

LoadResult RunClosedLoop(const std::vector<int>& fds, int depth,
                         double duration_s, const std::vector<int32_t>& order,
                         const std::vector<std::string>& lines,
                         const std::vector<std::string>& expected,
                         double grace_s, Placement* placement, SpanLog* spans,
                         const std::string& span_name, uint64_t id_base) {
  const size_t nconn = fds.size();
  LoadResult r;
  std::vector<std::string> out(nconn);
  std::vector<size_t> out_off(nconn, 0);
  std::vector<ReplyStream> replies(nconn);
  std::vector<char> dead(nconn, 0);
  std::vector<int64_t> sent_at;  // per request, in send order
  char buf[65536];
  const bool tracing = spans != nullptr && spans->enabled();

  auto send = [&](size_t c, int64_t now) {
    const int64_t k = r.sent++;
    const size_t line =
        static_cast<size_t>(order[static_cast<size_t>(k) % order.size()]);
    out[c] += lines[line];
    replies[c].Expect(k, &expected[line]);
    sent_at.push_back(now);
  };

  // Room for far more requests than any run sends, reserved but untouched,
  // so the client's own growth adds to peak RSS smoothly, without copies.
  const size_t cap = static_cast<size_t>(duration_s * 100'000) + 1024;
  sent_at.reserve(cap);
  r.latency.reserve(cap);

  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(duration_s * 1e9);
  const int64_t give_up = end + static_cast<int64_t>(grace_s * 1e9);
  int64_t rotate_at = t0 + Placement::kRotateNs;
  int64_t last_reply = t0;
  for (size_t c = 0; c < nconn; ++c) {
    for (int d = 0; d < depth; ++d) send(c, t0);
  }
  // The caller spins instead of sleeping until a reply: it stands in for
  // clients on other machines, whose wake-ups the server does not pay for.
  // Sleeping in poll, it let serve_light's p50 and p90 range over 15% in
  // six runs on a 4-vCPU VM, against 5-10% spinning.
  for (;;) {
    size_t outstanding = 0, live = 0;
    for (size_t c = 0; c < nconn; ++c) {
      if (dead[c]) continue;
      bool alive = FlushSome(fds[c], out[c], &out_off[c]);
      while (alive) {
        const ssize_t got = ReadSome(fds[c], buf, sizeof(buf));
        if (got <= 0) {
          alive = got == 0;
          break;
        }
        const int64_t at = NowNs();
        last_reply = at;
        int answered = 0;
        replies[c].Feed(
            std::string_view(buf, static_cast<size_t>(got)),
            [&](int64_t req, bool ok) {
              const int64_t sent = sent_at[static_cast<size_t>(req)];
              ++r.replied;
              ++answered;
              if (!ok) ++r.mismatched;
              r.latency.push_back(1e-3 * static_cast<double>(at - sent));
              if (tracing) {
                spans->Add(span_name, sent / 1000, at / 1000, spans->root(),
                           id_base + static_cast<uint64_t>(req));
              }
            });
        // Each caller sends its next request as soon as it has a reply.
        if (at < end) {
          for (int i = 0; i < answered; ++i) send(c, at);
        }
        alive = FlushSome(fds[c], out[c], &out_off[c]);
      }
      if (out_off[c] == out[c].size()) {
        out[c].clear();
        out_off[c] = 0;
      }
      if (!alive) {
        dead[c] = 1;
        r.missing += static_cast<int64_t>(replies[c].outstanding());
        continue;
      }
      ++live;
      outstanding += replies[c].outstanding();
    }

    const int64_t now = NowNs();
    if (outstanding == 0 && (now >= end || live == 0)) break;
    if (now > give_up) {
      r.missing += static_cast<int64_t>(outstanding);
      break;
    }
    if (placement != nullptr && now >= rotate_at) {
      placement->Rotate();
      rotate_at += Placement::kRotateNs;
    }
  }
  for (const ReplyStream& s : replies) r.mismatched += s.unexpected();
  r.wall_s = 1e-9 * static_cast<double>(last_reply - t0);
  return r;
}

}  // namespace cit::e2e
