// Serving daemon tests, in three layers:
//
//  1. Protocol: the pure parse/format layer — every malformed request
//     class yields a typed error, and "%.17g" weight formatting round
//     trips doubles bitwise (the property the soak gate rests on).
//  2. Adversarial clients against a stub model: malformed and oversized
//     lines, abrupt disconnects mid-response, half-open connections, slow
//     writers and non-reading pipeliners hitting the deadline. Every case
//     must end in a protocol error or a clean drop — never a stall, never
//     a crash — and the server must keep serving fresh clients after.
//  3. The flagship soak: concurrent clients streaming decisions through
//     the real CrossInsightTrader while a checkpoint hot-swap lands
//     mid-soak. Zero dropped or corrupt responses, and every weight
//     vector bitwise identical to DecideWeights called directly on the
//     same inputs — before and after the swap, keyed by the generation
//     each response carries.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/env_config.h"
#include "core/config.h"
#include "core/trader.h"
#include "market/panel.h"
#include "obs/telemetry.h"
#include "serve/cit_model.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace cit {
namespace {

bool Fast() { return GetRunScale() == RunScale::kFast; }

std::string SockPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---- Protocol ----------------------------------------------------------------

TEST(ServeProtocol, ParsesEveryCommand) {
  EXPECT_EQ(serve::ParseRequest("ping").kind, serve::Request::kPing);
  EXPECT_EQ(serve::ParseRequest("stats").kind, serve::Request::kStats);

  const serve::Request swap = serve::ParseRequest("swap /tmp/w.bin");
  EXPECT_EQ(swap.kind, serve::Request::kSwap);
  EXPECT_EQ(swap.path, "/tmp/w.bin");

  const serve::Request d = serve::ParseRequest("decide 2 3 1 2 3 4 5 6\r");
  ASSERT_EQ(d.kind, serve::Request::kDecide);
  EXPECT_EQ(d.rows, 2);
  EXPECT_EQ(d.cols, 3);
  ASSERT_EQ(d.prices.size(), 6u);
  EXPECT_EQ(d.prices[0], 1.0);
  EXPECT_EQ(d.prices[5], 6.0);
}

TEST(ServeProtocol, EveryMalformedRequestIsTypedNotFatal) {
  struct Case {
    const char* line;
    const char* code;
  };
  const Case cases[] = {
      {"", "proto"},
      {"   ", "proto"},
      {"frobnicate", "proto"},
      {"ping now", "proto"},
      {"stats --all", "proto"},
      {"swap", "proto"},
      {"swap a b", "proto"},
      {"decide", "proto"},
      {"decide 2", "proto"},
      {"decide x 2 1 2 3 4", "proto"},
      {"decide 2 2 1 2 3", "proto"},        // too few prices
      {"decide 2 2 1 2 3 4 5", "proto"},    // too many prices
      {"decide 2 2 1 2 3 4x", "proto"},     // trailing junk in a number
      {"decide -2 2 1 2 3 4", "proto"},
      {"decide 0 2", "proto"},
      {"decide 99999999999999999999 2 1", "proto"},  // i64 overflow
      {"decide 2097152 2097152 1", "input"},         // cell-limit breach
      {"decide 1 2 1 0", "input"},                   // non-positive price
      {"decide 1 2 1 -3", "input"},
      // Spellings strtod would have accepted but the wire grammar never
      // meant: non-finite words, hex floats, locale-ish commas, dangling
      // exponents, doubled signs, and out-of-double-range magnitudes.
      // These are malformed tokens (proto), not plausible-but-invalid
      // market data (input).
      {"decide 1 2 1 nan", "proto"},
      {"decide 1 2 1 inf", "proto"},
      {"decide 1 2 1 infinity", "proto"},
      {"decide 1 2 1 1,5", "proto"},
      {"decide 1 2 1 0x1p3", "proto"},
      {"decide 1 2 1 1e", "proto"},
      {"decide 1 2 1 ++1", "proto"},
      {"decide 1 2 1 1e309", "proto"},
  };
  for (const Case& c : cases) {
    const serve::Request r = serve::ParseRequest(c.line);
    EXPECT_EQ(r.kind, serve::Request::kBad) << "\"" << c.line << "\"";
    EXPECT_EQ(r.error_code, c.code) << "\"" << c.line << "\"";
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(ServeProtocol, WeightFormattingRoundTripsBitwise) {
  const std::vector<double> weights = {
      1.0 / 3.0,  0.1,        M_PI,          1e-308, 5e-324 /* denormal */,
      0.25,       1.0 - 1e-16, 0.123456789012345678};
  const std::string line = serve::FormatDecideResponse(7, weights);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  uint64_t gen = 0;
  std::vector<double> parsed;
  ASSERT_TRUE(serve::ParseDecideResponse(
      std::string_view(line).substr(0, line.size() - 1), &gen, &parsed));
  EXPECT_EQ(gen, 7u);
  ASSERT_EQ(parsed.size(), weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_EQ(std::memcmp(&parsed[i], &weights[i], sizeof(double)), 0)
        << "weight " << i << " did not round trip bitwise";
  }
}

// ---- Test client -------------------------------------------------------------

// A deliberately simple blocking client with an explicit receive timeout:
// the tests, not the client, decide how patient to be.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() { Close(); }

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads until '\n' (stripped) or timeout/EOF. Returns false on both
  // failures; eof() distinguishes them.
  bool RecvLine(std::string* line, int timeout_ms = 5000) {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, timeout_ms);
      if (rc == 0) return false;  // timeout
      if (rc < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) {
        eof_ = true;
        return false;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        eof_ = true;  // reset etc.: the peer is gone
        return false;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Blocks until the server closes this connection (drop detection).
  bool WaitForClose(int timeout_ms) {
    std::string line;
    while (RecvLine(&line, timeout_ms)) {
    }
    return eof_;
  }

  bool eof() const { return eof_; }
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  bool eof_ = false;
};

std::string DecideLine(int64_t rows, int64_t cols,
                       const std::vector<double>& prices) {
  std::string line = "decide " + std::to_string(rows) + " " +
                     std::to_string(cols);
  for (double p : prices) {
    line.push_back(' ');
    serve::AppendDouble(&line, p);
  }
  line.push_back('\n');
  return line;
}

// ---- Stub model for daemon-behavior tests ------------------------------------

// Blocks a stub decide until the test releases it, so the test knows
// that one worker is busy and not accepting: a decide whose first price is
// `marker` signals `entered` and then waits for `Release`.
struct DecideLatch {
  double marker = 0;
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  // Bounded, so a test that fails before Release cannot hang the server's
  // shutdown.
  void EnterAndWait() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10), [this] { return released; });
  }
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [this] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

// Deterministic, instant, and swap-aware: weights are the last row
// normalized to sum 1, shifted by a bias read from the weights bytes (a
// single ASCII double). Unparseable bytes must fail the load.
class StubModel : public serve::ServedModel {
 public:
  explicit StubModel(int64_t assets, DecideLatch* latch = nullptr)
      : assets_(assets), latch_(latch) {}

  int64_t num_assets() const override { return assets_; }
  int64_t min_days() const override { return 1; }

  std::vector<Result<std::vector<double>>> DecideBatch(
      const std::vector<const market::PricePanel*>& panels) override {
    std::vector<Result<std::vector<double>>> out;
    for (const market::PricePanel* panel : panels) {
      if (latch_ != nullptr && panel->Close(0, 0) == latch_->marker) {
        latch_->EnterAndWait();
      }
      const int64_t last = panel->num_days() - 1;
      double sum = 0;
      for (int64_t a = 0; a < assets_; ++a) sum += panel->Close(last, a);
      std::vector<double> w(static_cast<size_t>(assets_));
      for (int64_t a = 0; a < assets_; ++a) {
        w[static_cast<size_t>(a)] = panel->Close(last, a) / sum + bias_;
      }
      out.push_back(std::move(w));
    }
    return out;
  }

  Status LoadWeights(const std::vector<uint8_t>& bytes) override {
    const std::string text(bytes.begin(), bytes.end());
    double bias = 0;
    if (std::sscanf(text.c_str(), "%lf", &bias) != 1) {
      return Status::InvalidArgument("not a stub weights file");
    }
    bias_ = bias;
    return Status::OK();
  }

 private:
  int64_t assets_;
  DecideLatch* latch_;
  double bias_ = 0;
};

serve::ModelFactory StubFactory(int64_t assets,
                                DecideLatch* latch = nullptr) {
  return [assets, latch] { return std::make_unique<StubModel>(assets, latch); };
}

void WriteTextFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

// ---- Daemon behavior ---------------------------------------------------------

TEST(ServeDaemon, StartRejectsBadConfigAndFailedFactory) {
  {
    serve::ServerConfig cfg;  // empty socket path
    serve::Server server(cfg, StubFactory(2));
    EXPECT_FALSE(server.Start().ok());
  }
  {
    serve::ServerConfig cfg;
    cfg.socket_path = SockPath("serve_nofactory.sock");
    cfg.workers = 2;
    serve::Server server(cfg, [] {
      return std::unique_ptr<serve::ServedModel>();  // factory fails
    });
    EXPECT_FALSE(server.Start().ok());
    EXPECT_FALSE(server.running());
  }
}

TEST(ServeDaemon, PingDecideStatsAndErrorsOnOneConnection) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_basic.sock");
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());

  Client c(cfg.socket_path);
  ASSERT_TRUE(c.ok());
  std::string line;

  ASSERT_TRUE(c.Send("ping\n"));
  ASSERT_TRUE(c.RecvLine(&line));
  EXPECT_EQ(line, "ok pong 0");

  // A protocol error answers with err and keeps the connection usable.
  ASSERT_TRUE(c.Send("what\n"));
  ASSERT_TRUE(c.RecvLine(&line));
  EXPECT_EQ(line.rfind("err proto", 0), 0u) << line;

  // An input error likewise (wrong asset count for the model).
  ASSERT_TRUE(c.Send(DecideLine(1, 3, {1, 2, 3})));
  ASSERT_TRUE(c.RecvLine(&line));
  EXPECT_EQ(line.rfind("err input", 0), 0u) << line;

  ASSERT_TRUE(c.Send(DecideLine(1, 2, {1.0, 3.0})));
  ASSERT_TRUE(c.RecvLine(&line));
  uint64_t gen = 99;
  std::vector<double> w;
  ASSERT_TRUE(serve::ParseDecideResponse(line, &gen, &w)) << line;
  EXPECT_EQ(gen, 0u);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 0.25);
  EXPECT_EQ(w[1], 0.75);

  // stats is one line of registry JSON.
  ASSERT_TRUE(c.Send("stats\n"));
  ASSERT_TRUE(c.RecvLine(&line));
  EXPECT_NE(line.find("\"counters\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"wall_us\""), std::string::npos) << line;

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(ServeDaemon, PipelinedRequestsAnswerInOrder) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_pipeline.sock");
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());

  Client c(cfg.socket_path);
  ASSERT_TRUE(c.ok());
  std::string burst;
  const int kN = 32;
  for (int i = 0; i < kN; ++i) {
    burst += DecideLine(1, 2, {1.0, 1.0 + i});
  }
  burst += "ping\n";
  ASSERT_TRUE(c.Send(burst));
  std::string line;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.RecvLine(&line)) << "response " << i;
    uint64_t gen;
    std::vector<double> w;
    ASSERT_TRUE(serve::ParseDecideResponse(line, &gen, &w)) << line;
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0], 1.0 / (2.0 + i)) << "response " << i;
  }
  ASSERT_TRUE(c.RecvLine(&line));
  EXPECT_EQ(line, "ok pong 0");
}

TEST(ServeDaemon, FourClientsShareOneWorkerWithoutStalling) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_mux.sock");
  cfg.workers = 1;  // multiplexing, not one-connection-at-a-time
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());

  // All four connect and hold their connections open; requests interleave.
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(cfg.socket_path));
    ASSERT_TRUE(clients.back()->ok());
  }
  for (int round = 0; round < 3; ++round) {
    for (auto& c : clients) ASSERT_TRUE(c->Send("ping\n"));
    for (auto& c : clients) {
      std::string line;
      ASSERT_TRUE(c->RecvLine(&line)) << "a held connection starved another";
      EXPECT_EQ(line, "ok pong 0");
    }
  }
}

TEST(ServeDaemon, OversizedLineGetsErrorThenClose) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_oversize.sock");
  cfg.max_line = 256;
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());

  Client c(cfg.socket_path);
  ASSERT_TRUE(c.ok());
  // Feed an endless unterminated line; the server must cut it off at the
  // cap with a typed error, never buffer without bound.
  const std::string junk(1024, 'a');
  ASSERT_TRUE(c.Send(junk));
  std::string line;
  ASSERT_TRUE(c.RecvLine(&line));
  EXPECT_EQ(line.rfind("err oversized", 0), 0u) << line;
  EXPECT_TRUE(c.WaitForClose(2000));

  // And a complete-but-huge line is refused the same way.
  Client c2(cfg.socket_path);
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE(c2.Send(junk.substr(0, 300) + "\n"));
  ASSERT_TRUE(c2.RecvLine(&line));
  EXPECT_EQ(line.rfind("err oversized", 0), 0u) << line;

  // The server still serves fresh clients.
  Client c3(cfg.socket_path);
  ASSERT_TRUE(c3.ok());
  ASSERT_TRUE(c3.Send("ping\n"));
  ASSERT_TRUE(c3.RecvLine(&line));
  EXPECT_EQ(line, "ok pong 0");
}

TEST(ServeDaemon, AbruptDisconnectsNeverKillTheServer) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_abrupt.sock");
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());

  // Vanish mid-request, vanish right after a burst of requests (responses
  // hit a closed peer: EPIPE path), and vanish with an empty connection.
  {
    Client c(cfg.socket_path);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.Send("decide 1 2 1"));  // no newline: partial request
    c.Close();
  }
  {
    Client c(cfg.socket_path);
    ASSERT_TRUE(c.ok());
    std::string burst;
    for (int i = 0; i < 64; ++i) burst += DecideLine(1, 2, {1.0, 2.0});
    ASSERT_TRUE(c.Send(burst));
    c.Close();  // responses are now in flight toward a dead peer
  }
  {
    Client c(cfg.socket_path);
    ASSERT_TRUE(c.ok());
    c.Close();
  }

  // A client that half-closes after sending still gets all its answers.
  {
    Client c(cfg.socket_path);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.Send("ping\nping\n"));
    c.ShutdownWrite();
    std::string line;
    ASSERT_TRUE(c.RecvLine(&line));
    EXPECT_EQ(line, "ok pong 0");
    ASSERT_TRUE(c.RecvLine(&line));
    EXPECT_EQ(line, "ok pong 0");
    EXPECT_TRUE(c.WaitForClose(2000));
  }

  Client after(cfg.socket_path);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after.Send("ping\n"));
  std::string line;
  ASSERT_TRUE(after.RecvLine(&line));
  EXPECT_EQ(line, "ok pong 0");
}

TEST(ServeDaemon, HalfOpenConnectionIsDroppedAfterIdleTimeout) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_idle.sock");
  cfg.idle_timeout_ms = 100;
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());

  Client silent(cfg.socket_path);
  ASSERT_TRUE(silent.ok());
  EXPECT_TRUE(silent.WaitForClose(3000)) << "half-open connection not dropped";

  // An active client on the same server is not idle-dropped while talking.
  Client active(cfg.socket_path);
  ASSERT_TRUE(active.ok());
  std::string line;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(active.Send("ping\n"));
    ASSERT_TRUE(active.RecvLine(&line));
    EXPECT_EQ(line, "ok pong 0");
  }
}

TEST(ServeDaemon, StalledPartialRequestHitsTheDeadline) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_stall.sock");
  cfg.request_deadline_ms = 100;
  cfg.idle_timeout_ms = 0;  // isolate the deadline path
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());

  Client c(cfg.socket_path);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.Send("decide 1 2 1.0"));  // never sends the newline
  EXPECT_TRUE(c.WaitForClose(3000)) << "stalled request not deadline-dropped";
}

TEST(ServeDaemon, NonReadingPipelinerIsDroppedNotWaitedOn) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_slowread.sock");
  cfg.request_deadline_ms = 150;
  cfg.idle_timeout_ms = 0;
  cfg.sndbuf_bytes = 2048;  // shrink the kernel buffer so backpressure bites
  serve::Server server(cfg, StubFactory(64));
  ASSERT_TRUE(server.Start().ok());

  Client c(cfg.socket_path);
  ASSERT_TRUE(c.ok());
  // Hundreds of decides, each answering ~1.3 KB, with the client never
  // reading: the server's flush must hit EAGAIN, stop progressing, and
  // drop the connection at the deadline instead of blocking its worker.
  std::vector<double> prices(64);
  for (int i = 0; i < 64; ++i) prices[static_cast<size_t>(i)] = 1.0 + i;
  const std::string req = DecideLine(1, 64, prices);
  std::string burst;
  for (int i = 0; i < 400; ++i) burst += req;
  (void)c.Send(burst);  // may itself fail once the server drops us — fine
  // Genuinely refuse to read past the deadline: the moment this client
  // reads, the flush would progress and legitimately reset the clock.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_TRUE(c.WaitForClose(5000)) << "write-stalled peer not dropped";

  // The worker survived and serves the next client promptly.
  Client after(cfg.socket_path);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after.Send("ping\n"));
  std::string line;
  ASSERT_TRUE(after.RecvLine(&line));
  EXPECT_EQ(line, "ok pong 0");
}

// Every error and drop class counts under its own name: one proto error,
// one parser input error, one clean close and one stalled request must
// read 1/1/1/1, not collapse into whichever name a site saw first.
TEST(ServeDaemon, ErrorAndDropCountersStaySeparate) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_counters.sock");
  cfg.request_deadline_ms = 100;
  cfg.idle_timeout_ms = 0;  // isolate the deadline path
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());
  obs::SetEnabled(true);
  obs::Registry::Global().ResetAll();

  {
    Client c(cfg.socket_path);
    ASSERT_TRUE(c.ok());
    std::string line;
    ASSERT_TRUE(c.Send("what\n"));
    ASSERT_TRUE(c.RecvLine(&line));
    EXPECT_EQ(line.rfind("err proto", 0), 0u) << line;
    ASSERT_TRUE(c.Send(DecideLine(1, 2, {1.0, -1.0})));
    ASSERT_TRUE(c.RecvLine(&line));
    EXPECT_EQ(line.rfind("err input", 0), 0u) << line;
    c.ShutdownWrite();  // clean end of session
    EXPECT_TRUE(c.WaitForClose(3000));
  }
  Client stalled(cfg.socket_path);
  ASSERT_TRUE(stalled.ok());
  ASSERT_TRUE(stalled.Send("decide 1 2 1.0"));  // never sends the newline
  EXPECT_TRUE(stalled.WaitForClose(3000));

  auto count = [](const char* name) {
    return obs::Registry::Global().GetCounter(name).Total();
  };
  EXPECT_EQ(count("serve.proto_errors"), 1u);
  EXPECT_EQ(count("serve.input_errors"), 1u);
  EXPECT_EQ(count("serve.disconnects"), 1u);
  EXPECT_EQ(count("serve.deadline_drops"), 1u);
  obs::SetEnabled(false);
  server.Stop();
}

TEST(ServeDaemon, SwapValidatesBeforeCommitting) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_swapfail.sock");
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());

  Client c(cfg.socket_path);
  ASSERT_TRUE(c.ok());
  std::string line;

  // A bad path is rejected; the generation must not advance.
  ASSERT_TRUE(c.Send("swap " + SockPath("no_such_weights.bin") + "\n"));
  ASSERT_TRUE(c.RecvLine(&line));
  EXPECT_EQ(line.rfind("err model", 0), 0u) << line;
  EXPECT_EQ(server.generation(), 0u);

  // A good stub weights file commits and bumps the generation; decisions
  // pick up the new bias.
  const std::string wpath = SockPath("stub_weights.txt");
  WriteTextFile(wpath, "0.5\n");
  ASSERT_TRUE(c.Send("swap " + wpath + "\n"));
  ASSERT_TRUE(c.RecvLine(&line));
  EXPECT_EQ(line, "ok swapped 1");
  EXPECT_EQ(server.generation(), 1u);

  ASSERT_TRUE(c.Send(DecideLine(1, 2, {1.0, 3.0})));
  ASSERT_TRUE(c.RecvLine(&line));
  uint64_t gen;
  std::vector<double> w;
  ASSERT_TRUE(serve::ParseDecideResponse(line, &gen, &w)) << line;
  EXPECT_EQ(gen, 1u);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 0.75);  // 0.25 + bias
  EXPECT_EQ(w[1], 1.25);
}

// A swap publishes the bytes it validated, not the path: once "ok swapped
// 1" is out, rewriting and then deleting the file changes nothing that any
// worker serves under generation 1. Of two workers, the one that handled
// the swap is parked inside a decide, so the next connection lands on the
// other one, which must load the validated bytes.
TEST(ServeDaemon, SwapServesTheValidatedBytesOnEveryWorker) {
  DecideLatch latch;
  latch.marker = 7.0;
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_swapbytes.sock");
  cfg.workers = 2;
  serve::Server server(cfg, StubFactory(2, &latch));
  ASSERT_TRUE(server.Start().ok());

  Client swapper(cfg.socket_path);
  ASSERT_TRUE(swapper.ok());
  const std::string wpath = SockPath("stub_weights_swapbytes.txt");
  WriteTextFile(wpath, "0.5\n");
  std::string line;
  ASSERT_TRUE(swapper.Send("swap " + wpath + "\n"));
  ASSERT_TRUE(swapper.RecvLine(&line));
  ASSERT_EQ(line, "ok swapped 1");
  WriteTextFile(wpath, "0.9\n");
  ASSERT_EQ(std::remove(wpath.c_str()), 0);

  const auto expect_gen1 = [](const std::string& response, double w0,
                              double w1) {
    uint64_t gen = 0;
    std::vector<double> w;
    ASSERT_TRUE(serve::ParseDecideResponse(response, &gen, &w)) << response;
    EXPECT_EQ(gen, 1u);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0], w0);  // last-row share + the validated bias 0.5
    EXPECT_EQ(w[1], w1);
  };

  // Park the swapping worker; only the other worker accepts from here on.
  ASSERT_TRUE(swapper.Send(DecideLine(1, 2, {7.0, 1.0})));
  ASSERT_TRUE(latch.WaitEntered());
  Client other(cfg.socket_path);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other.Send("ping\n"));
  ASSERT_TRUE(other.RecvLine(&line));
  EXPECT_EQ(line, "ok pong 1");
  ASSERT_TRUE(other.Send(DecideLine(1, 2, {1.0, 3.0})));
  ASSERT_TRUE(other.RecvLine(&line));
  expect_gen1(line, 0.75, 1.25);

  latch.Release();
  ASSERT_TRUE(swapper.RecvLine(&line));
  expect_gen1(line, 1.375, 0.625);
  EXPECT_EQ(server.generation(), 1u);
}

// ---- The bitwise hot-swap soak ----------------------------------------------

core::CrossInsightConfig SoakConfig() {
  core::CrossInsightConfig cfg;
  cfg.num_policies = 2;
  cfg.window = 8;
  cfg.feature_dim = 4;
  cfg.tcn_blocks = 1;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 8;
  return cfg;
}

// A deterministic positive price window, distinct per `variant`.
market::PricePanel SoakWindow(int64_t rows, int64_t assets, int variant) {
  market::PricePanel panel(rows, assets);
  for (int64_t d = 0; d < rows; ++d) {
    for (int64_t a = 0; a < assets; ++a) {
      const double t = static_cast<double>(d + 1) +
                       0.37 * static_cast<double>(variant);
      panel.SetClose(d, a,
                     10.0 + static_cast<double>(a) +
                         std::sin(t * (1.0 + 0.1 * static_cast<double>(a))));
    }
  }
  panel.set_train_end(rows);
  return panel;
}

// What the daemon must reproduce bitwise: a stateless decision from a
// library-held trader on the same window (each call wraps the panel in a
// fresh source, so the feature cache never serves a previous window).
std::vector<double> LibraryDecide(core::CrossInsightTrader& trader,
                                  const market::PricePanel& panel) {
  trader.Reset();
  return trader.DecideWeights(panel, panel.num_days() - 1);
}

TEST(ServeSoak, ConcurrentDecidesBitwiseAcrossHotSwap) {
  const int64_t kAssets = 4;
  const int kWindows = 5;
  const int requests_per_client = Fast() ? 6 : 16;
  const int kPostSwap = 5;
  const core::CrossInsightConfig cfg = SoakConfig();

  // Two distinct checkpoints: A (seed 11) serves first, B (seed 22) is
  // hot-swapped in mid-soak.
  const std::string model_a = SockPath("soak_model_a.bin");
  const std::string model_b = SockPath("soak_model_b.bin");
  {
    core::CrossInsightConfig seeded = cfg;
    seeded.seed = 11;
    core::CrossInsightTrader a(kAssets, seeded);
    ASSERT_TRUE(a.SaveModel(model_a).ok());
    seeded.seed = 22;
    core::CrossInsightTrader b(kAssets, seeded);
    ASSERT_TRUE(b.SaveModel(model_b).ok());
  }

  // Reference decisions for every window under both generations, computed
  // directly through the library.
  std::vector<market::PricePanel> windows;
  for (int k = 0; k < kWindows; ++k) {
    windows.push_back(SoakWindow(cfg.window, kAssets, k));
  }
  std::vector<std::vector<double>> expect_a, expect_b;
  {
    core::CrossInsightTrader ref(kAssets, cfg);
    ASSERT_TRUE(ref.LoadModel(model_a).ok());
    for (const auto& w : windows) expect_a.push_back(LibraryDecide(ref, w));
    ASSERT_TRUE(ref.LoadModel(model_b).ok());
    for (const auto& w : windows) expect_b.push_back(LibraryDecide(ref, w));
  }
  // The two checkpoints must actually disagree, or the swap gate is vacuous.
  ASSERT_NE(expect_a[0], expect_b[0]);

  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    serve::ServerConfig scfg;
    scfg.socket_path = SockPath("serve_soak.sock");
    scfg.workers = workers;
    serve::Server server(scfg, serve::MakeCitModelFactory(kAssets, cfg, model_a));
    ASSERT_TRUE(server.Start().ok());

    std::atomic<bool> swapped{false};
    std::atomic<int> failures{0};

    auto client_main = [&](int id) {
      Client c(scfg.socket_path);
      if (!c.ok()) {
        ++failures;
        return;
      }
      auto one_request = [&](int i, bool require_gen1) {
        const int k = (id * 31 + i) % kWindows;
        std::vector<double> prices;
        for (int64_t d = 0; d < cfg.window; ++d) {
          for (int64_t a = 0; a < kAssets; ++a) {
            prices.push_back(windows[static_cast<size_t>(k)].Close(d, a));
          }
        }
        std::string line;
        if (!c.Send(DecideLine(cfg.window, kAssets, prices)) ||
            !c.RecvLine(&line, 30000)) {
          ADD_FAILURE() << "client " << id << ": dropped response " << i;
          ++failures;
          return;
        }
        uint64_t gen = 0;
        std::vector<double> got;
        if (!serve::ParseDecideResponse(line, &gen, &got)) {
          ADD_FAILURE() << "client " << id << ": corrupt response: " << line;
          ++failures;
          return;
        }
        if (require_gen1 && gen != 1) {
          ADD_FAILURE() << "client " << id << ": post-swap response still at"
                        << " generation " << gen;
          ++failures;
          return;
        }
        const std::vector<double>& want =
            gen == 0 ? expect_a[static_cast<size_t>(k)]
                     : expect_b[static_cast<size_t>(k)];
        if (got.size() != want.size()) {
          ADD_FAILURE() << "client " << id << ": weight count mismatch";
          ++failures;
          return;
        }
        for (size_t j = 0; j < want.size(); ++j) {
          if (std::memcmp(&got[j], &want[j], sizeof(double)) != 0) {
            ADD_FAILURE() << "client " << id << ": weight " << j
                          << " not bitwise identical to DecideWeights (gen "
                          << gen << ", window " << k << ")";
            ++failures;
            return;
          }
        }
      };
      for (int i = 0; i < requests_per_client; ++i) {
        one_request(i, /*require_gen1=*/false);
      }
      // Wait until the swap has been acknowledged, then every further
      // response must carry the new generation — and still match bitwise.
      while (!swapped.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (int i = 0; i < kPostSwap; ++i) {
        one_request(requests_per_client + i, /*require_gen1=*/true);
      }
    };

    std::vector<std::thread> clients;
    for (int id = 0; id < 4; ++id) clients.emplace_back(client_main, id);

    // Land the swap mid-soak, from its own connection.
    {
      Client admin(scfg.socket_path);
      ASSERT_TRUE(admin.ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ASSERT_TRUE(admin.Send("swap " + model_b + "\n"));
      std::string line;
      ASSERT_TRUE(admin.RecvLine(&line, 30000));
      EXPECT_EQ(line, "ok swapped 1");
    }
    swapped.store(true, std::memory_order_release);

    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server.generation(), 1u);
    server.Stop();
  }
}

// ---- Request batching --------------------------------------------------------

// Flattens a panel into the row-major price list DecideLine expects.
std::vector<double> PanelPrices(const market::PricePanel& panel) {
  std::vector<double> prices;
  prices.reserve(static_cast<size_t>(panel.num_days() * panel.num_assets()));
  for (int64_t d = 0; d < panel.num_days(); ++d) {
    for (int64_t a = 0; a < panel.num_assets(); ++a) {
      prices.push_back(panel.Close(d, a));
    }
  }
  return prices;
}

// Four different-sized decide requests pipelined in one write must
// coalesce into one batched forward, de-interleave back in request order,
// and every response must be bitwise identical to the library's
// DecideWeights on that panel alone. A trailing ping must not overtake the
// still-queued decides.
TEST(ServeBatch, PipelinedMixedSizePanelsBatchBitwiseAndInOrder) {
  const int64_t kAssets = 4;
  const core::CrossInsightConfig cfg = SoakConfig();
  const int64_t row_counts[] = {cfg.window, cfg.window + 1, cfg.window + 3,
                                cfg.window + 5};

  std::vector<market::PricePanel> panels;
  std::vector<std::vector<double>> expect;
  {
    core::CrossInsightTrader ref(kAssets, cfg);  // same seeded init as served
    for (int k = 0; k < 4; ++k) {
      panels.push_back(SoakWindow(row_counts[k], kAssets, k));
      expect.push_back(LibraryDecide(ref, panels.back()));
    }
  }

  serve::ServerConfig scfg;
  scfg.socket_path = SockPath("serve_batch.sock");
  scfg.workers = 1;
  scfg.max_batch = 4;
  scfg.batch_window_us = 500000;  // partial batches wait; full ones don't
  serve::Server server(scfg, serve::MakeCitModelFactory(kAssets, cfg, ""));
  ASSERT_TRUE(server.Start().ok());

  obs::SetEnabled(true);

  // The burst almost always lands in one read and batches as 4; if the
  // kernel splits delivery so the first decide arrives alone, it runs as a
  // batch of one and the batch shrinks. Retry until a genuinely
  // batched forward (k >= 2) was observed; correctness is asserted on
  // every attempt either way.
  bool saw_batch = false;
  for (int attempt = 0; attempt < 5 && !saw_batch; ++attempt) {
    obs::Registry::Global().ResetAll();
    Client c(scfg.socket_path);
    ASSERT_TRUE(c.ok());
    std::string burst;
    for (int k = 0; k < 4; ++k) {
      burst += DecideLine(panels[static_cast<size_t>(k)].num_days(), kAssets,
                          PanelPrices(panels[static_cast<size_t>(k)]));
    }
    burst += "ping\n";
    ASSERT_TRUE(c.Send(burst));

    std::string line;
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(c.RecvLine(&line, 10000)) << "response " << k;
      uint64_t gen = 99;
      std::vector<double> got;
      ASSERT_TRUE(serve::ParseDecideResponse(line, &gen, &got)) << line;
      EXPECT_EQ(gen, 0u);
      const std::vector<double>& want = expect[static_cast<size_t>(k)];
      ASSERT_EQ(got.size(), want.size()) << "response " << k;
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(std::memcmp(&got[j], &want[j], sizeof(double)), 0)
            << "response " << k << " weight " << j
            << " not bitwise identical to DecideWeights";
      }
    }
    // The ping was pipelined after the decides and must answer last.
    ASSERT_TRUE(c.RecvLine(&line, 10000));
    EXPECT_EQ(line, "ok pong 0");
    saw_batch = obs::Registry::Global()
                    .GetCounter("serve.batched_requests")
                    .Total() > 0;
  }
  obs::SetEnabled(false);
  EXPECT_TRUE(saw_batch)
      << "five pipelined bursts never coalesced into a batched forward";
  server.Stop();
}

// Inline replies interleaved with decides that are genuinely parked in the
// batching window must still come back in per-connection request order:
// decide, pong, decide, pong — the pongs are ready instantly but queue
// behind the pending decide slots instead of overtaking them.
TEST(ServeBatch, InlineRepliesNeverOvertakeQueuedDecides) {
  const int64_t kAssets = 4;
  const core::CrossInsightConfig cfg = SoakConfig();
  market::PricePanel panel = SoakWindow(cfg.window, kAssets, 1);
  std::vector<double> want;
  {
    core::CrossInsightTrader ref(kAssets, cfg);
    want = LibraryDecide(ref, panel);
  }

  serve::ServerConfig scfg;
  scfg.socket_path = SockPath("serve_batch_order.sock");
  scfg.workers = 1;
  scfg.max_batch = 8;          // two decides are a partial batch...
  scfg.batch_window_us = 100000;  // ...that waits in the window
  serve::Server server(scfg, serve::MakeCitModelFactory(kAssets, cfg, ""));
  ASSERT_TRUE(server.Start().ok());

  Client c(scfg.socket_path);
  ASSERT_TRUE(c.ok());
  const std::string decide =
      DecideLine(panel.num_days(), kAssets, PanelPrices(panel));
  ASSERT_TRUE(c.Send(decide + "ping\n" + decide + "ping\n"));

  std::string line;
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(c.RecvLine(&line, 10000)) << "decide " << k;
    uint64_t gen = 99;
    std::vector<double> got;
    ASSERT_TRUE(serve::ParseDecideResponse(line, &gen, &got))
        << "out of order at " << k << ": " << line;
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(std::memcmp(&got[j], &want[j], sizeof(double)), 0)
          << "decide " << k << " weight " << j << " not bitwise identical";
    }
    ASSERT_TRUE(c.RecvLine(&line, 10000)) << "pong " << k;
    EXPECT_EQ(line, "ok pong 0") << "out of order at pong " << k;
  }
  server.Stop();
}

// The adversarial concurrent case: four clients submit different-sized
// panels that land inside one batching window, so one DecideBatch stacks
// heterogeneous requests. Every client must get back exactly its own
// decision, bitwise identical to the library on its own panel — at one
// worker (all four share a batch) and four (batches form per worker).
// Also exercised under TSan via the check.sh matrix ('Serve' filter).
TEST(ServeBatch, ConcurrentMixedSizeClientsDeinterleaveBitwise) {
  const int64_t kAssets = 4;
  const int kClients = 4;
  const int requests_per_client = Fast() ? 4 : 10;
  const core::CrossInsightConfig cfg = SoakConfig();

  std::vector<market::PricePanel> panels;
  std::vector<std::vector<double>> expect;
  {
    core::CrossInsightTrader ref(kAssets, cfg);
    for (int id = 0; id < kClients; ++id) {
      // One distinct window length per client: 8, 9, 11, 13 rows.
      const int64_t rows = cfg.window + (id == 0 ? 0 : 2 * id - 1);
      panels.push_back(SoakWindow(rows, kAssets, 100 + id));
      expect.push_back(LibraryDecide(ref, panels.back()));
    }
  }

  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    serve::ServerConfig scfg;
    scfg.socket_path = SockPath("serve_batch_mixed.sock");
    scfg.workers = workers;
    scfg.max_batch = 4;
    scfg.batch_window_us = 20000;  // wide enough for arrivals to coalesce
    serve::Server server(scfg, serve::MakeCitModelFactory(kAssets, cfg, ""));
    ASSERT_TRUE(server.Start().ok());

    std::atomic<int> failures{0};
    auto client_main = [&](int id) {
      Client c(scfg.socket_path);
      if (!c.ok()) {
        ++failures;
        return;
      }
      const market::PricePanel& panel = panels[static_cast<size_t>(id)];
      const std::vector<double>& want = expect[static_cast<size_t>(id)];
      const std::string req =
          DecideLine(panel.num_days(), kAssets, PanelPrices(panel));
      for (int i = 0; i < requests_per_client; ++i) {
        std::string line;
        if (!c.Send(req) || !c.RecvLine(&line, 30000)) {
          ADD_FAILURE() << "client " << id << ": dropped response " << i;
          ++failures;
          return;
        }
        uint64_t gen = 99;
        std::vector<double> got;
        if (!serve::ParseDecideResponse(line, &gen, &got) ||
            got.size() != want.size()) {
          ADD_FAILURE() << "client " << id << ": corrupt response: " << line;
          ++failures;
          return;
        }
        for (size_t j = 0; j < want.size(); ++j) {
          if (std::memcmp(&got[j], &want[j], sizeof(double)) != 0) {
            ADD_FAILURE() << "client " << id << ": request " << i
                          << " weight " << j
                          << " is not its own decision (de-interleave bug?)";
            ++failures;
            return;
          }
        }
      }
    };

    std::vector<std::thread> clients;
    for (int id = 0; id < kClients; ++id) clients.emplace_back(client_main, id);
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);
    server.Stop();
  }
}

// max_batch=1 must behave exactly like the pre-batching daemon: every
// decide runs as a batch of one, pipelined bursts still answer in order,
// and nothing waits on a window.
TEST(ServeBatch, MaxBatchOneDisablesBatching) {
  serve::ServerConfig cfg;
  cfg.socket_path = SockPath("serve_batch_off.sock");
  cfg.max_batch = 1;
  cfg.batch_window_us = 1000000;  // must be irrelevant at max_batch=1
  serve::Server server(cfg, StubFactory(2));
  ASSERT_TRUE(server.Start().ok());

  obs::SetEnabled(true);
  obs::Registry::Global().ResetAll();
  Client c(cfg.socket_path);
  ASSERT_TRUE(c.ok());
  std::string burst;
  const int kN = 8;
  for (int i = 0; i < kN; ++i) burst += DecideLine(1, 2, {1.0, 1.0 + i});
  ASSERT_TRUE(c.Send(burst));
  std::string line;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.RecvLine(&line)) << "response " << i;
    uint64_t gen;
    std::vector<double> w;
    ASSERT_TRUE(serve::ParseDecideResponse(line, &gen, &w)) << line;
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0], 1.0 / (2.0 + i)) << "response " << i;
  }
  EXPECT_EQ(
      obs::Registry::Global().GetCounter("serve.batched_requests").Total(),
      0u);
  obs::SetEnabled(false);
  server.Stop();
}

}  // namespace
}  // namespace cit
