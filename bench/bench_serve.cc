// Serving-daemon latency/throughput benchmark, emitted as machine-readable
// JSON (BENCH_serve.json) so serving-path regressions are diffable across
// commits.
//
// An in-process serve::Server fronts the real CrossInsightTrader over its
// Unix socket; client threads drive the decide line protocol at several
// offered loads (clients x pipeline depth). Every load level runs twice:
//
//   unbatched — max_batch=1: every request runs as a batch of one, the
//               pre-batching daemon's schedule;
//   batched   — max_batch=8 with a small batching window: pending decides
//               coalesce into one DecideWeightsBatch forward and the
//               stacked outputs de-interleave back per connection.
//
// Per load level the report carries p50/p99 request latency and completed
// throughput for both arms; the headline "high_load_throughput_gain" is
// the batched/unbatched throughput ratio at the highest offered load,
// gated by scripts/check.sh at >= 1.5x. Responses are bitwise identical
// across the arms (tests/test_serve.cc asserts batched == library), so the
// ratio isolates what batching amortizes: per-op replay dispatch and
// per-request plan bookkeeping, which dominate at serving-shaped model
// sizes.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "market/panel.h"
#include "serve/cit_model.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using namespace cit;
using Clock = std::chrono::steady_clock;

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Serving-shaped model: short window, narrow features, several policies —
// the regime where per-op dispatch is a real fraction of each decision and
// batching has something to amortize (same rationale as bench_infer). The
// backbone is the paper's "ours (GRU)" variant: the GRU encoder unrolls
// one op-chain per timestep, so stacking requests amortizes its dispatch
// fully, while the spatial-attention stage still runs per request inside
// the batch (it mixes across assets, not across requests) and keeps the
// per-block slice/de-interleave machinery in the measured path.
core::CrossInsightConfig ServeConfig() {
  core::CrossInsightConfig cfg;
  cfg.num_policies = 6;
  cfg.window = 6;
  cfg.feature_dim = 2;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 8;
  cfg.seed = 23;
  cfg.backbone = core::BackboneKind::kGruAttention;
  return cfg;
}

// A deterministic positive price window (distinct per variant).
std::string MakeDecideLine(int64_t rows, int64_t assets, int variant) {
  std::string line =
      "decide " + std::to_string(rows) + " " + std::to_string(assets);
  for (int64_t d = 0; d < rows; ++d) {
    for (int64_t a = 0; a < assets; ++a) {
      const double t =
          static_cast<double>(d + 1) + 0.37 * static_cast<double>(variant);
      const double p = 10.0 + static_cast<double>(a) +
                       0.5 * (t * (1.0 + 0.1 * static_cast<double>(a)) -
                              static_cast<double>(static_cast<int64_t>(
                                  t * (1.0 + 0.1 * static_cast<double>(a)))));
      line.push_back(' ');
      serve::AppendDouble(&line, p);
    }
  }
  line.push_back('\n');
  return line;
}

// Minimal blocking line client (mirrors the test harness client).
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
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

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

  bool RecvLine(std::string* line, int timeout_ms = 30000) {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, timeout_ms);
      if (rc <= 0) {
        if (rc < 0 && errno == EINTR) continue;
        return false;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct Load {
  const char* name;
  int clients;  // concurrent connections
  int depth;    // pipelined requests in flight per connection
};

struct ArmResult {
  double p50_us = 0;
  double p99_us = 0;
  double throughput_rps = 0;
  bool ok = true;
};

double Percentile(std::vector<int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

// Drives one arm at one load: each client keeps `depth` requests in
// flight (responses on one connection come back in request order, so the
// oldest outstanding send timestamp matches the next response).
ArmResult RunArm(const std::string& socket_path, const Load& load,
                 int64_t requests_per_client, int64_t rows, int64_t assets) {
  std::vector<std::vector<int64_t>> latencies(
      static_cast<size_t>(load.clients));
  std::vector<std::thread> threads;
  std::vector<char> failed(static_cast<size_t>(load.clients), 0);

  const int64_t t0 = NowUs();
  for (int id = 0; id < load.clients; ++id) {
    threads.emplace_back([&, id] {
      Client c(socket_path);
      if (!c.ok()) {
        failed[static_cast<size_t>(id)] = 1;
        return;
      }
      const std::string req = MakeDecideLine(rows, assets, id);
      std::vector<int64_t>& lat = latencies[static_cast<size_t>(id)];
      lat.reserve(static_cast<size_t>(requests_per_client));
      std::vector<int64_t> sent_at;  // FIFO of outstanding send stamps
      size_t head = 0;
      int64_t submitted = 0, completed = 0;
      std::string line;
      while (completed < requests_per_client) {
        while (submitted < requests_per_client &&
               submitted - completed < load.depth) {
          sent_at.push_back(NowUs());
          if (!c.Send(req)) {
            failed[static_cast<size_t>(id)] = 1;
            return;
          }
          ++submitted;
        }
        if (!c.RecvLine(&line) || line.rfind("ok ", 0) != 0) {
          failed[static_cast<size_t>(id)] = 1;
          return;
        }
        lat.push_back(NowUs() - sent_at[head++]);
        ++completed;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s = static_cast<double>(NowUs() - t0) / 1e6;

  ArmResult r;
  std::vector<int64_t> all;
  for (int id = 0; id < load.clients; ++id) {
    if (failed[static_cast<size_t>(id)]) r.ok = false;
    all.insert(all.end(), latencies[static_cast<size_t>(id)].begin(),
               latencies[static_cast<size_t>(id)].end());
  }
  r.p50_us = Percentile(all, 0.50);
  r.p99_us = Percentile(all, 0.99);
  r.throughput_rps = static_cast<double>(all.size()) / elapsed_s;
  return r;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string Fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const int64_t kAssets = 4;
  const core::CrossInsightConfig cfg = ServeConfig();
  const int64_t rows = cfg.window;
  const int64_t requests_per_client = smoke ? 200 : 1500;
  const int64_t warmup_requests = smoke ? 32 : 128;

  const Load loads[] = {
      {"low", 1, 1},    // one request/response client: the p50 floor
      {"mid", 2, 4},    // light concurrency, shallow pipelines
      {"high", 4, 16},  // saturating: queues stay at/above max_batch
  };

  struct ArmConfig {
    const char* name;
    int max_batch;
    int64_t batch_window_us;
  };
  const ArmConfig arms[] = {
      {"unbatched", 1, 0},
      {"batched", 8, 200},
  };

  // One server per arm (batching policy is a Start-time config), reused
  // across all loads of that arm so plans stay warm between levels.
  struct Row {
    ArmResult res[2];  // indexed like `arms`
  };
  Row rows_out[3];
  bool all_ok = true;

  for (int a = 0; a < 2; ++a) {
    serve::ServerConfig scfg;
    scfg.socket_path = "/tmp/bench_serve_" + std::to_string(::getpid()) +
                       "_" + arms[a].name + ".sock";
    scfg.workers = 1;  // one replica: the batching win, not parallelism
    scfg.max_batch = arms[a].max_batch;
    scfg.batch_window_us = arms[a].batch_window_us;
    serve::Server server(scfg,
                         serve::MakeCitModelFactory(kAssets, cfg, ""));
    if (!server.Start().ok()) {
      std::fprintf(stderr, "error: server start failed (%s arm)\n",
                   arms[a].name);
      return 1;
    }
    // Warm-up: fault in code paths and record the compiled plans (single
    // and stacked shapes) so the timed arms measure steady-state replay.
    (void)RunArm(scfg.socket_path, Load{"warm", 2, 8}, warmup_requests,
                 rows, kAssets);
    for (int l = 0; l < 3; ++l) {
      const ArmResult r = RunArm(scfg.socket_path, loads[l],
                                 requests_per_client, rows, kAssets);
      rows_out[l].res[a] = r;
      all_ok = all_ok && r.ok;
      std::printf("serve %-9s load=%-4s (%dx%d)  p50 %8sus  p99 %8sus  "
                  "%10s req/s%s\n",
                  arms[a].name, loads[l].name, loads[l].clients,
                  loads[l].depth, Fmt(r.p50_us).c_str(),
                  Fmt(r.p99_us).c_str(), Fmt(r.throughput_rps).c_str(),
                  r.ok ? "" : "  [FAILED]");
    }
    server.Stop();
  }

  const double high_gain =
      rows_out[2].res[1].throughput_rps / rows_out[2].res[0].throughput_rps;
  std::printf("high-load throughput gain (batched/unbatched): %sx\n",
              Fmt3(high_gain).c_str());
  if (!all_ok) {
    std::fprintf(stderr, "error: some requests failed\n");
    return 1;
  }

  std::ostringstream js;
  js << "{\n";
  js << "  \"host\": {\"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << "},\n";
  js << "  \"config\": {\"num_policies\": " << cfg.num_policies
     << ", \"window\": " << cfg.window << ", \"num_assets\": " << kAssets
     << ", \"workers\": 1, \"max_batch\": 8, \"batch_window_us\": 200"
     << ", \"requests_per_client\": " << requests_per_client
     << ", \"smoke\": " << (smoke ? "true" : "false") << "},\n";
  js << "  \"loads\": [\n";
  for (int l = 0; l < 3; ++l) {
    js << "    {\"load\": \"" << loads[l].name << "\""
       << ", \"clients\": " << loads[l].clients
       << ", \"depth\": " << loads[l].depth << ",\n";
    for (int a = 0; a < 2; ++a) {
      const ArmResult& r = rows_out[l].res[a];
      js << "     \"" << arms[a].name << "\": {\"p50_us\": " << Fmt(r.p50_us)
         << ", \"p99_us\": " << Fmt(r.p99_us)
         << ", \"throughput_rps\": " << Fmt(r.throughput_rps) << "},\n";
    }
    js << "     \"throughput_gain\": "
       << Fmt3(rows_out[l].res[1].throughput_rps /
               rows_out[l].res[0].throughput_rps)
       << "}" << (l + 1 < 3 ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"high_load_throughput_gain\": " << Fmt3(high_gain) << ",\n";
  js << "  \"note\": \"In-process citd over its Unix socket, one worker "
        "replica. Arms differ only in batching config (unbatched "
        "max_batch=1 vs batched max_batch=8, 200us window); responses are "
        "bitwise identical across arms (tests/test_serve.cc). Loads are "
        "clients x pipeline depth; latency is send-to-response per "
        "request. high_load_throughput_gain is the batched/unbatched "
        "throughput ratio at the highest load (check.sh gates >= 1.5); "
        "the low-load arms share the batch-of-one path, so their p50s "
        "track each other by construction.\"\n";
  js << "}\n";

  std::ofstream out(out_path);
  out << js.str();
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
