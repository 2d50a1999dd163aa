// citbench — end-to-end benchmark of the cross-insight trader: the paper
// pipeline, the scenario sweep and closed-loop citd serving, one workload
// per process (README.md in this directory has the details).
//
//   citbench --workload pipeline|sweep|serve_light|serve_heavy
//            [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//            [--out PATH] [--work-dir DIR] [--git-sha SHA] [--smoke]
//
// Prints every end-to-end metric as "name workload value unit", writes a
// cit.e2e.v1 result file, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "e2e.h"
#include "math/kernels.h"
#include "obs/telemetry.h"
#include "workloads.h"

namespace {

using namespace cit;
using namespace cit::e2e;

void Usage() {
  std::fprintf(stderr,
               "usage: citbench --workload pipeline|sweep|serve_light|"
               "serve_heavy [--seed N] [--seconds S]\n"
               "                [--trace 0|1] [--spans PATH] [--out PATH]"
               " [--work-dir DIR]\n"
               "                [--git-sha SHA] [--smoke]\n");
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s.erase(s.find_last_not_of(std::string(" \0", 2)) + 1);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

// What a result depends on besides the code: compare.py refuses to
// compare results whose fingerprints differ in anything but the SHA.
std::string Fingerprint(const std::string& git_sha) {
  return JsonObject()
      .Int("nproc", ::sysconf(_SC_NPROCESSORS_ONLN))
      .Int("hardware_concurrency", std::thread::hardware_concurrency())
      .Str("cpu_model", CpuModel())
      .Str("simd_isa", math::kernels::SimdIsaName())
      .Str("kernel_backend", math::kernels::ActiveBackend() ==
                                         math::kernels::Backend::kSimd
                                 ? "simd"
                                 : "scalar")
      .Int("pool_threads", ThreadPool::Global().num_threads())
      .Str("build_type", CITBENCH_BUILD_TYPE)
      .Str("cxx_flags", CITBENCH_CXX_FLAGS)
      .Str("compiler", __VERSION__)
      .Str("git_sha", git_sha)
      .Render();
}

double PeakRssMb() {
  rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> EndToEnd(const WorkloadRun& run) {
  return {
      {"setup_s", Median(run.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"decide_p90_us", Quantile(run.decides, 0.9), "us"},
      {"throughput_per_s", run.throughput_per_s, "1/s"},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const Metric& m : metrics) {
    o.Raw(m.name,
          JsonObject().Num("value", m.value).Str("unit", m.unit).Render());
  }
  return o.Render();
}

void PrintMetrics(const char* kind, const std::string& workload,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s%-34s %-12s %.6g %s\n", kind, m.name.c_str(),
                workload.c_str(), m.value, m.unit.c_str());
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  f.close();
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.work_dir = ".bench_build/e2e";
  int trace = 0;
  std::string spans_path, out_path, git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (val == nullptr) {
      Usage();
      return 2;
    }
    ++i;
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(val, &end, 10));
    } else if (flag == "--spans") {
      spans_path = val;
    } else if (flag == "--out") {
      out_path = val;
    } else if (flag == "--work-dir") {
      opt.work_dir = val;
    } else if (flag == "--git-sha") {
      git_sha = val;
    } else {
      Usage();
      return 2;
    }
    if (end != nullptr && (*end != '\0' || end == val)) {
      Usage();
      return 2;
    }
  }
  if (!IsWorkload(opt.workload) || !(opt.seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }
  // The scale switches resize the paper's market; results taken under
  // them would not be comparable with anything.
  for (const char* var : {"CIT_FAST", "CIT_FULL"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && v[0] != '\0') {
      std::fprintf(stderr, "citbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "citbench: cannot create %s\n", opt.work_dir.c_str());
    return 2;
  }
  const std::string tag =
      opt.workload + "-s" + std::to_string(opt.seed) + "-t" +
      std::to_string(trace);
  if (out_path.empty()) out_path = opt.work_dir + "/result-" + tag + ".json";
  if (trace == 1 && spans_path.empty()) {
    spans_path = opt.work_dir + "/spans-" + tag + ".json";
  }
  const int64_t started_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

  SpanLog spans;
  const WorkloadRun run = RunWorkload(opt, &spans);
  const std::vector<Metric> e2e = EndToEnd(run);
  int64_t attempted = run.attempted;
  int64_t failed = run.failed;
  std::vector<std::string> notes = run.notes;
  std::vector<Metric> layers;
  std::vector<Metric> detail = run.detail;
  JsonObject span_self;  // traced: self time per span name, ms

  if (trace == 1) {
    // The traced pass repeats the workload with obs telemetry and the
    // benchmark's spans on; the probes follow.
    const bool obs_was = obs::Enabled();
    obs::SetEnabled(true);
    spans.set_enabled(true);
    const WorkloadRun traced = RunWorkload(opt, &spans);
    spans.set_enabled(false);
    obs::SetEnabled(obs_was);
    attempted += traced.attempted;
    failed += traced.failed;
    notes.insert(notes.end(), traced.notes.begin(), traced.notes.end());
    if (traced.digest != run.digest) {
      ++failed;
      notes.push_back("traced output differs from untraced output");
    }
    for (const Metric& m : traced.detail) {
      detail.push_back({"traced." + m.name, m.value, m.unit});
    }
    std::vector<std::string> failures;
    const ProbeResult probes = RunProbes(opt, &failures);
    ++attempted;
    if (!failures.empty()) {
      ++failed;
      notes.insert(notes.end(), failures.begin(), failures.end());
    }
    layers = traced.counters;
    layers.insert(layers.end(), probes.layers.begin(), probes.layers.end());
    // Serving workloads measured their own server's stats.
    if (!IsServing(opt.workload)) {
      layers.insert(layers.end(), probes.serve_stats.begin(),
                    probes.serve_stats.end());
    }
    layers.push_back({"obs.trace_overhead_pct",
                      100.0 * (traced.primary - run.primary) / run.primary,
                      "%"});
    for (const auto& [name, us] : spans.SelfTimeUs()) {
      span_self.Num(name, 1e-3 * us);
    }
    if (!WriteFile(spans_path, spans.ToJson())) {
      std::fprintf(stderr, "citbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("spans %zu written to %s\n", spans.size(), spans_path.c_str());
  }
  const bool correct = failed == 0;

  std::printf("# citbench %s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, trace, opt.smoke ? " smoke" : "");
  PrintMetrics("", opt.workload, e2e);
  // Whole-run percentiles up to the highest the sample supports.
  std::string tails_json = "[";
  for (const Tail& t : SupportedTails(run.decides)) {
    std::printf("tail decide_%s_us %s %.6g us (n=%lld, %lld beyond)\n",
                t.level.c_str(), opt.workload.c_str(), t.value,
                static_cast<long long>(t.count),
                static_cast<long long>(t.beyond));
    tails_json += (tails_json.size() > 1 ? ", " : "") +
                  JsonObject()
                      .Str("level", t.level)
                      .Num("us", t.value)
                      .Int("samples", t.count)
                      .Int("beyond", t.beyond)
                      .Render();
  }
  tails_json += "]";
  PrintMetrics("detail ", opt.workload, detail);
  PrintMetrics("layer ", opt.workload, layers);
  std::printf("output_digest %s %s\n", opt.workload.c_str(),
              Hex64(run.digest).c_str());
  std::printf("attempted %lld failed %lld%s\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), correct ? "" : " INCORRECT");
  for (const std::string& n : notes) std::printf("note %s\n", n.c_str());

  const std::string notes_json = [&] {
    std::string s = "[";
    for (size_t i = 0; i < notes.size(); ++i) {
      s += (i ? ", " : "") + JsonStr(notes[i]);
    }
    return s + "]";
  }();
  const std::string result =
      JsonObject()
          .Str("schema", "cit.e2e.v1")
          .Str("workload", opt.workload)
          .Int("seed", static_cast<int64_t>(opt.seed))
          .Num("seconds", opt.seconds)
          .Int("trace", trace)
          .Bool("smoke", opt.smoke)
          .Int("started_unix_us", started_us)
          .Raw("fingerprint", Fingerprint(git_sha))
          .Bool("correct", correct)
          .Int("attempted", attempted)
          .Int("failed", failed)
          .Raw("notes", notes_json)
          .Str("output_digest", Hex64(run.digest))
          .Raw("decide_tails", tails_json)
          .Raw("metrics", MetricsJson(e2e))
          .Raw("layers", MetricsJson(layers))
          .Raw("detail", MetricsJson(detail))
          .Raw("span_self_ms", span_self.Render())
          .Render();
  if (!WriteFile(out_path, result + "\n")) {
    std::fprintf(stderr, "citbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("result written to %s\n", out_path.c_str());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("metrics", MetricsJson(trace ? layers : e2e))
                          .Render()
                          .c_str());
  return 0;
}
