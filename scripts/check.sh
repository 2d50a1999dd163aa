#!/usr/bin/env bash
# Full verification matrix:
#   1. Release build + full ctest (the tier-1 gate), run twice with
#      CIT_NUM_THREADS=1 and =4 — results must agree (the determinism
#      tests inside the suite check bitwise identity in-process too) —
#      then once per forced kernel backend (CIT_KERNEL=scalar and
#      CIT_KERNEL=simd) so both dispatch arms pass the whole suite.
#   2. Focused correctness gates, most run at 1 and 4 threads: kernel
#      backends (the adversarial GEMM/conv shape matrix and pack-allocation
#      tests), observability (bitwise-identical curves with telemetry
#      on/off, trace/snapshot JSON parses), decide-path allocations (exact
#      per-decide heap allocation counts), checkpoint/resume (container
#      corruption fuzz plus the kill-at-k bitwise-resume tests for every
#      trainer), inference (bitwise backtests with the graph-free no-grad
#      path on vs. off), compiled forward (bitwise backtests with plan
#      replay on vs. off, staleness/fusion/eviction structure), data plane
#      (sources and scenarios, plus a sweep report byte-identical at 1 and
#      4 threads) and serving (adversarial client matrix + hot-swap soak,
#      then the citd binary end-to-end against a scripted Unix-socket
#      client).
#   3. ASan and UBSan builds + full ctest at smoke scale (CIT_FAST=1) —
#      this reruns the checkpoint fuzz under ASan, so corrupt-length
#      allocations and parser overreads trip immediately; the UBSan build
#      aborts on its first report, so any UB fails its test.
#   4. TSan build running the thread-pool / determinism / serial-training
#      and sweep tests, plus the suites whose state is per thread, with
#      CIT_OVERSUBSCRIBE=1 so the pool's workers really run sweep cells
#      concurrently even on small hosts.
#   5. A CIT_OBS=OFF build, proving the instrumentation compiles out.
#   6. A portable (-DCIT_NATIVE_ARCH=OFF) build running test_kernels at 1
#      and 4 threads: the direct conv's bitwise reference test must also
#      hold where the compiler emits no FMA.
#   7. An AVX2 build (-DCIT_NATIVE_ARCH=OFF -DCMAKE_CXX_FLAGS="-mavx2
#      -mfma") running test_kernels and test_plan at 1 and 4 threads: the
#      SIMD backend's AVX2 arms compile only where AVX-512 is absent, so no
#      other step builds or runs them on an AVX-512 host.
#
# Performance is measured by one harness, the end-to-end benchmark
# (bash bench/e2e/run.sh, see bench/e2e/README.md); tier-1 ctest already
# runs its unit tests and smoke runs, so no step here asserts a number.
#
# Usage: scripts/check.sh [--quick]
#   --quick stops after step 2 (no sanitizer, CIT_OBS=OFF, portable or
#   AVX2 builds).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

run() { echo "+ $*"; "$@"; }

echo "=== Release build + ctest (1 and 4 threads) ==="
run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
run cmake --build build -j"$(nproc)"
(cd build && run env CIT_NUM_THREADS=1 ctest --output-on-failure -j2)
(cd build && run env CIT_NUM_THREADS=4 ctest --output-on-failure -j2)
# Both dispatch arms must pass the entire suite: forced-scalar proves the
# reference backend still carries every bitwise contract, forced-simd
# proves the microkernels do too (on a scalar-only build kSimd clamps to
# kScalar, so this run degrades to a harmless repeat).
(cd build && run env CIT_KERNEL=scalar CIT_NUM_THREADS=4 \
    ctest --output-on-failure -j2)
(cd build && run env CIT_KERNEL=simd CIT_NUM_THREADS=4 \
    ctest --output-on-failure -j2)

echo "=== kernel-backend gate (dispatch matrix at 1 and 4 threads) ==="
# test_kernels runs the adversarial GEMM/conv shape matrix (prime and tail
# dims straddling every microkernel boundary), per-backend bitwise equality
# at 1 and 4 pool threads (kernels are serial, so the pool size must never
# show), simd-vs-scalar agreement, both direct-conv arms against
# their bitwise reference loop (tile edges, non-finite weights, 6,000
# seeded random shapes), the pack-buffer steady-state allocation check,
# and the byte-accounting formula pins.
(cd build && run env CIT_NUM_THREADS=1 ./tests/test_kernels)
(cd build && run env CIT_NUM_THREADS=4 ./tests/test_kernels)

echo "=== observability gate (bitwise curves with telemetry on/off) ==="
# test_obs proves training curves are bitwise identical with telemetry off
# vs. fully on (spans + trace + snapshots) and that the emitted trace /
# snapshot JSON parses; run it serial and parallel.
(cd build && run env CIT_NUM_THREADS=1 ./tests/test_obs)
(cd build && run env CIT_NUM_THREADS=4 ./tests/test_obs)

echo "=== allocation gate (exact heap allocations per decide) ==="
# test_alloc counts operator new calls and pins the exact number per
# new-day and cached-day DecideWeights at U.S. and citd shapes and per
# citd batch of 8, and that the feature block builds into caller memory
# without allocating. The counts are deterministic, so they must hold at
# any pool size.
(cd build && run env CIT_NUM_THREADS=1 ./tests/test_alloc)
(cd build && run env CIT_NUM_THREADS=4 ./tests/test_alloc)

echo "=== checkpoint/resume gate (container fuzz + kill-at-k resume) ==="
(cd build && run ctest --output-on-failure \
    -R 'Checkpoint|TrainProgress|OptimizerState|EnvCursor|Serialize|AtomicWrite')

echo "=== inference gate (graph-free path bitwise) ==="
# test_inference proves every agent's backtest is bitwise identical with the
# no-grad fast path on vs. forced off (ag::SetNoGradAllowed(false)), and that
# guarded ops build no graph; run it serial and parallel.
(cd build && run env CIT_NUM_THREADS=1 ./tests/test_inference)
(cd build && run env CIT_NUM_THREADS=4 ./tests/test_inference)

echo "=== compiled-forward gate (plan replay bitwise) ==="
# test_plan proves every agent's backtest is bitwise identical with plan
# replay on vs. forced off (plan::SetCompileAllowed(false)) at 1 and 4 pool
# threads, that parameter mutations (optimizer steps, checkpoint reloads)
# invalidate stale plans, and that fusion/eviction/kill-switch behave; run
# it serial and parallel.
(cd build && run env CIT_NUM_THREADS=1 ./tests/test_plan)
(cd build && run env CIT_NUM_THREADS=4 ./tests/test_plan)

echo "=== data-plane gate (sources, scenarios, sweep smoke) ==="
# test_source proves PanelView reads and whole backtests are bitwise
# identical through InMemorySource, and that one view read by four
# threads at once agrees element by element with the panel; run it
# serial and parallel. test_scenarios pins every stress preset's
# semantics, checks a deep stack bit for bit against the row-memo
# reference evaluation, and pins the fixed-seed agent orderings.
(cd build && run env CIT_NUM_THREADS=1 ./tests/test_source)
(cd build && run env CIT_NUM_THREADS=4 ./tests/test_source)
(cd build && run env CIT_NUM_THREADS=1 ./tests/test_scenarios)
(cd build && run env CIT_NUM_THREADS=4 ./tests/test_scenarios)
# Sweep smoke: the sharded (scenario x agent x seed) driver must emit one
# valid cit.sweep.v1 JSON document, and the report must be byte-identical
# at 1 and 4 pool threads (cells are written to pre-sized slots, so thread
# count cannot reorder or perturb anything).
run cmake --build build -j"$(nproc)" --target sweep
run env CIT_NUM_THREADS=1 ./build/examples/sweep \
    --scenarios 'baseline;flash_crash:depth=0.25;liquidity_hole:cost_mult=8' \
    --agents OLMAR,CRP,Market --seeds 0,1 --out /tmp/sweep_check_1t.json
run env CIT_NUM_THREADS=4 ./build/examples/sweep \
    --scenarios 'baseline;flash_crash:depth=0.25;liquidity_hole:cost_mult=8' \
    --agents OLMAR,CRP,Market --seeds 0,1 --out /tmp/sweep_check_4t.json
run cmp /tmp/sweep_check_1t.json /tmp/sweep_check_4t.json
run python3 - <<'EOF'
import json
with open("/tmp/sweep_check_1t.json") as f:
    report = json.load(f)
assert report["schema"] == "cit.sweep.v1", report.get("schema")
assert len(report["scenarios"]) == 3, report["scenarios"]
assert len(report["cells"]) == 3 * 3 * 2, len(report["cells"])
agents = {c["agent"] for c in report["cells"]}
assert agents == {"OLMAR", "CRP", "Market"}, agents
for cell in report["cells"]:
    for key in ("ar", "sharpe", "max_drawdown", "final_wealth", "turnover"):
        float(cell[key])  # present and numeric
summaries = {s["agent"] for s in report["summary"]}
assert summaries == agents, summaries
print("sweep report schema + %d cells OK" % len(report["cells"]))
EOF

echo "=== serving gate (daemon soak + citd end-to-end smoke) ==="
# test_serve runs the adversarial client matrix and the hot-swap soak
# (4 concurrent clients, bitwise serve-vs-library, swap mid-soak) at 1
# and 4 workers; repeat at 1 and 4 pool threads.
(cd build && run env CIT_NUM_THREADS=1 ./tests/test_serve)
(cd build && run env CIT_NUM_THREADS=4 ./tests/test_serve)
# End-to-end: the real daemon binary against a scripted client — ping,
# decide, checkpoint hot-swap (to the daemon's own saved init, so the
# post-swap decision must be bitwise identical), protocol error, stats.
run cmake --build build -j"$(nproc)" --target citd
CITD_SOCK=/tmp/citd_check.sock
CITD_INIT=/tmp/citd_check_init.bin
rm -f "$CITD_SOCK" "$CITD_INIT"
./build/examples/citd --socket "$CITD_SOCK" --workers 2 --assets 4 \
    --window 8 --policies 2 --save-init "$CITD_INIT" &
CITD_PID=$!
trap 'kill "$CITD_PID" 2>/dev/null || true' EXIT
run python3 - "$CITD_SOCK" "$CITD_INIT" <<'EOF'
import socket, sys, time
sock_path, init_path = sys.argv[1], sys.argv[2]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
for _ in range(100):
    try:
        s.connect(sock_path)
        break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit("citd did not come up")
f = s.makefile("rw")
def ask(line):
    f.write(line + "\n"); f.flush()
    return f.readline().strip()
assert ask("ping") == "ok pong 0"
prices = " ".join("%.17g" % (10.0 + d * 0.01 + a)
                  for d in range(8) for a in range(4))
first = ask("decide 8 4 " + prices)
assert first.startswith("ok 0 ") and len(first.split()) == 2 + 4, first
assert ask("swap " + init_path) == "ok swapped 1"
second = ask("decide 8 4 " + prices)
assert second.startswith("ok 1 "), second
assert second.split()[2:] == first.split()[2:], (first, second)
assert ask("frobnicate").startswith("err proto")
stats = ask("stats")
assert '"serve.decides"' in stats and '"wall_us"' in stats, stats
print("citd end-to-end smoke OK")
EOF
kill "$CITD_PID"; wait "$CITD_PID" 2>/dev/null || true
trap - EXIT

if [[ "$QUICK" == "1" ]]; then
  echo "--quick: skipping sanitizer builds"
  exit 0
fi

for SAN in address undefined; do
  echo "=== ${SAN} sanitizer build + ctest (CIT_FAST=1) ==="
  run cmake -B "build-${SAN}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCIT_SANITIZE="${SAN}"
  run cmake --build "build-${SAN}" -j"$(nproc)"
  # citbench refuses CIT_FAST by design (its results would not be
  # comparable), so its smoke runs sit out the smoke-scale sanitizer pass.
  (cd "build-${SAN}" && run env CIT_FAST=1 ctest --output-on-failure -j2 \
      -E citbench_smoke_)
done

echo "=== thread sanitizer build + threading/sweep tests ==="
run cmake -B build-thread -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCIT_SANITIZE=thread
run cmake --build build-thread -j"$(nproc)" --target test_threading \
    test_rollout test_inference test_plan test_serve test_kernels \
    test_source test_scenarios test_core
# CIT_OVERSUBSCRIBE lifts the hardware clamp so the pool really spawns the
# requested workers: TSan then sees genuine cross-thread interleavings of
# sweep cells even on a 1-core container, and of the pool's own index
# claims. The pool runs only sweep cells (kernels and training are serial on
# their calling thread), so the other suites ride along for their per-thread
# state and for concurrency of their own: test_rollout for the counter-split
# streams and thread-count-invariant training curves; test_inference for the
# grad-mode thread-local and the NoGradAllowed atomic; test_plan for plan
# replays (fused sweeps, slab writes, the CompileAllowed atomic, the
# recording thread-local); the serve daemon tests so worker threads, the
# swap mutex + generation counter, and per-replica plan ownership are raced
# under real concurrent clients; test_kernels' KernelDispatch suite so the
# SIMD microkernels, the pack and conv-scratch thread-locals, and the
# backend atomic run under TSan instrumentation; the Source/Scenario/Sweep
# suites so one PanelView read by four threads at once, and sweep cells
# building their ScenarioSources from one shared base source on pool
# workers, are raced for real; test_core's StackedDecide suite so batched
# and batch-of-one decides, which share plans, are checked bitwise for every
# backbone at 1 and 4 pool threads.
(cd build-thread && run env CIT_FAST=1 CIT_OVERSUBSCRIBE=1 CIT_NUM_THREADS=4 \
    ctest --output-on-failure \
    -R 'ThreadPool|Determinism|RngSplit|RolloutDeterminism|InferenceIdentity|GradMode\.|Arena\.|Compiled|ArenaStats\.|Serve|PlanOwner|KernelDispatch|Source|Scenario|Sweep|StackedDecide')

echo "=== CIT_OBS=OFF build (instrumentation compiles out) ==="
run cmake -B build-noobs -S . -DCMAKE_BUILD_TYPE=Release -DCIT_OBS=OFF
run cmake --build build-noobs -j"$(nproc)" --target test_obs
(cd build-noobs && run ./tests/test_obs)

echo "=== portable build (CIT_NATIVE_ARCH=OFF) + kernel tests ==="
# No -march=native: on x86 there is no SIMD path and no FMA contraction,
# so the kernels and their bitwise references round every multiply-add
# twice.
run cmake -B build-portable -S . -DCMAKE_BUILD_TYPE=Release \
    -DCIT_NATIVE_ARCH=OFF
run cmake --build build-portable -j"$(nproc)" --target test_kernels
(cd build-portable && run env CIT_NUM_THREADS=1 ./tests/test_kernels)
(cd build-portable && run env CIT_NUM_THREADS=4 ./tests/test_kernels)

echo "=== AVX2 build (-mavx2 -mfma) + kernel and plan tests ==="
# The SIMD backend's AVX2 arms (GEMM tile, elementwise sweeps, Axpy, fused
# chains) compile only where AVX-512 is absent. Here SimdIsaName() is avx2
# (KernelDispatch.IsaNameMatchesCompileTarget checks it), the direct conv
# takes the time-major arm on both backends, and the scalar loops contract
# to FMA as in a native build.
run cmake -B build-avx2 -S . -DCMAKE_BUILD_TYPE=Release \
    -DCIT_NATIVE_ARCH=OFF -DCMAKE_CXX_FLAGS="-mavx2 -mfma"
run cmake --build build-avx2 -j"$(nproc)" --target test_kernels test_plan
(cd build-avx2 && run env CIT_NUM_THREADS=1 ./tests/test_kernels)
(cd build-avx2 && run env CIT_NUM_THREADS=4 ./tests/test_kernels)
(cd build-avx2 && run env CIT_NUM_THREADS=1 ./tests/test_plan)
(cd build-avx2 && run env CIT_NUM_THREADS=4 ./tests/test_plan)

echo "ALL CHECKS PASSED"
