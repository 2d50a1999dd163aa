#!/usr/bin/env bash
# Builds citbench from this checkout's sources into .bench_build and runs
# one workload. Run from the repository root:
#
#   bash bench/e2e/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
#
# Arguments go to citbench unchanged (see README.md in this directory).
set -euo pipefail

if [[ ! -f CMakeLists.txt || ! -f src/CMakeLists.txt || ! -d bench/e2e ]]; then
  echo "run.sh: run from the repository root; no sources here" >&2
  exit 2
fi
for var in CIT_FAST CIT_FULL; do
  if [[ -n "${!var:-}" ]]; then
    echo "run.sh: refusing to run with $var set" >&2
    exit 2
  fi
done

build=.bench_build
mkdir -p "$build"
hook="$PWD/bench/e2e/hook.cmake"
if ! { cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release \
         -DCMAKE_PROJECT_cross_insight_trader_INCLUDE="$hook" &&
       cmake --build "$build" --target citbench -j "$(nproc)"; } \
       >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (full log: $build/build.log)" >&2
  exit 1
fi

# At most two kernel threads, so hosts with more cores run the shape the
# recorded baselines ran. On a shared 4-vCPU VM four threads made the
# pipeline's and the sweep's run-to-run spread two to six times wider
# than two did: a fork/join waits for its slowest thread, and with every
# vCPU busy any stall of the host holds one up.
threads=$(nproc)
(( threads > 2 )) && threads=2
export CIT_NUM_THREADS=$threads

# Stop git at the checkout: only this tree's own history counts.
sha=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" \
      git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

exec "$build/bench/citbench" --git-sha "$sha" --work-dir "$build/e2e" "$@"
