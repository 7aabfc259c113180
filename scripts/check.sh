#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then a sanitizer pass
# (ASan + UBSan, halting on the first UBSan report) over every gtest
# binary, then a ThreadSanitizer pass over the threaded suites.
# Usage: scripts/check.sh [--full-asan]   (--full-asan also runs the
# non-gtest ctest entries — lint, golden and example checks — under the
# sanitizers)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== console smoke: live endpoints + control plane + streaming =="
# Ephemeral ports, a raw-socket /metrics fetch, a pause/step/resume round
# trip over the secure control channel, an SSE flight-recorder stream,
# and a scripted control-plane attack that must trip the console's IDS
# sensor — the end-to-end path a CI regression in the net/ or service/
# layers would break first.
./build/examples/fleet_console --smoke

echo "== static analysis: agrarsec-lint over the committed models =="
# Gate on NEW findings only: everything in the checked-in baseline is
# known backlog; any un-baselined error finding fails the stage.
./build/tools/agrarsec_lint --model=all --baseline=.agrarsec-lint-baseline.json
# The deliberately-defective model must keep tripping the non-zero exit —
# this proves the gate actually gates.
if ./build/tools/agrarsec_lint --model=defective >/dev/null; then
  echo "check.sh: defective model linted clean — the lint gate is broken" >&2
  exit 1
fi

echo "== static analysis: clang-tidy (skips when not installed) =="
./scripts/tidy.sh build

echo "== sanitizers: ASan + UBSan =="
cmake -B build-asan -S . -DAGRARSEC_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
if [[ "${1:-}" == "--full-asan" ]]; then
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
else
  # Every gtest binary. AGRARSEC_SANITIZE builds with
  # -fno-sanitize-recover=undefined, so a UBSan report fails the binary.
  SUITES=(core_test crypto_test pki_test obs_test net_test secure_test ids_test
          sim_test sensors_test safety_test risk_test assurance_test
          analysis_test sos_test integration_test service_test)
  cmake --build build-asan -j "$JOBS" --target "${SUITES[@]}"
  for suite in "${SUITES[@]}"; do
    echo "-- $suite"
    "./build-asan/tests/$suite" --gtest_brief=1
  done
fi

echo "== sanitizers: TSan over the threaded paths =="
# The suites that actually run worker threads: the thread pool itself,
# the mutex-guarded logger under concurrent writers + sink swaps, the
# telemetry registry's sharded lanes, the fleet service batching whole
# sessions across the pool (the one parallel grain: a worksite steps
# serially), and the console's HTTP + control server threads
# snapshotting and pausing against concurrent step_all batches. A data
# race between sessions fails here even though the parity tests (which
# compare outcomes, not interleavings) might still pass. The net_test
# torture suite and the ConsoleStream/ConsoleSensor suites add the
# poll-driven HTTP server under concurrent clients, SSE subscribers
# against a stepping fleet, and the control-plane IDS sensor written by
# the control thread while /ids reads it. OcclusionBatchTest.Concurrent*
# shares one const Terrain between threads resolving sight lines.
# scripts/gtest_filter.sh fails any filter pattern that selects no tests,
# so a renamed suite cannot silently drop out of these runs.
cmake -B build-tsan -S . -DAGRARSEC_TSAN=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-tsan -j "$JOBS" --target core_test net_test sim_test obs_test service_test
tsan_run() { ./scripts/gtest_filter.sh "./build-tsan/tests/$1" "$2"; }
tsan_run core_test 'ThreadPool*:LogThreadSafety*'
tsan_run net_test 'HttpServerTorture*'
tsan_run obs_test 'RegistryTest.MergeIsDeterministic*'
tsan_run sim_test 'OcclusionBatchTest.Concurrent*'
tsan_run service_test 'FleetServiceParallel*:ConsoleParallel*:ConsoleStream*:ConsoleSensor*'

echo "== all checks passed =="
