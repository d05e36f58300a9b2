#!/usr/bin/env bash
# Staged CI driver. Stages:
#
#   fast    — build + every test that is not labelled `chaos` (quick signal)
#   chaos   — the labelled fault-injection soaks and scenario sweeps,
#             including the overlay-repair cells (standby activation,
#             gossip re-peering, lossy-link repair soaks — DESIGN.md §15),
#             scheduled separately because they simulate tens of seconds of
#             virtual/wall time (each already carries a 300 s ctest timeout)
#   sockets — the loopback-TCP suites (SocketNetwork conformance + the
#             end-to-end framing tests) with a hard timeout; skipped
#             gracefully where loopback sockets are unavailable
#   asan    — ET_SANITIZE=address build of the codec-edge and robustness
#             suites (over-read probes on the framing/view decoders) and
#             the crypto suites (the Montgomery64 kernel indexes stack
#             arrays by a runtime limb count)
#   tsan    — ET_SANITIZE=thread build running the concurrency-sensitive
#             suites, including the socket backend and the RealTimeNetwork
#             chaos scenario and overlay-repair smokes
#   scale   — the E16 100k-entity smoke (bench_entity_scale --smoke):
#             asserts the §14 resource floors (interest edges and armed
#             timers each >= 100x fewer than entities, RSS under 512 MB)
#   durability — the §16 persistence suites: WAL crash-recovery property
#             tests, replay-log/ledger fuzzing, the durable-state chaos
#             cells, plus a SocketNetwork kill-and-recover smoke
#
# Usage: scripts/ci.sh [fast|chaos|sockets|asan|tsan|scale|durability|all]
# (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

configure() { # build-dir extra-cmake-args...
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
}

run_fast() {
  configure build
  ctest --test-dir build -LE chaos --output-on-failure -j "$jobs"
}

run_chaos() {
  configure build
  ctest --test-dir build -L chaos --output-on-failure --timeout 300
}

# True when this environment can bind a loopback TCP socket (some
# sandboxes cannot; the socket suites would fail on setup, not on merit).
loopback_available() {
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0))' \
      >/dev/null 2>&1
    return $?
  fi
  return 0  # no probe available; let the tests speak for themselves
}

run_sockets() {
  if ! loopback_available; then
    echo "sockets: loopback unavailable in this environment, skipping stage"
    return 0
  fi
  configure build
  # Real-TCP suites: the conformance matrix instantiated over
  # SocketNetwork plus the end-to-end framing/corruption tests. The hard
  # timeout bounds a wedged event loop to minutes, not a hung CI job.
  ctest --test-dir build --output-on-failure --timeout 120 -R \
    'SocketNetwork|FrameCodec'
}

run_asan() {
  configure build-asan -DET_SANITIZE=address -DET_BUILD_BENCHMARKS=OFF \
    -DET_BUILD_EXAMPLES=OFF
  # Codec edges under ASan: the framing assembler's truncation/split/
  # overlong cases, corrupted-frame parses, and the wire robustness
  # suites — the decoders' no-over-read contract, enforced. The Persist
  # suites add the WAL/snapshot/ledger decoders fed truncated, bit-flipped
  # and garbage inputs (DESIGN.md §16). The crypto suites run the
  # Montgomery64 kernel, whose fixed-capacity stack arrays are indexed by
  # the modulus's runtime limb count, and the AES T-table rounds, against
  # the classical reference, the golden outputs and corrupted signatures.
  ctest --test-dir build-asan --output-on-failure --timeout 300 -R \
    'FrameAssembler|FrameCodec|Robustness|Persist|BigInt|Rsa|Aes|Corruption'
}

run_tsan() {
  configure build-tsan -DET_SANITIZE=thread -DET_BUILD_BENCHMARKS=OFF \
    -DET_BUILD_EXAMPLES=OFF
  # Threaded/wall-clock suites where TSan has something to bite on: the
  # socket backend's event loop, the conformance matrix across all three
  # backends, and the RealTimeNetwork chaos schedule and overlay-repair
  # smokes (the latter matches via "RealTime").
  # Persist rides along: fsync/close ordering under TSan's happens-before
  # checking costs little and keeps the durability layer in the matrix.
  local filter='Realtime|RealTime|ChaosRealTimeSmoke|Threaded|Persist'
  if loopback_available; then
    filter="$filter|BackendConformance|SocketNetwork|FrameCodec"
  else
    echo "tsan: loopback unavailable, running without the socket suites"
    filter="$filter"'|BackendConformanceTest.*<et::transport::(Virtual|Real)'
  fi
  ctest --test-dir build-tsan --output-on-failure --timeout 300 -R "$filter"
}

run_scale() {
  configure build
  # Virtual-time 10^5-entity deployment; exits non-zero if any §14
  # resource floor regresses. Completes in seconds of wall time.
  ./build/bench/bench_entity_scale --smoke
}

run_durability() {
  configure build
  # §16 persistence: WAL truncate-at-every-byte property tests, the
  # replay-log / ledger fuzz suites, and the durable-state chaos cells
  # (restart-with-state vs cold, audit-after-partition, determinism).
  # DurabilitySocketSmoke is the kill-and-recover smoke over a real TCP
  # loopback; excluded where the sandbox cannot bind sockets.
  local exclude=''
  if ! loopback_available; then
    echo "durability: loopback unavailable, skipping the socket smoke"
    exclude='DurabilitySocketSmoke'
  fi
  ctest --test-dir build --output-on-failure --timeout 300 \
    -R 'Persist|Durability' ${exclude:+-E "$exclude"}
}

case "$stage" in
  fast)    run_fast ;;
  chaos)   run_chaos ;;
  sockets) run_sockets ;;
  asan)    run_asan ;;
  tsan)    run_tsan ;;
  scale)   run_scale ;;
  durability) run_durability ;;
  all)     run_fast; run_chaos; run_sockets; run_asan; run_tsan; run_scale
           run_durability ;;
  *) echo "unknown stage: $stage" >&2
     echo "want fast|chaos|sockets|asan|tsan|scale|durability|all" >&2
     exit 2 ;;
esac
