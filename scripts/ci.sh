#!/usr/bin/env bash
# CI pipeline, staged so the fast tier-1 gate fails first:
#
#   1. tier-1 gate    — plain build + `ctest -L tier1` (the seed suite;
#                       must always stay green, and stays fast because the
#                       heavier suites are labeled out of it)
#   2. differential   — `ctest -L differential`: the cross-engine oracle,
#                       the OpStats complexity regressions (profile_test)
#                       and the cardinality-accuracy suite
#   3. sanitizers     — AddressSanitizer and UBSan builds (separate trees
#                       via tests/run_sanitized.sh) running the full
#                       labeled suite, differential + profile included
#   4. tsan stress    — ThreadSanitizer build running the `stress`-labeled
#                       concurrent-serving suites (admission, cancellation,
#                       catalog swaps, breaker, queries beside a scrubber)
#   5. asan recovery  — AddressSanitizer re-run of the `recovery`-labeled
#                       crash-safety suite (fork/kill-point matrix, manifest
#                       replay/fuzz, scrubber): the recovery paths touch
#                       freshly truncated/quarantined files and forked
#                       children, exactly where memory bugs hide
#   6. net tier       — ThreadSanitizer run of the `net`-labeled wire suite
#                       (epoll loop + worker pool + chaos matrix is exactly
#                       where races hide), then scripts/serve_smoke.sh: the
#                       shipped xmlq_serve + xmlq_loadgen binaries against a
#                       real socket, ending in a SIGTERM graceful drain
#   7. plan cache     — the `cache`-labeled suite (normalization oracle,
#                       bind-slot round-trips, invalidation, the per-τ-node
#                       engine picks a cached plan keeps, concurrent
#                       hit/miss/invalidate stress)
#                       under AddressSanitizer and ThreadSanitizer: cloned
#                       plans + shared cache entries are where lifetime and
#                       race bugs would live
#   8. replication    — the `repl`-labeled follower-serving suite (ship +
#                       apply chaos matrix, crash kill-points incl. the
#                       promote/epoch boundaries, staleness gate, census
#                       reconciliation, split-brain fencing at every frame
#                       type, quarantine self-heal) under ThreadSanitizer
#                       and AddressSanitizer — the replication thread, the
#                       epoll pump and the apply path share the catalog —
#                       then scripts/failover_smoke.sh: a real primary
#                       SIGKILLed mid-stream while its follower keeps
#                       serving byte-identical answers and reconverges,
#                       followed by the coordinated-failover legs (promote
#                       over the wire, auto-demote, fenced split brain)
#
# Everything — build trees and test temp files (snapshot_test writes its
# *.xqpack scratch files into the ctest working directory) — stays under
# the build trees, so a failed run never litters the source tree.
#
#   scripts/ci.sh              # all eight stages
#   scripts/ci.sh --fast       # tier-1 + differential only
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${ROOT}/build"
JOBS="$(nproc)"

echo "== tier-1: configure + build =="
cmake -B "${BUILD_DIR}" -S "${ROOT}"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== tier-1: ctest (-L tier1) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L tier1

echo "== differential + profile suites (-L differential) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" \
  -L differential

if [[ "${1:-}" == "--fast" ]]; then
  echo "ci: tier-1 + differential green (sanitizers skipped)"
  exit 0
fi

# Full suite under each sanitizer: the fuzz + fault-injection tests get the
# memory checking they exist for, and the differential oracle + profile
# counters run instrumented too (asserting the instrumentation itself is
# clean under ASan/UBSan).
for sanitizer in address undefined; do
  echo "== sanitizer suite: ${sanitizer} =="
  "${ROOT}/tests/run_sanitized.sh" "${sanitizer}" -j "${JOBS}"
done

# The concurrency suite under ThreadSanitizer: data races in the serving
# layer (COW catalog, scheduler, breaker, fault injector) fail here even
# when the uninstrumented run got lucky with its interleavings.
echo "== tsan stress suite =="
"${ROOT}/tests/run_sanitized.sh" thread -j "${JOBS}" -L stress

# The crash matrix once more under ASan (the plain-build run already
# happened inside the tier-1 gate): every kill point forks a child that
# dies mid-write, and recovery then replays torn journals and quarantines
# corrupt snapshots — pointer arithmetic over hostile bytes that deserves
# instrumentation. Serial (-j 1): the fork-heavy matrix is timing-sensitive
# under ASan's slowdown.
echo "== asan recovery suite =="
"${ROOT}/tests/run_sanitized.sh" address -j 1 -L recovery

# The serving tier under ThreadSanitizer: the epoll loop, worker pool and
# completion queues are the newest cross-thread surface, and the chaos
# matrix drives them through every fault site concurrently. Serial (-j 1):
# the suite binds real sockets and is timing-sensitive under TSan slowdown.
echo "== tsan net suite =="
"${ROOT}/tests/run_sanitized.sh" thread -j 1 -L net

# End-to-end smoke of the shipped binaries over a real socket, ending in a
# SIGTERM graceful drain (uses the plain tier-1 build tree). The loadgen
# runs its --repeat-mix workload, so the server plan cache serves bind-slot
# hits under live concurrent load.
echo "== serve smoke (xmlq_serve + xmlq_loadgen) =="
"${ROOT}/scripts/serve_smoke.sh" "${BUILD_DIR}" 10

# The plan-cache suite under both ASan and TSan: executions run clones of
# shared cached templates while other threads evict, invalidate and re-plan
# the entries — the exact use-after-free / data-race surface of this
# subsystem.
echo "== asan cache suite =="
"${ROOT}/tests/run_sanitized.sh" address -j "${JOBS}" -L cache
echo "== tsan cache suite =="
"${ROOT}/tests/run_sanitized.sh" thread -j "${JOBS}" -L cache

# The replication suite under both TSan and ASan: the follower's stream
# thread applies snapshots into a catalog other threads query, the server's
# loop thread pumps shipments while workers answer queries, and the crash
# matrix forks children that die mid-apply and mid-promote — both race and
# lifetime surface. The suite also carries the coordinated-failover cells
# (epoch fencing at every frame type, promote-over-wire split brain,
# quarantine self-heal). Serial (-j 1): binds real sockets and forks,
# timing-sensitive under sanitizer slowdown.
echo "== tsan repl suite =="
"${ROOT}/tests/run_sanitized.sh" thread -j 1 -L repl
echo "== asan repl suite =="
"${ROOT}/tests/run_sanitized.sh" address -j 1 -L repl

# Live failover smoke of the shipped binaries: primary + follower over real
# sockets, kill -9 mid-stream, byte-identical serving through the outage,
# autonomous reconvergence when the primary returns — then coordinated
# failover: promote the follower over the wire, auto-demote the rejoining
# old primary, and fence a deliberate split brain on both sides.
echo "== failover smoke (primary kill -9 + follower reconvergence) =="
"${ROOT}/scripts/failover_smoke.sh" "${BUILD_DIR}"

echo "ci: tier-1 + differential + sanitizers + tsan stress + asan recovery + net + cache + repl green"
