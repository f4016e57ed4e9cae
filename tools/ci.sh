#!/usr/bin/env bash
# CI driver: build and test the plain configuration, then again with
# AddressSanitizer + UndefinedBehaviorSanitizer (SYSTOLIZE_SANITIZE=ON).
# Run from anywhere; builds land in <repo>/build and <repo>/build-asan.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local dir="$1"; shift
  echo "=== configure: ${dir} ($*) ==="
  cmake -B "${dir}" -S "${repo}" "$@"
  echo "=== build: ${dir} ==="
  cmake --build "${dir}" -j "${jobs}"
  echo "=== test: ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

# Run one bench binary over a filter, print its log, and fail when the
# binary fails or any benchmark skipped with an error. SkipWithError is
# how a bench asserts, but under BENCHMARK_MAIN() it only prints
# "ERROR OCCURRED" and the binary still exits 0, so the log is checked.
bench_smoke() {
  local bin="$1" filter="$2" log rc=0
  log="$("${repo}/build/bench/${bin}" --benchmark_filter="${filter}" \
    --benchmark_min_time=0.05 2>&1)" || rc=$?
  echo "${log}"
  if [ "${rc}" -ne 0 ] || grep -q 'ERROR OCCURRED' <<<"${log}"; then
    echo "${bin} '${filter}' reported an error (exit ${rc})" >&2; exit 1
  fi
}

run_config "${repo}/build"
run_config "${repo}/build-asan" -DSYSTOLIZE_SANITIZE=ON

echo "=== link: the CLI is static-pie, the sanitized CLI dynamic ==="
# src/CMakeLists.txt links the systolize executable -static-pie, so a
# one-shot process runs no dynamic loader: ELF type DYN (position
# independent, so ASLR holds) with no PT_INTERP and no NEEDED entry.
# Sanitizer runtimes need the dynamic loader, so the ASan build keeps its
# PT_INTERP (docs/performance.md "Cold path").
cli_elf="$(readelf -h -l -d "${repo}/build/tools/systolize")"
if ! grep -Eq 'Type: +DYN' <<<"${cli_elf}" ||
    grep -q 'INTERP' <<<"${cli_elf}" || grep -q '(NEEDED)' <<<"${cli_elf}"; then
  echo "build/tools/systolize is not static-pie:" >&2
  grep -E 'Type:|INTERP|NEEDED' <<<"${cli_elf}" >&2; exit 1
fi
grep -q 'INTERP' <<<"$(readelf -l "${repo}/build-asan/tools/systolize")" || {
  echo "build-asan/tools/systolize lost its PT_INTERP (sanitizers need" \
       "the dynamic loader)" >&2; exit 1; }

# Static-analysis lint: clang-tidy over the sources changed most often by
# the analysis/search work, with the root .clang-tidy profile (bugprone,
# performance, concurrency; warnings are errors). Gated on availability —
# the reference container ships no clang-tidy, real CI machines do.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== lint: clang-tidy (bugprone, performance, concurrency) ==="
  clang-tidy -p "${repo}/build" --quiet \
    "${repo}/src/analysis/cost.cpp" \
    "${repo}/src/systolic/enumerate.cpp" \
    "${repo}/src/frontend/render.cpp" \
    "${repo}/src/service/executor.cpp" \
    "${repo}/src/service/protocol.cpp"
else
  echo "=== lint: clang-tidy not installed, skipping (install to enable) ==="
fi

# Static verification lint gate: the whole catalog must prove clean, and
# each deliberately-broken design must trip exactly its seeded rule id
# (docs/static-analysis.md has the rule table).
echo "=== verify: catalog must be clean ==="
"${repo}/build/tools/systolize" verify all --n=4 --format=json \
  | grep -q '"errors":0'
"${repo}/build/tools/systolize" verify all --n=4

# The run gate (--verify-plan) proves what verify proves: each broken
# design must also fail a gated run with the baseline check off, and the
# loading-cover fixture must fail it on its rule (it has no earlier one).
expect_rule() {
  local design="$1" rule="$2"
  echo "=== verify: ${design} must trip ${rule} ==="
  local out
  if out="$("${repo}/build/tools/systolize" verify \
      "${repo}/designs/broken/${design}.sa" --format=json)"; then
    echo "expected non-zero exit for broken design ${design}" >&2
    exit 1
  fi
  grep -q "\"rule\":\"${rule}\"" <<<"${out}" || {
    echo "expected rule ${rule} in findings for ${design}: ${out}" >&2
    exit 1
  }
  if out="$("${repo}/build/tools/systolize" run \
      "${repo}/designs/broken/${design}.sa" --n=3 --verify-plan \
      --no-verify 2>&1 >/dev/null)"; then
    echo "expected the gated run of ${design} to exit non-zero" >&2; exit 1
  fi
  if [ "${design}" = loading_cover ] &&
      ! grep -q "flow.loading-cover" <<<"${out}"; then
    echo "expected flow.loading-cover from the gated run: ${out}" >&2; exit 1
  fi
}

expect_rule step_on_nullplace schedule.injectivity
expect_rule dependence_clash schedule.dependence-step
expect_rule wide_flow flow.neighbour
expect_rule rank_deficient stream.rank
expect_rule loading_cover flow.loading-cover

echo "=== analyze: cost model over the catalog + broken fixtures ==="
# Spot-check one golden number (matmul2's process count at n=4) and make
# sure every broken fixture degrades to findings, not a crash.
"${repo}/build/tools/systolize" analyze matmul2 --sizes=4 --format=json \
  | grep -q '"processes":191'
for broken in step_on_nullplace dependence_clash wide_flow rank_deficient; do
  if "${repo}/build/tools/systolize" analyze \
      "${repo}/designs/broken/${broken}.sa" > /dev/null; then
    echo "expected analyze to exit non-zero for ${broken}" >&2; exit 1
  fi
done

echo "=== explore smoke: matmul2 must win its own search space ==="
# The PR8 acceptance criterion, end to end through the CLI: restricted to
# the appendix design's projection, the search re-discovers it at rank 1,
# and the exported winner round-trips compile -> verify -> run against
# the sequential baseline.
explore_out="$(mktemp -u /tmp/systolize-ci-XXXXXX.sa)"
"${repo}/build/tools/systolize" explore matmul2 --same-projection \
  --sizes=4 --export="${explore_out}" \
  | grep -q '#1 \[seed\]' || {
  echo "matmul2 did not rank first in its own projection class" >&2
  exit 1; }
"${repo}/build/tools/systolize" run "${explore_out}" --n=5 --verify \
  | grep -q 'verify: OK' || {
  echo "exported explore winner failed the differential run" >&2
  exit 1; }
rm -f "${explore_out}"

echo "=== bytecode differential: every shipped design, VM solo and batched ==="
# The native-backend contract (docs/performance.md "Native backend &
# batching"): every shipped design (designs/*.sa — the catalog plus the
# guarded masked_polyprod and banded_matmul, whose guards the VM lanes
# evaluate) must match the sequential ground truth on the VM, solo and as
# an 8-lane SoA batch with every lane checked, and must verify clean.
for sa in "${repo}"/designs/*.sa; do
  design="$(basename "${sa}" .sa)"
  "${repo}/build/tools/systolize" run "${sa}" --n=4 \
    --backend=bytecode --verify | grep -q 'verify: OK' || {
    echo "bytecode run diverged from sequential for ${design}" >&2; exit 1; }
  "${repo}/build/tools/systolize" run "${sa}" --n=4 --batch=8 \
    --verify | grep -q 'verify: OK (all 8 instances' || {
    echo "batched run diverged from sequential for ${design}" >&2; exit 1; }
  "${repo}/build/tools/systolize" verify "${sa}" --n=4 > /dev/null || {
    echo "${design} did not verify clean" >&2; exit 1; }
done
# The exhaustive schedule-level identity (makespan, transfers, rounds,
# per-stream counts) lives in the differential suite; re-run it by name
# so a filtered CI invocation cannot silently skip it.
ctest --test-dir "${repo}/build" --output-on-failure \
  -R 'BytecodeDifferential|BytecodeValidation|BytecodeCache'

echo "=== decision procedure: dense rows against the rational reference ==="
# Fourier-Motzkin (is_feasible, implies, drop_redundant) decides over dense
# integer rows and falls back to the rational elimination on overflow or
# past eight symbols (docs/performance.md "Guard decisions: Fourier-Motzkin
# over dense rows"). The differential suite checks the two against each
# other on seeded random systems and on the fallback edges; re-run it by
# name in both configurations so a filtered invocation cannot skip it.
for dir in build build-asan; do
  ctest --test-dir "${repo}/${dir}" --output-on-failure \
    -R 'FourierMotzkin|HasInterior'
done

echo "=== numeric edges: classified errors, never a crash or a hang ==="
# Store construction sizes every stream's box with checked arithmetic and
# checks each index map's image against the declared box, so a size whose
# box volume overflows Int and a stream that reads outside its box both
# end as exit 1 with a classified error before anything is allocated
# (docs/runtime.md "Host store").
edge_dir="$(mktemp -d /tmp/systolize-ci-edges-XXXXXX)"
expect_error() {
  local kind="$1"; shift
  local out rc=0
  out="$(timeout 60 "${repo}/build/tools/systolize" run "$@" 2>&1)" || rc=$?
  [ "${rc}" -eq 1 ] && grep -q "error \[${kind}\]" <<<"${out}" || {
    echo "expected exit 1 with error [${kind}] from run $*," \
         "got ${rc}: ${out}" >&2
    exit 1; }
}
expect_error Overflow "${repo}/designs/matmul2.sa" --n=4611686018427387904
expect_error Overflow "${repo}/designs/matmul2.sa" \
  --n=4611686018427387904 --batch=4
sed 's/^stream a\[i\]  /stream a[i+1]/' "${repo}/designs/polyprod1.sa" \
  > "${edge_dir}/offset.sa"
expect_error Validation "${edge_dir}/offset.sa"
sed 's/dims \[0 \.\. 2\*n\]/dims [0 .. n]/' "${repo}/designs/polyprod1.sa" \
  > "${edge_dir}/short_box.sa"
expect_error Validation "${edge_dir}/short_box.sa" --n=4
rm -rf "${edge_dir}"

echo "=== fuzz smoke: bounded differential campaign, fixed seed ==="
# The PR10 oracle gate (docs/static-analysis.md "Differential fuzzing"):
# a fixed-seed campaign over the full backend matrix must end with zero
# cross-backend disagreements. The seed pins the exact sample sequence,
# so a failure here replays bit-for-bit on any machine.
# Capture, then grep: grep -q on the live pipe closes it early and the
# still-writing fuzzer dies of SIGPIPE, which pipefail reports as failure.
fuzz_corpus="$(mktemp -d /tmp/systolize-ci-fuzz-XXXXXX)"
fuzz_log="$(mktemp /tmp/systolize-ci-fuzz-log-XXXXXX)"
"${repo}/build/tools/systolize" fuzz --seed=1 --count=100 \
  --corpus-dir="${fuzz_corpus}" > "${fuzz_log}"
grep -q ' 0 disagreement(s)' "${fuzz_log}" || {
  echo "fuzz campaign found a verifier/runtime disagreement" >&2
  tail -n 20 "${fuzz_log}" >&2
  ls "${fuzz_corpus}" >&2
  exit 1; }
rm -rf "${fuzz_corpus}" "${fuzz_log}"

echo "=== fuzz replay: checked-in corpus must stay clean ==="
# Every reproducer under designs/fuzz-corpus re-runs the differential
# oracle that found it; exit 1 means a past finding regressed.
"${repo}/build/tools/systolize" fuzz --replay \
  --corpus-dir="${repo}/designs/fuzz-corpus"

echo "=== fuzz smoke under ASan/UBSan ==="
# The generator's samples reach both engines (parked-op interpreter,
# bytecode VM) with hostile shapes the curated suites never produce — a
# cheap way to hand the sanitizers fresh input.
asan_fuzz_log="$(mktemp /tmp/systolize-ci-fuzz-asan-log-XXXXXX)"
"${repo}/build-asan/tools/systolize" fuzz --seed=1 --count=40 \
  --corpus-dir="$(mktemp -d /tmp/systolize-ci-fuzz-asan-XXXXXX)" \
  > "${asan_fuzz_log}"
grep -q ' 0 disagreement(s)' "${asan_fuzz_log}" || {
  echo "sanitized fuzz campaign failed" >&2
  tail -n 20 "${asan_fuzz_log}" >&2
  exit 1; }
rm -f "${asan_fuzz_log}"

echo "=== bench smoke: substrate relay chain ==="
bench_smoke bench_endtoend 'BM_SubstrateRelayChain/16'

echo "=== bench smoke: template expansion ==="
bench_smoke bench_endtoend 'BM_PlanExpand_Matmul2/6'

echo "=== cross-size differential: expanded plans checked against the enumeration oracle ==="
ctest --test-dir "${repo}/build" --output-on-failure \
  -R 'CrossSizeDifferential|PlanTemplate|PlanCache'

echo "=== thread sanitizer: plan cache + batched VM lane workers ==="
cmake -B "${repo}/build-tsan" -S "${repo}" -DSYSTOLIZE_SANITIZE=thread
cmake --build "${repo}/build-tsan" -j "${jobs}" --target test_runtime \
  test_service
# PlanCache.RacingFirstRunsStoreOneTape races two first runs of one plan,
# which both record a tape and publish it on the bytecode entry.
"${repo}/build-tsan/tests/test_runtime" --gtest_filter='PlanCache.*'
# The LaneWorkers tests split batched VM dispatches into lane chunks over
# a shared WorkerPool, a starved one and none — under TSan they exercise
# the pool hand-off and the chunk claim loop of run_vm_batched.
"${repo}/build-tsan/tests/test_runtime" --gtest_filter='LaneWorkers.*'

echo "=== thread sanitizer: coalesced batched serve + deadline thread ==="
# The coalescing path under TSan: pop_group's backlog sweep, the shared
# batched VM dispatch chunked over the worker pool, and the per-backend
# stats counters all race 8 pipelined clients against 2 workers in the
# coalescing soak; the executor group/batch tests cover the same code
# single-threaded with exact counter assertions. The DeadlineTimer tests
# arm, disarm and destroy timers against the one shared timer thread.
"${repo}/build-tsan/tests/test_service" \
  --gtest_filter='Coalescing.*:Executor.HandleGroup*:Executor.Batched*:Server.CoalescingSoak*:DeadlineTimer.*'

echo "=== bench gate: relay chain must hold the post-PR2 numbers ==="
# Pure-data regression gate over the recorded trajectory: the substrate
# rewrite (PR7) must keep BM_SubstrateRelayChain within 10% of the best
# recorded numbers (post-PR2-fastpath), closing PR4's regression.
"${repo}/tools/bench.sh" --compare post-PR2-fastpath PR7-worksteal 10 \
  'BM_SubstrateRelayChain'

echo "=== serve smoke: daemon, concurrent clients, SIGTERM drain ==="
# The daemon lifecycle contract end to end, with real processes and a
# real signal: concurrent clients (one of them tripping the watchdog via
# an injected kill), then SIGTERM mid-flight — the server must drain
# in-flight work and exit 0.
serve_sock="$(mktemp -u /tmp/systolize-ci-XXXXXX.sock)"
"${repo}/build/tools/systolize" serve --socket="${serve_sock}" \
  --workers=4 > /tmp/systolize-ci-serve.log 2>&1 &
serve_pid=$!
for _ in $(seq 50); do [ -S "${serve_sock}" ] && break; sleep 0.1; done
[ -S "${serve_sock}" ] || { echo "daemon never bound its socket" >&2; exit 1; }

# Concurrent clients: clean runs, a warm rerun, and a fault-injected run
# whose kill deadlocks the network — it must classify (exit 1 from the
# client, error verdict with forensics), not wedge the daemon.
"${repo}/build/tools/systolize" client --socket="${serve_sock}" \
  --op=run --design=matmul2 --n=4 --verify --count=3 &
c1=$!
"${repo}/build/tools/systolize" client --socket="${serve_sock}" \
  --op=run --design=polyprod1 --n=5 --tenant=ci &
c2=$!
if fault_out="$("${repo}/build/tools/systolize" client \
    --socket="${serve_sock}" --op=run --design=polyprod1 \
    --inject='kill@comp:(1)=1' --round-budget=300)"; then
  echo "expected the faulted request to classify as an error" >&2; exit 1
fi
grep -q '"status":"error"' <<<"${fault_out}" || {
  echo "faulted request did not return an error verdict: ${fault_out}" >&2
  exit 1; }
grep -q '"diagnostic"' <<<"${fault_out}" || {
  echo "faulted request lacks DeadlockReport forensics: ${fault_out}" >&2
  exit 1; }
wait "${c1}" || { echo "clean client 1 failed" >&2; exit 1; }
wait "${c2}" || { echo "clean client 2 failed" >&2; exit 1; }

# The daemon survived the fault: a warm request still succeeds (and hits
# the shared plan cache).
"${repo}/build/tools/systolize" client --socket="${serve_sock}" \
  --op=run --design=matmul2 --n=4 | grep -q '"plan_reused":true'

# SIGTERM mid-flight: fire a batch of requests, signal the daemon while
# they are in flight, and require a clean drain (exit 0).
"${repo}/build/tools/systolize" client --socket="${serve_sock}" \
  --op=run --design=matmul2 --n=6 --count=8 --retry > /dev/null 2>&1 &
c3=$!
sleep 0.2
kill -TERM "${serve_pid}"
serve_rc=0
wait "${serve_pid}" || serve_rc=$?
wait "${c3}" || true  # mid-drain clients may see shutting-down rejections
[ "${serve_rc}" -eq 0 ] || {
  echo "daemon exited ${serve_rc} on SIGTERM (expected clean drain, 0)" >&2
  cat /tmp/systolize-ci-serve.log >&2
  exit 1; }
grep -q "drained, final stats" /tmp/systolize-ci-serve.log || {
  echo "daemon did not flush final stats on drain" >&2; exit 1; }
[ ! -S "${serve_sock}" ] || { echo "socket not unlinked after drain" >&2; exit 1; }

echo "=== bench smoke: warm serve request ==="
bench_smoke bench_endtoend 'BM_ServeWarmRequest'

echo "=== bench smoke: static analysis + design-space search ==="
# BM_ExploreMatmul2 doubles as a correctness assertion: it skips with an
# error, which bench_smoke turns into a failure, if the seed ever stops
# ranking first in its own space.
bench_smoke bench_endtoend 'BM_AnalyzeCost/6|BM_ExploreMatmul2'

echo "=== bench smoke: scheme compile + program and plan verifiers ==="
# Compile and the program verifier lean on Fourier-Motzkin; the plan
# verifier retires the lowered program next to a VM walk of the same
# plan, and the loading-cover check walks the iteration domain once.
# BM_VerifyProgramMatmul2, BM_VerifyPlan and BM_LoadingCover double as
# correctness assertions: they skip with an error if their design stops
# verifying clean, and BM_WalkVsReplay if a replay's outputs differ from
# the walk it was recorded from.
bench_smoke bench_compile \
  'BM_CompileMatmul2|BM_VerifyProgramMatmul2|BM_VerifyPlan|BM_LoadingCover|BM_LowerAndWalk|BM_WalkVsReplay'

echo "=== bench gate: analysis must hold the PR8 numbers ==="
# Recorded-baseline gate: the PR8 run is the floor; "latest" resolves to
# the most recent recorded run, so future tools/bench.sh recordings are
# automatically compared against it.
"${repo}/tools/bench.sh" --compare PR8-explore latest 10 \
  'BM_AnalyzeCost|BM_ExploreMatmul2'

echo "=== bench smoke: bytecode backend + batch sweep ==="
bench_smoke bench_endtoend 'BM_BytecodeVsInterp_|BM_BatchSweep/8'

echo "=== bench gate: bytecode backend must hold the PR9 numbers ==="
"${repo}/tools/bench.sh" --compare PR9-bytecode latest 10 \
  'BM_BytecodeVsInterp|BM_BatchSweep'

echo "=== bench smoke: fuzz oracle throughput ==="
# Doubles as a correctness assertion: the bench skips with an error, which
# bench_smoke turns into a failure, if any sampled design ever produces a
# cross-backend disagreement.
bench_smoke bench_endtoend 'BM_FuzzThroughput'

echo "=== bench gate: fuzz oracle must hold the PR10 numbers ==="
"${repo}/tools/bench.sh" --compare PR10-fuzz latest 10 'BM_FuzzThroughput'

echo "=== benchmark smoke: perfbench unit tests and one short run each ==="
# The repo benchmark (BENCHMARK.json, perfbench/README.md) builds its own
# Release CLI and traced replay from src/. A short traced run of each
# workload catches a replay that no longer compiles against the library
# or that disagrees with the real binaries on any op. No timing gate.
(cd "${repo}" && python3 -m unittest discover -s perfbench -p 'test_*.py')
for workload in cli_run serve_solo serve_batch design_search; do
  python3 "${repo}/perfbench/run.py" --workload "${workload}" --seed 1 \
    --seconds 3 --trace 1 > /dev/null || {
    echo "perfbench ${workload} smoke run failed" >&2; exit 1; }
done

echo "=== CI OK: plain and sanitizer configurations both green ==="
