#!/usr/bin/env bash
# Benchmark driver: build the Release configuration and record the
# end-to-end runtime benchmarks into BENCH_runtime.json at the repo root.
# Each invocation appends one run entry {label, commit, date, benchmarks}
# so the file accumulates a perf trajectory across PRs. The suite covers
# the end-to-end pipeline (BM_EndToEnd_*), the raw substrate
# (BM_SubstrateRelayChain), and plan construction (BM_PlanExpand_*,
# BM_PlanCompileExpand_* and the BM_ColdSizeSweep_* serving loop — see
# docs/performance.md "Plan templates").
#
# usage: tools/bench.sh [label] [extra benchmark args...]
#   label defaults to the current commit's short hash.
#        tools/bench.sh --compare <labelA> <labelB> [threshold-pct] [regex]
#   pure-data mode: no build, no run — diff two recorded runs from
#   BENCH_runtime.json on the benchmarks they share (optionally filtered
#   by a name regex) and exit non-zero if any real_time regresses by more
#   than threshold-pct (default 10) going from labelA (baseline) to
#   labelB (candidate). Duplicate labels resolve to the latest recorded
#   run; the pseudo-label "latest" resolves to the most recent run of any
#   label. Exit codes: 0 clean, 1 regression found, 2 usage or data error
#   (unknown label, missing/corrupt BENCH_runtime.json) — a gate can tell
#   "comparison failed to run" apart from "comparison found a regression".
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

if [ "${1:-}" = "--compare" ]; then
  [ $# -ge 3 ] || { echo "usage: tools/bench.sh --compare <labelA> <labelB> [threshold-pct] [regex]" >&2; exit 2; }
  python3 - "${repo}/BENCH_runtime.json" "$2" "$3" "${4:-10}" "${5:-}" <<'PY'
import json, re, sys
path, label_a, label_b, threshold = sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4])
name_filter = sys.argv[5]

def die(msg):
    # Usage/data problems exit 2 so CI can tell "the comparison could not
    # run" apart from "the comparison ran and found a regression" (1).
    print(f"bench compare: {msg}", file=sys.stderr)
    sys.exit(2)

try:
    with open(path) as f:
        doc = json.load(f)
except FileNotFoundError:
    die(f"{path} does not exist (record a run first: tools/bench.sh <label>)")
except json.JSONDecodeError as e:
    die(f"{path} is not valid JSON: {e}")

def run_for(label):
    # "latest" resolves to the most recently recorded run regardless of
    # label, so CI can gate "recorded baseline vs whatever ran last".
    if label == "latest":
        if not doc.get("runs"):
            die(f"no runs recorded in {path}")
        return {b["name"]: b["real_time_ns"]
                for b in doc["runs"][-1]["benchmarks"]}
    matches = [r for r in doc.get("runs", []) if r.get("label") == label]
    if not matches:
        known = ", ".join(sorted({r.get("label", "?") for r in doc.get("runs", [])}))
        die(f"no run labelled '{label}' in {path} (known: {known})")
    return {b["name"]: b["real_time_ns"] for b in matches[-1]["benchmarks"]}

base, cand = run_for(label_a), run_for(label_b)
shared = sorted(set(base) & set(cand))
if name_filter:
    shared = [n for n in shared if re.search(name_filter, n)]
if not shared:
    die(f"runs '{label_a}' and '{label_b}' share no benchmarks"
        + (f" matching /{name_filter}/" if name_filter else ""))
regressions = 0
print(f"{'benchmark':50s} {label_a:>14s} {label_b:>14s}  delta")
for name in shared:
    a, b = base[name], cand[name]
    pct = (b - a) / a * 100.0 if a > 0 else 0.0
    flag = ""
    if pct > threshold:
        flag = f"  REGRESSION (>{threshold:g}%)"
        regressions += 1
    print(f"{name:50s} {a:12.0f}ns {b:12.0f}ns {pct:+6.1f}%{flag}")
print(f"{len(shared)} shared benchmarks; {regressions} regression(s) "
      f"beyond {threshold:g}% going {label_a} -> {label_b}")
sys.exit(1 if regressions else 0)
PY
  exit $?
fi

label="${1:-$(git -C "${repo}" rev-parse --short HEAD)}"
shift || true

build="${repo}/build-bench"
cmake -B "${build}" -S "${repo}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build}" -j "${jobs}" --target bench_endtoend

raw="$(mktemp)"
trap 'rm -f "${raw}"' EXIT
"${build}/bench/bench_endtoend" \
  --benchmark_format=json --benchmark_min_time=0.2 "$@" > "${raw}"

python3 - "$raw" "${repo}/BENCH_runtime.json" "${label}" <<'PY'
import json, subprocess, sys
raw_path, out_path, label = sys.argv[1], sys.argv[2], sys.argv[3]
with open(raw_path) as f:
    raw = json.load(f)
entry = {
    "label": label,
    "commit": subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip(),
    "date": raw.get("context", {}).get("date", ""),
    "benchmarks": [
        {
            "name": b["name"],
            "real_time_ns": b["real_time"],
            "cpu_time_ns": b["cpu_time"],
            "iterations": b["iterations"],
        }
        for b in raw.get("benchmarks", [])
    ],
}
try:
    with open(out_path) as f:
        doc = json.load(f)
except (FileNotFoundError, json.JSONDecodeError):
    doc = {"runs": []}
doc["runs"].append(entry)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"recorded {len(entry['benchmarks'])} benchmarks as '{label}' "
      f"in {out_path}")
PY
