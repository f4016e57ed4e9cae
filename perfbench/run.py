#!/usr/bin/env python3
"""The systolize benchmark: one workload, one seed, one timed window.

    python3 perfbench/run.py --workload cli_run --seed 1 --seconds 20 --trace 0

Builds the `systolize` CLI and the replay binary from the sources next to
this directory (Release, into .bench_build/), runs the workload's setup and
closed loop against the real binaries, checks every op's output, prints
per-class rows, the host noise record and every end-to-end metric, and
ends with one JSON line. With --trace 1 it then replays the same seeded
ops in one traced process and the JSON line carries the per-layer metrics
instead. Exit code 0 when every check passed, 1 when one failed, 2 when
the benchmark could not run.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import reduce  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_DIR = BUILD / "run"
REPLAY_TIMEOUT_S = 120.0

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("makespan_steps", "steps"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def build():
    """Configure once, then build incrementally; returns the binaries."""
    sources = [ROOT / "src" / "CMakeLists.txt", ROOT / "tools" / "systolize_cli.cpp",
               ROOT / "designs" / "matmul2.sa"]
    missing = [str(p.relative_to(ROOT)) for p in sources if not p.exists()]
    if missing:
        fail(f"systolize sources missing next to perfbench/: {', '.join(missing)}")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    out = BUILD / "perfbench"
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release", *gen])
    cmds.append(["cmake", "--build", str(out), "-j", "4"])
    with open(BUILD / "build.lock", "w") as lock, open(BUILD / "build.log", "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in cmds:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                log.flush()
                tail = (BUILD / "build.log").read_text()[-3000:]
                fail(f"build failed ({' '.join(cmd[:2])}):\n{tail}")
    return str(out / "systolize"), str(out / "perfbench_replay")


def end_to_end(classes, res):
    """Per-class rows over the whole window, and the gated metrics."""
    tally = res["tally"]
    rows = {c.name: reduce.class_row(tally.latency_ms[c.name])
            for c in classes if tally.latency_ms[c.name]}
    windows = reduce.median_of_windows(
        reduce.window_rows(tally.samples, res["marks"], [c.name for c in classes]))
    if windows is None or len(rows) < len(classes):
        return rows, None
    return rows, {
        **windows,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(res["setups"]),
        "makespan_steps": float(sum(tally.values[c.name]["makespan"] for c in classes)),
    }


def daemon_checks(workload, stats):
    """Failures the daemon's own counters show."""
    bad = []
    if stats["rejected"]:
        bad.append(f"daemon rejected {stats['rejected']} request(s)")
    if workload == "serve_solo" and stats["coalesced_share"]:
        bad.append(f"serve_solo coalesced a share of {stats['coalesced_share']:.3f}")
    return bad


def verify_every(name):
    return workloads.VERIFY_EVERY if name == "serve_solo" else 0


def run_workload(name, binaries, seed, seconds):
    classes = workloads.WORKLOADS[name]
    expected = json.loads((HERE / "expected.json").read_text())[name]
    if classes[0].cli:
        return classes, workloads.run_cli(binaries[0], classes, expected, seed, seconds)
    return classes, workloads.run_serve(
        binaries[0], classes, expected, seed, seconds,
        str((RUN_DIR / "serve.sock").relative_to(ROOT)), str(RUN_DIR / "serve.log"),
        verify_every(name))


def run_trace(name, classes, binaries, seed, seconds, res):
    ops_path = RUN_DIR / "replay.ops"
    ops_path.write_text("".join(
        line + "\n" for line in layers.replay_lines(classes, seed, verify_every(name))))
    try:
        proc = subprocess.run([binaries[1], str(ops_path), f"{max(1.0, seconds / 2):g}"],
                              capture_output=True, text=True, timeout=REPLAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, [f"replay still running after {REPLAY_TIMEOUT_S:.0f} s"]
    if proc.returncode:
        return {}, [f"replay exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    replay = layers.ReplayOutput(proc.stdout)
    print("replay: median self time per op (ms), by class")
    for cname, row in layers.layer_table(classes, replay).items():
        cells = " ".join(f"{n}={v:.3f}" for n, v in row.items() if v > 0)
        print(f"  {cname}: {cells}")
    return layers.per_layer(classes, res, replay)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    binaries = build()
    # Everything from here on, and every process it starts, shares one
    # CPU. On a shared virtual host, runs that keep several vCPUs busy
    # lose 5-30% of their time to steal, varying run to run, and pay
    # hypervisor wake-up delays at every cross-CPU hand-off; one busy vCPU
    # sees about 1%.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    classes, res = run_workload(args.workload, binaries, args.seed, args.seconds)
    tally = res["tally"]
    rows, metrics = end_to_end(classes, res)

    marks = res["marks"]
    print(f"workload {args.workload} seed {args.seed}: window {marks[-1][0] - marks[0][0]:.2f} s "
          f"in {len(marks) - 1} sub-window(s), setup repeats {len(res['setups'])}")
    for cname, r in rows.items():
        note = "" if r["p90_supported"] else f" (p90 has only {r['beyond_p90']} samples beyond)"
        print(f"class {cname:24s} p50 {r['p50']:9.3f} ms  p90 {r['p90']:9.3f} ms  "
              f"n {r['n']:5d}{note}")
    host = res["host"]
    print(f"host steal_share {host['steal_share']:.4f} loadavg {host['loadavg']:.2f}")
    if res["stats"]:
        print("daemon " + " ".join(f"{k}={v:g}" for k, v in res["stats"].items()))

    failures = list(tally.failures)
    attempted, failed = tally.attempted, tally.failed
    if res["stats"] is not None:
        bad = daemon_checks(args.workload, res["stats"])
        failures += bad
        attempted += 1
        failed += bool(bad)
    if metrics is None:
        failures.append("a class completed no op")
        metrics = {name: 0.0 for name, _ in END_TO_END}
    for name, unit in END_TO_END:
        print(f"metric {name} {metrics[name]:.6g} {unit}")

    if args.trace:
        layer, replay_fails = run_trace(args.workload, classes, binaries, args.seed, args.seconds, res)
        failures += replay_fails
        attempted += 1
        failed += bool(replay_fails)
        out = {name: {"value": layer.get(name, 0.0), "unit": unit}
               for name, unit, _ in layers.PER_LAYER}
        for name, _, _ in layers.PER_LAYER:
            print(f"layer {name} {out[name]['value']:.6g} {out[name]['unit']}")
    else:
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
