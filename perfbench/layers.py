"""Per-layer metrics from the traced in-process replay of a workload."""

import random
import statistics

import reduce
from workloads import conn_ops, rounds

# (metric, unit, better). Time metrics are span self times; the rest are
# counts the program reports, daemon counters, or derived values.
PER_LAYER = [
    ("frontend.parse_ms", "ms", "lower"),
    ("scheme.compile_ms", "ms", "lower"),
    ("scheme.compiles", "count", "lower"),
    ("analysis.verify_spec_ms", "ms", "lower"),
    ("analysis.verify_program_ms", "ms", "lower"),
    ("analysis.verify_plan_ms", "ms", "lower"),
    ("analysis.cost_ms", "ms", "lower"),
    ("explore.enumerate_ms", "ms", "lower"),
    ("explore.candidates", "count", "lower"),
    ("explore.pruned.rank", "count", "higher"),
    ("explore.pruned.projection", "count", "higher"),
    ("explore.pruned.theorem3", "count", "higher"),
    ("explore.pruned.stationary", "count", "higher"),
    ("explore.pruned.spec", "count", "higher"),
    ("explore.pruned.compile", "count", "lower"),
    ("explore.pruned.program", "count", "lower"),
    ("explore.pruned.plan", "count", "lower"),
    ("explore.survivors", "count", "higher"),
    ("explore.survivor_ratio", "ratio", "higher"),
    ("plan.build_ms", "ms", "lower"),
    ("plan.template_compile_ms", "ms", "lower"),
    ("plan.expand_ms", "ms", "lower"),
    ("plan.processes", "count", "lower"),
    ("plan.channels", "count", "lower"),
    ("bytecode.lower_ms", "ms", "lower"),
    ("bytecode.instructions", "count", "lower"),
    ("engine.interp_ms", "ms", "lower"),
    ("engine.instrumented_ms", "ms", "lower"),
    ("engine.vm_ms", "ms", "lower"),
    ("engine.vm_lane_us", "us", "lower"),
    ("engine.transfers", "count", "lower"),
    ("engine.statements", "count", "lower"),
    ("engine.rounds", "count", "lower"),
    ("host.seed_ms", "ms", "lower"),
    ("host.gather_scatter_ms", "ms", "lower"),
    ("baseline.sequential_ms", "ms", "lower"),
    ("baseline.compare_ms", "ms", "lower"),
    ("service.handle_ms", "ms", "lower"),
    ("service.protocol_us", "us", "lower"),
    ("service.timer_us", "us", "lower"),
    ("service.wire_queue_ms", "ms", "lower"),
    ("service.coalesced_share", "ratio", "higher"),
    ("service.mean_group", "count", "higher"),
    ("service.plan_hit_ratio", "ratio", "higher"),
    ("service.compile_hit_ratio", "ratio", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("service.errors", "count", "lower"),
    ("trace.overhead_us", "us", "lower"),
    ("host.steal_share", "ratio", "lower"),
    ("host.loadavg", "load", "lower"),
]

# Span-timed metrics: span name and the scale from nanoseconds.
SPAN_METRICS = {
    name: (name.rsplit("_", 1)[0], 1e-6 if unit == "ms" else 1e-3)
    for name, unit, _ in PER_LAYER
    if unit in ("ms", "us") and name not in (
        "engine.vm_lane_us", "service.wire_queue_ms", "trace.overhead_us")
}
# Counts the replay prints per op.
COUNT_METRICS = ["scheme.compiles", "explore.candidates", "explore.survivors",
                 "plan.processes", "plan.channels", "bytecode.instructions",
                 "engine.vm_lane_us", "engine.transfers", "engine.statements",
                 "engine.rounds"] + [n for n, _, _ in PER_LAYER if n.startswith("explore.pruned.")]

# Ops written to the replay's op file; the replay stops at its time budget
# long before it runs out of them.
REPLAY_OPS = 20000


def replay_lines(classes, seed, verify_every):
    """The workload's seeded ops as replay lines, one sequence for one
    process; serve workloads alternate between their connections."""
    if classes[0].cli:
        gen = rounds(classes, random.Random(seed))
        return [next(gen).replay_line() for _ in range(REPLAY_OPS)]
    conns = sorted({c.conn for c in classes})
    gens = [conn_ops(classes, seed, conn, verify_every) for conn in conns]
    return [cls.replay_line(verify)
            for cls, verify in (next(gens[i % len(gens)]) for i in range(REPLAY_OPS))]


class ReplayOutput:
    """The parsed output of one replay run."""

    def __init__(self, text):
        self.optime = {0: {}, 1: {}}  # traced flag -> op -> (class, ns)
        self.counts = {}              # op -> name -> value
        self.results = {}             # class -> [values reported]
        self.fails = []
        spans = []
        for line in text.splitlines():
            f = line.split()
            if not f:
                continue
            if f[0] == "optime":
                self.optime[int(f[1])][int(f[2])] = (f[3], int(f[4]))
            elif f[0] == "span":
                spans.append({"op": int(f[1]), "id": int(f[2]), "parent": int(f[3]),
                              "name": f[4], "start": float(f[5]), "end": float(f[6])})
            elif f[0] == "count":
                op = self.counts.setdefault(int(f[1]), {})
                op[f[2]] = op.get(f[2], 0.0) + float(f[3])
            elif f[0] == "result":
                self.results.setdefault(f[2], []).append(
                    {k: int(v) for k, v in (kv.split("=") for kv in f[3:])})
            elif f[0] == "fail":
                self.fails.append(f"replay op {f[1]} ({f[2]}): {' '.join(f[3:])}")
        self.traced_ops = {op: name for op, (name, _) in self.optime[1].items()}
        self.self_ns = reduce.self_times(spans)
        self.span_names = sorted({s["name"] for s in spans})

    def self_time(self, span, scale):
        """op -> self time of `span` in that op, in ns times `scale`."""
        return {op: ns * scale for (op, name), ns in self.self_ns.items() if name == span}

    def class_mean(self, per_op, classes):
        """Median per traced op within each class, then the mean over the
        classes; an op without a value counts as 0."""
        meds = []
        for c in classes:
            vals = [per_op.get(op, 0.0) for op, name in self.traced_ops.items() if name == c.name]
            if vals:
                meds.append(statistics.median(vals))
        return sum(meds) / len(meds) if meds else 0.0


def per_layer(classes, untraced, replay):
    """(metrics, failures) for one workload from its replay's output."""
    if not replay.traced_ops:
        return {}, ["the replay ran no traced op"]
    metrics = {name: replay.class_mean(replay.self_time(span, scale), classes)
               for name, (span, scale) in SPAN_METRICS.items()}
    for name in COUNT_METRICS:
        per_op = {op: c[name] for op, c in replay.counts.items() if name in c}
        metrics[name] = replay.class_mean(per_op, classes)
    ratio = {op: c["explore.survivors"] / c["explore.candidates"]
             for op, c in replay.counts.items() if c.get("explore.candidates")}
    metrics["explore.survivor_ratio"] = replay.class_mean(ratio, classes)

    # Client-observed median minus the in-process handle time, per class.
    handle = replay.self_time("service.handle", 1e-6)
    wire = []
    for c in classes:
        ops = [handle[op] for op, name in replay.traced_ops.items()
               if name == c.name and op in handle]
        lat = untraced["tally"].latency_ms.get(c.name)
        if ops and lat:
            wire.append(statistics.median(lat) - statistics.median(ops))
    metrics["service.wire_queue_ms"] = sum(wire) / len(wire) if wire else 0.0

    # Tracing overhead: each op ran once with spans on and once with spans
    # off; the median paired difference per class, averaged over classes.
    diffs = []
    for c in classes:
        paired = [ns - replay.optime[0][op][1] for op, (name, ns) in replay.optime[1].items()
                  if name == c.name and op in replay.optime[0]]
        if paired:
            diffs.append(statistics.median(paired) / 1e3)
    metrics["trace.overhead_us"] = sum(diffs) / len(diffs) if diffs else 0.0

    stats = untraced["stats"] or {}
    for key in ("coalesced_share", "mean_group", "plan_hit_ratio", "compile_hit_ratio",
                "rejected", "retries", "errors"):
        metrics[f"service.{key}"] = float(stats.get(key, 0.0))
    metrics["host.steal_share"] = untraced["host"]["steal_share"]
    metrics["host.loadavg"] = untraced["host"]["loadavg"]

    # The replay must agree with what the real binaries reported.
    fails = list(replay.fails)
    real = untraced["tally"].values
    for cname, rows in replay.results.items():
        wrong = [row for row in rows if cname in real and row != real[cname]]
        if wrong:
            fails.append(f"replay of {cname} reported {wrong[0]}, the binary {real[cname]}")
    return metrics, fails


def layer_table(classes, replay):
    """class -> span name -> median self time per op (ms), for printing."""
    table = {}
    for c in classes:
        ops = [op for op, name in replay.traced_ops.items() if name == c.name]
        if ops:
            table[c.name] = {n: statistics.median(replay.self_ns.get((op, n), 0.0) for op in ops) * 1e-6
                             for n in replay.span_names}
    return table
