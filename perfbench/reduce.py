"""Reductions from raw samples to the benchmark's reported numbers.

Pure functions over numbers and /proc text, so test_reduce.py can check
each one without running anything.
"""

import math
import statistics

# A percentile is only reported as supported when at least this many
# samples lie strictly beyond it (p90 therefore needs 100 samples).
MIN_BEYOND = 10


def nearest_rank(samples, q):
    """Nearest-rank q-quantile (0 < q < 1) of a non-empty sample list."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(count, q):
    """Samples lying strictly beyond the nearest-rank q-quantile."""
    return count - max(1, math.ceil(q * count))


def class_row(samples):
    """Median, p90 and sample count of one op class's latencies."""
    n = len(samples)
    return {
        "p50": statistics.median(samples),
        "p90": nearest_rank(samples, 0.9),
        "n": n,
        "beyond_p90": beyond(n, 0.9),
        "p90_supported": beyond(n, 0.9) >= MIN_BEYOND,
    }


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def window_rows(samples, marks, class_names):
    """End-to-end figures of each sub-window of a run.

    `marks` are (time, cumulative CPU ms) readings, the first at the start
    of the timed window and the last at its end; consecutive marks bound
    one sub-window. `samples` are (completion time, class, latency ms).
    A sub-window yields p50 and p90 (geometric means over the classes of
    each class's own percentile), ops/s and CPU ms per op; one in which a
    class completed nothing yields None.
    """
    rows = []
    for (t0, cpu0), (t1, cpu1) in zip(marks, marks[1:]):
        by_class = {c: [] for c in class_names}
        for t, c, ms in samples:
            if t0 < t <= t1:
                by_class[c].append(ms)
        n = sum(len(v) for v in by_class.values())
        if t1 <= t0 or any(not v for v in by_class.values()):
            rows.append(None)
            continue
        rows.append({
            "latency_p50_ms": geomean(statistics.median(v) for v in by_class.values()),
            "latency_p90_ms": geomean(nearest_rank(v, 0.9) for v in by_class.values()),
            "throughput_ops_s": n / (t1 - t0),
            "cpu_ms_per_op": (cpu1 - cpu0) / n,
        })
    return rows


def median_of_windows(rows):
    """Per-figure median over the sub-windows that have every class."""
    rows = [r for r in rows if r is not None]
    if not rows:
        return None
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def rusage_cpu_ms(ru):
    """User+system CPU of a child reaped by os.wait4, in milliseconds."""
    return (ru.ru_utime + ru.ru_stime) * 1000.0


def rusage_peak_mb(ru):
    """Peak resident set of a reaped child (Linux reports KiB)."""
    return ru.ru_maxrss / 1024.0


def proc_cpu_ticks(stat_text):
    """utime+stime clock ticks from the text of /proc/<pid>/stat.

    The command name (field 2) may contain spaces and parentheses, so the
    fields are counted from the last ')'.
    """
    fields = stat_text[stat_text.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])  # fields 14 and 15 of the line


def proc_cpu_ms(before_text, after_text, hz):
    """CPU milliseconds a process used between two /proc/<pid>/stat reads."""
    return (proc_cpu_ticks(after_text) - proc_cpu_ticks(before_text)) * 1000.0 / hz


def vm_hwm_mb(status_text):
    """Peak resident set (VmHWM) from the text of /proc/<pid>/status."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM line")


def cpu_line_ticks(stat_text, cpu="cpu"):
    """(steal, total) ticks of one CPU's line of /proc/stat ("cpu" is the
    aggregate line, "cpu3" the fourth CPU's)."""
    for line in stat_text.splitlines():
        if line.startswith(cpu + " "):
            fields = [int(v) for v in line.split()[1:9]]
            return fields[7], sum(fields)
    raise ValueError(f"no {cpu} line")


def steal_share(before_text, after_text, cpu="cpu"):
    """Share of a CPU's time the hypervisor stole between two /proc/stat
    reads."""
    steal0, total0 = cpu_line_ticks(before_text, cpu)
    steal1, total1 = cpu_line_ticks(after_text, cpu)
    if total1 <= total0:
        return 0.0
    return (steal1 - steal0) / (total1 - total0)


def loadavg1(loadavg_text):
    """One-minute load average from the text of /proc/loadavg."""
    return float(loadavg_text.split()[0])


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            total += end - start
            end_so_far = end
        elif end > end_so_far:
            total += end - end_so_far
            end_so_far = end
    return total


def self_times(spans):
    """Per (op, name) self time of trace spans.

    `spans` are dicts with id, name, start, end, parent and op. A span's
    self time is its duration minus the part of it its children cover.
    """
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(k["start"], s["start"]), min(k["end"], s["end"]))
                for k in children.get(s["id"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        key = (s["op"], s["name"])
        out[key] = out.get(key, 0.0) + (s["end"] - s["start"]) - covered(kids)
    return out
