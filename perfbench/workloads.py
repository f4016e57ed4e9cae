"""Workloads, their op classes, and the closed loops that run them.

Every workload is a closed loop: the next op starts only when the previous
one on its connection has finished. Op classes are interleaved in rounds,
each round a seeded permutation of the classes, so every class gets the
same number of ops (give or take one) and the order depends on the seed.
"""

import json
import os
import random
import re
import select
import selectors
import signal
import socket
import time
from dataclasses import dataclass, field

import reduce

# Setup is repeated this many times and its median reported, because one
# cold start (a few tens of ms) does not repeat within its bound.
SETUP_REPEATS = 11
# Every VERIFY_EVERY-th serve_solo request of a class asks the daemon for
# its own differential check against the sequential baseline.
VERIFY_EVERY = 4
# Serve runs report the median over this many equal sub-windows of the
# timed window, so a host disturbance shorter than half the window does
# not move the result. CLI runs complete too few ops per class for a
# supported p90 in a sub-window and use the whole window.
SERVE_SUBWINDOWS = 6
# A daemon that answers nothing for this long, or a CLI op that runs this
# long, has hung.
REPLY_TIMEOUT_S = 30.0
OP_TIMEOUT_S = 60.0
SERVE_WORKERS = 2


@dataclass(frozen=True)
class OpClass:
    """What one op of a class sends, and how the replay repeats it."""

    name: str
    kind: str                 # run | explore | analyze | serve | burst
    argv: tuple = ()          # CLI ops: arguments after the binary
    replay: str = ""          # CLI ops: the replay's op arguments
    request: dict = field(default_factory=dict)  # serve ops
    conn: str = ""            # serve ops: the connection that sends it
    burst: int = 1            # identical requests sent at once

    @property
    def cli(self):
        return self.kind in ("run", "explore", "analyze")

    def request_line(self, req_id, tenant, verify=False):
        req = {"id": req_id, "op": "run", "tenant": tenant, **self.request}
        if verify:
            req["verify"] = True
        return json.dumps(req, separators=(",", ":"))

    def replay_line(self, verify=False):
        if self.cli:
            return f"{self.kind} {self.name} {self.replay}"
        line = self.request_line(1, self.conn, verify)
        if self.kind == "burst":
            return f"burst {self.name} {self.burst} {line}"
        return f"serve {self.name} {line}"


def _run(name, design, n):
    return OpClass(name, "run", ("run", f"designs/{design}.sa", f"--n={n}"),
                   f"designs/{design}.sa {n}")


WORKLOADS = {
    # One-shot `systolize run` processes with default flags (verify on, no
    # plan cache, auto backend): parse, compile, build_plan, interpreter
    # and sequential check, all cold. matmul2.n14 is led by plan
    # construction, correlation.n112 by the interpreter and the baseline
    # check, closure.n18 by the baseline check, matmul2.n8 by process
    # start, compile and plan construction. Sizes are the largest at which
    # every class still completes 100 ops in one window.
    "cli_run": [
        _run("matmul2.n8", "matmul2", 8),
        _run("matmul2.n14", "matmul2", 14),
        _run("correlation.n112", "correlation", 112),
        _run("closure.n18", "closure", 18),
    ],
    # Warm solo requests on two connections with their own tenants and
    # classes, so nothing coalesces: protocol, queueing, the per-request
    # deadline timer and the instrumented scheduler.
    "serve_solo": [
        OpClass("polyprod1.n16", "serve", request={"design": "polyprod1", "n": 16}, conn="A"),
        OpClass("correlation.n16", "serve", request={"design": "correlation", "n": 16}, conn="A"),
        OpClass("matmul2.n6", "serve", request={"design": "matmul2", "n": 6}, conn="B"),
        OpClass("fir_bank.n8", "serve", request={"design": "fir_bank", "n": 8}, conn="B"),
    ],
    # Lane-wide traffic: bursts of 15 identical requests the daemon
    # coalesces (16 on one tenant would hit its in-flight cap of 16), and
    # batch=64 requests, one at a time.
    "serve_batch": [
        OpClass("burst15.matmul2.n6", "burst", request={"design": "matmul2", "n": 6}, conn="A", burst=15),
        OpClass("batch64.matmul2.n8", "serve", request={"design": "matmul2", "n": 8, "batch": 64}, conn="B"),
        OpClass("batch64.polyprod1.n16", "serve", request={"design": "polyprod1", "n": 16, "batch": 64}, conn="B"),
    ],
    # The static pipeline only (enumerate, compile, verify, plan, cost);
    # nothing executes. matmul1's projection class runs the same pipeline
    # as matmul2's at a seventh of the cost per process (about 40 ms).
    "design_search": [
        OpClass("explore.matmul1", "explore",
                ("explore", "matmul1", "--same-projection", "--sizes=4", "--format=json"),
                "matmul1 1 1 4"),
        OpClass("explore.polyprod2", "explore",
                ("explore", "polyprod2", "--coeff-range=3", "--sizes=8", "--format=json"),
                "polyprod2 3 0 8"),
        OpClass("analyze.matmul2", "analyze",
                ("analyze", "matmul2", "--sizes=8,12", "--format=json"),
                "matmul2 8,12"),
    ],
}


def rounds(classes, rng):
    """Endless class sequence: rounds of seeded permutations."""
    while True:
        order = list(classes)
        rng.shuffle(order)
        yield from order


def conn_ops(classes, seed, conn, verify_every):
    """Endless (class, verify) ops of one serve connection: its classes in
    seeded rounds; every `verify_every`-th op of a class (0: none), at a
    seeded offset, asks for the daemon's own differential check."""
    rng = random.Random(f"{seed}:{conn}:verify")
    sent = {}
    offset = {}
    for cls in rounds([c for c in classes if c.conn == conn], random.Random(f"{seed}:{conn}")):
        n = sent.get(cls.name, 0)
        sent[cls.name] = n + 1
        if verify_every and n % verify_every == 0:
            offset[cls.name] = rng.randrange(verify_every)
        yield cls, bool(verify_every) and n % verify_every == offset[cls.name]


class Tally:
    """Per-class latencies, checked outputs and failure counts."""

    def __init__(self, classes, expected):
        self.expected = expected
        self.latency_ms = {c.name: [] for c in classes}
        self.samples = []  # (completion time, class, latency ms)
        self.values = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, cls, seconds, values, failure, at=None):
        """Check one op; a timed op (completed at `at`) keeps its latency."""
        self.attempted += 1
        if failure is None:
            failure = self._check(cls, values)
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{cls.name}: {failure}")
        elif at is not None:
            self.latency_ms[cls.name].append(seconds * 1000.0)
            self.samples.append((at, cls.name, seconds * 1000.0))

    def _check(self, cls, values):
        want = self.expected[cls.name]
        if values.get("statements") != want["statements"]:
            return f"statements {values.get('statements')} != {want['statements']}"
        if "survivors" in want and values.get("survivors") != want["survivors"]:
            return f"survivors {values.get('survivors')} != {want['survivors']}"
        if want.get("seed_first") and values.get("seed_first") != 1:
            return "the seed design does not rank first"
        first = self.values.setdefault(cls.name, values)
        if values != first:
            return f"outputs {values} differ from the class's first op {first}"
        return None


def read(path):
    with open(path) as f:
        return f.read()


class Marks:
    """Cumulative CPU readings at the sub-window boundaries of a window."""

    def __init__(self, start, seconds, windows, cpu_ms_now):
        self.step = seconds / windows
        self.next = start + self.step
        self.left = windows - 1
        self.cpu_ms_now = cpu_ms_now
        self.marks = [(start, cpu_ms_now())]

    def tick(self, now):
        if self.left and now >= self.next:
            self.marks.append((now, self.cpu_ms_now()))
            self.next += self.step
            self.left -= 1

    def close(self, end):
        self.marks.append((end, self.cpu_ms_now()))
        return self.marks


class HostWindow:
    """Steal share of the CPU the run is pinned to (of all CPUs when it is
    not pinned) and the load average, over one timed window."""

    def __init__(self):
        cpus = os.sched_getaffinity(0)
        self.cpu = f"cpu{next(iter(cpus))}" if len(cpus) == 1 else "cpu"
        self.stat0 = read("/proc/stat")

    def close(self):
        return {"steal_share": reduce.steal_share(self.stat0, read("/proc/stat"), self.cpu),
                "loadavg": reduce.loadavg1(read("/proc/loadavg"))}


# ------------------------------------------------------------------ CLI

RUN_LINE = re.compile(r"makespan=(\d+) transfers=(\d+) statements=(\d+)")


def spawn_and_wait(argv):
    """Run argv to completion; (seconds, exit code, output, rusage). A
    process still running after OP_TIMEOUT_S is killed (exit code -9)."""
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, w, 1),
                                       (os.POSIX_SPAWN_DUP2, w, 2)])
    os.close(w)
    chunks = []
    while select.select([r], [], [], max(0.0, t0 + OP_TIMEOUT_S - time.perf_counter()))[0]:
        chunk = os.read(r, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    else:
        os.kill(pid, signal.SIGKILL)
    os.close(r)
    _, status, ru = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    return seconds, os.waitstatus_to_exitcode(status), b"".join(chunks).decode(errors="replace"), ru


def cli_values(cls, code, out):
    """(values, failure) from one CLI op's exit code and output."""
    if code != 0:
        return None, f"exit code {code}: {out.strip()[-200:]}"
    try:
        if cls.kind == "run":
            if "verify: OK" not in out:
                return None, "no 'verify: OK'"
            m = RUN_LINE.search(out)
            return {"makespan": int(m[1]), "transfers": int(m[2]), "statements": int(m[3])}, None
        doc = json.loads(out.strip().splitlines()[-1])
        if cls.kind == "explore":
            best = doc["ranked"][0]
            at = best["cost"]["at"][-1]
            return {"makespan": at["makespan"], "statements": at["total_work"],
                    "survivors": doc["survivors"], "seed_first": int(best["seed"])}, None
        at = doc["at"][-1]
        return {"makespan": at["makespan"], "statements": at["total_work"]}, None
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return None, f"unreadable output ({e}): {out.strip()[-200:]}"


def run_cli(binary, classes, expected, seed, seconds):
    tally = Tally(classes, expected)

    def op(cls, timed):
        dt, code, out, ru = spawn_and_wait([binary, *cls.argv])
        values, failure = cli_values(cls, code, out)
        tally.record(cls, dt, values, failure, time.perf_counter() if timed else None)
        return ru

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for cls in classes:
            op(cls, timed=False)
        setups.append(time.perf_counter() - t0)

    host = HostWindow()
    cpu_ms = 0.0
    peak_mb = 0.0
    gen = rounds(classes, random.Random(seed))
    start = time.perf_counter()
    marks = Marks(start, seconds, 1, lambda: cpu_ms)
    while time.perf_counter() < start + seconds:
        ru = op(next(gen), timed=True)
        cpu_ms += reduce.rusage_cpu_ms(ru)
        peak_mb = max(peak_mb, reduce.rusage_peak_mb(ru))
    return {"tally": tally, "setups": setups, "marks": marks.close(time.perf_counter()),
            "peak_rss_mb": peak_mb, "host": host.close(), "stats": None}


# ---------------------------------------------------------------- serve

class Conn:
    """One client connection with at most one op outstanding."""

    def __init__(self, path, tenant):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.tenant = tenant
        self.buf = b""
        self.start(None)

    def start(self, ops):
        """Loop over the (class, verify) pairs of `ops`; None: idle."""
        self.ops = ops
        self.cls = None
        self.pending = 0
        self.t0 = 0.0
        self.values = None
        self.failure = None

    def send(self, next_id):
        """Send the next op; returns the next free request id."""
        cls, verify = next(self.ops)
        lines = []
        for _ in range(cls.burst):
            lines.append(cls.request_line(next_id, self.tenant, verify))
            next_id += 1
        self.cls, self.pending = cls, cls.burst
        self.values, self.failure = None, None
        self.t0 = time.perf_counter()
        self.sock.sendall(("\n".join(lines) + "\n").encode())
        return next_id

    def replies(self):
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("daemon closed the connection")
        *lines, self.buf = (self.buf + data).split(b"\n")
        return lines

    def call(self, req):
        """One request/reply exchange outside the closed loop."""
        self.sock.sendall((json.dumps(req) + "\n").encode())
        while True:
            lines = self.replies()
            if lines:
                return json.loads(lines[0])


def reply_values(reply):
    if reply.get("status") != "ok" or reply.get("verdict") != "success":
        return None, f"reply {reply.get('status')}/{reply.get('verdict')}: {reply.get('message', '')[:200]}"
    m = reply.get("metrics", {})
    try:
        return {"makespan": m["makespan"], "statements": m["statements"],
                "transfers": m["total_transfers"]}, None
    except KeyError as e:
        return None, f"reply without metrics field {e}"


class Daemon:
    """A `systolize serve` process on a socket inside the checkout."""

    def __init__(self, binary, sock_path, log_path):
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.sock_path = sock_path
        self.conns = []
        self.log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        argv = [binary, "serve", f"--socket={sock_path}", f"--workers={SERVE_WORKERS}"]
        self.pid = os.posix_spawn(argv[0], argv, os.environ,
                                  file_actions=[(os.POSIX_SPAWN_DUP2, self.log, 1),
                                                (os.POSIX_SPAWN_DUP2, self.log, 2)])

    def connect(self, tenant):
        give_up = time.perf_counter() + 10.0
        while True:
            try:
                self.conns.append(Conn(self.sock_path, tenant))
                return self.conns[-1]
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > give_up:
                    raise
                time.sleep(0.001)

    def proc(self, name):
        return read(f"/proc/{self.pid}/{name}")

    def shutdown(self):
        """Ask for a graceful drain (SIGTERM if the socket is gone)."""
        for c in self.conns:
            c.sock.close()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(self.sock_path)
                s.sendall(b'{"id":0,"op":"shutdown"}\n')
        except OSError:
            os.kill(self.pid, signal.SIGTERM)

    def reap(self, give_up):
        """Wait for the exit, SIGKILL after `give_up`."""
        while os.waitpid(self.pid, os.WNOHANG) == (0, 0):
            if time.perf_counter() > give_up:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                break
            time.sleep(0.005)
        os.close(self.log)


def stop_all(daemons):
    """Shut the daemons down together and wait until each has ended."""
    for d in daemons:
        d.shutdown()
    give_up = time.perf_counter() + 10.0
    for d in daemons:
        d.reap(give_up)
    daemons.clear()


def serve_stats(reply):
    """Daemon counters from a `stats` reply."""
    d = reply["data"]
    runs = d["requests"].get("run", 0)
    groups = d["bytecode"]["coalesced_groups"]
    riders = d["bytecode"]["coalesced_requests"]
    dispatches = runs - riders + groups
    plan = d["plan_cache"]
    comp = d["compile_cache"]
    adm = d.get("admission", {})
    return {
        "coalesced_share": riders / runs if runs else 0.0,
        "mean_group": runs / dispatches if dispatches else 0.0,
        "plan_hit_ratio": plan["hits"] / max(1, plan["hits"] + plan["misses"]),
        "compile_hit_ratio": comp["hits"] / max(1, comp["hits"] + comp["misses"]),
        "rejected": adm.get("shed_queue_full", 0) + adm.get("shed_tenant_cap", 0) + adm.get("shed_closed", 0),
        "retries": d["retries"],
        "errors": d["errors"],
    }


def drive(conns, tally, deadline, next_id, marks=None):
    """Closed loop over `conns` until `deadline`; returns (next id, end).

    Ops are timed when `marks` is given, and each completion ticks it.
    """
    sel = selectors.DefaultSelector()
    active = 0
    for c in conns:
        if c.ops is not None:
            sel.register(c.sock, selectors.EVENT_READ, c)
            next_id = c.send(next_id)
            active += 1
    end = time.perf_counter()
    while active:
        events = sel.select(REPLY_TIMEOUT_S)
        if not events:
            raise TimeoutError(f"no reply within {REPLY_TIMEOUT_S:.0f} s")
        for key, _ in events:
            c = key.data
            for line in c.replies():
                values, failure = reply_values(json.loads(line))
                c.pending -= 1
                if c.failure is None:
                    if failure is None and c.values is not None and values != c.values:
                        failure = f"burst replies differ: {values} vs {c.values}"
                    c.failure = failure
                    c.values = c.values or values
                if c.pending:
                    continue
                end = time.perf_counter()
                tally.record(c.cls, end - c.t0, c.values, c.failure,
                             end if marks else None)
                if marks:
                    marks.tick(end)
                if end < deadline:
                    next_id = c.send(next_id)
                else:
                    sel.unregister(c.sock)
                    active -= 1
    sel.close()
    return next_id, end


def run_serve(binary, classes, expected, seed, seconds, sock_path, log_path, verify_every):
    tally = Tally(classes, expected)
    by_conn = {}
    for c in classes:
        by_conn.setdefault(c.conn, []).append(c)
    setups = []
    daemons = []
    try:
        next_id = 1
        # Each repeat cold-starts its own daemon; the earlier ones idle
        # until all repeats are done, so no shutdown overlaps a timing.
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            daemon = Daemon(binary, f"{sock_path}.{len(daemons)}", log_path)
            daemons.append(daemon)
            conns = {name: daemon.connect(name) for name in by_conn}
            # One cold op per class, one at a time: compile, template
            # compile, expansion and lowering all happen here.
            for name, cs in by_conn.items():
                for cls in cs:
                    conns[name].start(iter([(cls, False)]))
                    next_id, _ = drive([conns[name]], tally, 0.0, next_id)
            setups.append(time.perf_counter() - t0)
        stop_all(daemons[:-1])
        daemons = [daemon]

        for name in by_conn:
            conns[name].start(conn_ops(classes, seed, name, verify_every))
        hz = os.sysconf("SC_CLK_TCK")
        stat0 = daemon.proc("stat")
        host = HostWindow()
        start = time.perf_counter()
        marks = Marks(start, seconds, SERVE_SUBWINDOWS,
                      lambda: reduce.proc_cpu_ms(stat0, daemon.proc("stat"), hz))
        next_id, end = drive(list(conns.values()), tally, start + seconds, next_id, marks)
        marks = marks.close(end)
        peak_mb = reduce.vm_hwm_mb(daemon.proc("status"))
        host_rec = host.close()
        stats = serve_stats(next(iter(conns.values())).call({"id": next_id, "op": "stats"}))
    finally:
        stop_all(daemons)
    return {"tally": tally, "setups": setups, "marks": marks,
            "peak_rss_mb": peak_mb, "host": host_rec, "stats": stats}
