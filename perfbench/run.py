#!/usr/bin/env python3
"""End-to-end benchmark of `comsig stream` and `comsig serve`.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload flow_rwr --seed 1 --seconds 50 --trace 0

The harness builds the `comsig` binary and the `perfbench` helper from
source (into $CARGO_TARGET_DIR, default `.bench_build`), generates the
workload's event log from the seed, and then, for the given number of
seconds, alternates two closed-loop sessions against the real binary,
each a child process of this one:

* `comsig stream --task masquerade` over the whole log, timing every
  window line as it appears on the child's stdout;
* `comsig serve` over loopback: one connection ingests the leading
  windows in fixed-size batches (each fsynced to the WAL), advances,
  and queries seeded random subjects (3 `rank` to 1 `signature`); then
  the server is SIGKILLed and restarted, and recovery is timed until
  `status` reports ready.

Every output is checked: each stream run's stdout must equal, line for
line, the in-process composition of the same layers (`perfbench ref`),
whose exact-tier signatures must equal a cold rebuild every window;
each serve response must equal the response of an in-process replica
driven with the same request lines, and the digest after the restart
must equal the digest before the kill. Failed checks, non-`ok`
responses and nonzero exits count as failed operations.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` the helper repeats the composition in-process with a
span around every call into a layer, writes the spans to
`.perfbench-out/<workload>-seed<N>.spans.jsonl`, and the last line
carries the per-layer self times and counts. The line before the result
is a stamp: machine, toolchain, source, seed and input sizes.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
E2E_METRICS = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("window_p50_ms", "ms"),
    ("advance_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("recover_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("exact_agreement", "ratio"),
]

# Window-scoped spans: per-layer value = median over steady windows of
# the window's summed self time in that layer.
WINDOW_SPANS = {
    "graph.windower.advance_ms": "graph.windower.advance",
    "core.tier.advance_ms": "core.tier.advance",
    "core.tier.advance_1t_ms": "core.tier.advance_1t",
    "apps.anomaly_ms": "apps.anomaly",
    "eval.matcher.patch_ms": "eval.matcher.patch",
    "apps.algorithm1_ms": "apps.algorithm1",
    "sketch.tier.advance_ms": "sketch.tier.advance",
    "eval.ann.patch_ms": "eval.ann.patch",
}
# Set-up spans: median over repetitions.
SETUP_SPANS = {
    "graph.io.read_events_ms": "graph.io.read_events",
    "graph.windower.push_ms": "graph.windower.push",
    "serve.open_ms": "serve.open",
}
# Request-scoped spans: median over calls.
CALL_SPANS = {
    "serve.ingest_lines_ms": "serve.ingest_lines",
    "persist.wal_sync_ms": "persist.wal_sync",
    "serve.advance_ms": "serve.advance",
    "serve.rank_ms": "serve.rank",
    "serve.signature_ms": "serve.signature",
}
# Per-window counters: median over steady windows.
WINDOW_COUNTERS = [
    "graph.windower.changes",
    "core.tier.dirty_fraction",
    "eval.matcher.patched",
    "eval.index.posting_mass",
    "sketch.tier.state_bytes",
    "eval.ann.memory_entries",
]

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
LAYER_METRICS = [
    ("graph.io.read_events_ms", "ms", "lower"),
    ("graph.windower.push_ms", "ms", "lower"),
    ("graph.windower.advance_ms", "ms", "lower"),
    ("graph.windower.changes", "count", "lower"),
    ("core.tier.advance_ms", "ms", "lower"),
    ("core.tier.advance_1t_ms", "ms", "lower"),
    ("core.tier.dirty_fraction", "ratio", "lower"),
    ("eval.matcher.patch_ms", "ms", "lower"),
    ("eval.matcher.patched", "count", "lower"),
    ("eval.index.posting_mass", "count", "lower"),
    ("apps.algorithm1_ms", "ms", "lower"),
    ("apps.anomaly_ms", "ms", "lower"),
    ("sketch.tier.advance_ms", "ms", "lower"),
    ("sketch.tier.state_bytes", "bytes", "lower"),
    ("eval.ann.patch_ms", "ms", "lower"),
    ("eval.ann.memory_entries", "count", "lower"),
    ("serve.ingest_lines_ms", "ms", "lower"),
    ("persist.wal_sync_ms", "ms", "lower"),
    ("serve.wal_bytes", "bytes", "lower"),
    ("serve.advance_ms", "ms", "lower"),
    ("serve.rank_ms", "ms", "lower"),
    ("serve.signature_ms", "ms", "lower"),
    ("serve.handle_line_ms", "ms", "lower"),
    ("serve.open_ms", "ms", "lower"),
    ("trace.window_self_ms", "ms", "lower"),
    ("trace.window_p50_ms", "ms", "lower"),
    ("trace.untraced_window_p50_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Stream and serve rounds made in every run, however short --seconds is.
MIN_ROUNDS = 3


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def percentile(values, q):
    """Linear-interpolated percentile `q` (0..100) of `values`."""
    xs = sorted(values)
    if not xs:
        raise BenchError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


# --- build --------------------------------------------------------------


def target_dir():
    raw = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(raw)
    return path if path.is_absolute() else ROOT / path


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} is not a comsig checkout (no Cargo.toml / crates/cli)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "comsig-cli", "--bin", "comsig"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "comsig", release / "perfbench"


# --- children -------------------------------------------------------------


class Child:
    """A child process that is always reaped, with its resource usage."""

    def __init__(self, argv, stdout, stderr_path):
        self.stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=stdout, stderr=self.stderr)
        self.status = None
        self.maxrss_kib = 0

    def _reap(self, flags):
        if self.status is None:
            pid, status, usage = os.wait4(self.proc.pid, flags)
            if pid:
                self.status = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.status
                self.maxrss_kib = usage.ru_maxrss
                self.stderr.close()
        return self.status

    def poll(self):
        return self._reap(os.WNOHANG)

    def kill(self):
        if self.poll() is None:
            self.proc.kill()
        return self._reap(0)

    def wait(self, timeout=120):
        deadline = time.monotonic() + timeout
        while self.poll() is None:
            if time.monotonic() > deadline:
                return self.kill()
            time.sleep(0.001)
        return self.status


def helper(perfbench, args):
    done = subprocess.run([str(perfbench)] + args, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"perfbench {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# --- stream session -----------------------------------------------------------


def stream_round(comsig, meta, work, threads):
    argv = [
        str(comsig), "stream", "--input", str(work / "events.txt"),
        "--task", "masquerade", "--scheme", meta["scheme"], "--tier", meta["tier"],
        "--threads", str(threads),
    ]
    start = time.perf_counter()
    child = Child(argv, subprocess.PIPE, work / "stream.err")
    lines, stamps = [], []
    try:
        for raw in child.proc.stdout:
            now = time.perf_counter()
            line = raw.decode("utf-8", "replace").rstrip("\n")
            lines.append(line)
            if line.startswith("window "):
                stamps.append(now)
    finally:
        child.proc.stdout.close()
        status = child.wait()
    wall = time.perf_counter() - start
    return {
        "status": status,
        "lines": lines,
        "setup_s": stamps[0] - start if stamps else None,
        "gaps_ms": [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
        "events_per_s": meta["events"] / wall,
        "rss_kib": child.maxrss_kib,
    }


# --- serve session --------------------------------------------------------------


class Conn:
    """One persistent JSONL connection, timing each round trip."""

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line):
        start = time.perf_counter()
        self.sock.sendall(line.encode() + b"\n")
        raw = self.reader.readline()
        elapsed = time.perf_counter() - start
        if not raw:
            raise BenchError("server closed the connection")
        return raw.decode().rstrip("\n"), elapsed

    def close(self):
        self.reader.close()
        self.sock.close()


def start_server(comsig, meta, work, data, threads, tag):
    addr_file = work / f"addr-{tag}"
    addr_file.unlink(missing_ok=True)
    argv = [
        str(comsig), "serve", "--data-dir", str(data), "--seed-events", str(work / "seed.txt"),
        "--scheme", meta["scheme"], "--tier", meta["tier"], "--threads", str(threads),
        "--listen", "127.0.0.1:0", "--addr-file", str(addr_file),
    ]
    start = time.perf_counter()
    child = Child(argv, subprocess.DEVNULL, work / "serve.err")
    deadline = start + 120
    addr = ""
    while not addr:
        if child.poll() is not None or time.perf_counter() > deadline:
            child.kill()
            raise BenchError("comsig serve did not start listening")
        if addr_file.exists():
            addr = addr_file.read_text().strip()
        if not addr:
            time.sleep(0.0005)
    conn = Conn(addr)
    while True:
        resp, _ = conn.call('{"op":"status"}')
        if json.loads(resp).get("phase") == "ready":
            break
        if time.perf_counter() > deadline:
            conn.close()
            child.kill()
            raise BenchError("comsig serve did not become ready")
        time.sleep(0.0005)
    return child, conn, time.perf_counter() - start


def serve_requests(meta, work, seed):
    """The session's request lines: per served window, its events in
    fixed-size ingest batches, one advance, then the queries."""
    by_window = {}
    with open(work / "events.txt") as f:
        for line in f:
            t = int(line.split(" ", 1)[0])
            if t < meta["serve_windows"]:
                by_window.setdefault(t, []).append(line.rstrip("\n"))
    with open(work / "seed.txt") as f:
        subjects = sorted({line.split(" ")[1] for line in f})
    rng = random.Random(seed)
    batch = meta["ingest_batch"]
    requests = []
    for t in range(meta["serve_windows"]):
        events = by_window.get(t, [])
        for i in range(0, len(events), batch):
            requests.append({"op": "ingest", "lines": "\n".join(events[i : i + batch])})
        requests.append({"op": "advance"})
        for q in range(meta["queries_per_window"]):
            node = rng.choice(subjects)
            if q % 4 == 3:
                requests.append({"op": "signature", "node": node})
            else:
                requests.append({"op": "rank", "node": node, "top": meta["rank_top"]})
    requests.append({"op": "digest"})
    return [(r["op"], json.dumps(r)) for r in requests]


def serve_round(comsig, meta, work, threads, requests, tag):
    data = work / f"serve-data-{tag}"
    shutil.rmtree(data, ignore_errors=True)
    out = {"ingest_ms": [], "advance_ms": [], "query_ms": [], "responses": [], "failed": 0}
    child, conn, _ = start_server(comsig, meta, work, data, threads, tag)
    try:
        for op, line in requests:
            resp, elapsed = conn.call(line)
            out["responses"].append(resp)
            if op == "ingest":
                out["ingest_ms"].append(elapsed * 1e3)
            elif op == "advance":
                out["advance_ms"].append(elapsed * 1e3)
            elif op in ("rank", "signature"):
                out["query_ms"].append(elapsed * 1e3)
            if not resp.startswith('{"ok":true'):
                out["failed"] += 1
        before = json.loads(out["responses"][-1]).get("digest")
    finally:
        conn.close()
        child.kill()
    rss = child.maxrss_kib
    # Restart on the killed data directory: recovery replays the WAL.
    child, conn, out["recover_s"] = start_server(comsig, meta, work, data, threads, tag)
    try:
        resp, _ = conn.call('{"op":"digest"}')
        after = json.loads(resp).get("digest")
        out["restart_ok"] = before is not None and after == before
        conn.call('{"op":"shutdown"}')
        out["status"] = child.wait()
    finally:
        conn.close()
        child.kill()
    out["rss_kib"] = max(rss, child.maxrss_kib)
    out["data"] = data
    return out


# --- checks ------------------------------------------------------------------------


def compare_lines(got, want):
    """Lines of `want` that `got` does not reproduce at the same position."""
    bad = sum(1 for g, w in zip(got, want) if g != w)
    return bad + abs(len(got) - len(want))


def check_runs(streams, serves, expected, replica):
    attempted = failed = 0
    for s in streams:
        attempted += len(expected) + 1
        failed += compare_lines(s["lines"], expected) + (s["status"] != 0)
    for s in serves:
        attempted += len(replica) + 2
        failed += compare_lines(s["responses"], replica) + s["failed"]
        failed += (not s["restart_ok"]) + (s["status"] != 0)
    return attempted, failed


# --- per-layer aggregation -----------------------------------------------------------


def load_spans(path):
    spans, counters = [], []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            (spans if "span" in rec else counters).append(rec)
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    for s, c in zip(spans, child_ns):
        s["self_ms"] = (s["end_ns"] - s["start_ns"] - c) / 1e6
    return spans, counters


def steady(window_id):
    """Whether a span id names a steady window: the helper numbers windows
    `rep * 100_000 + w`, and window 0 of every pass is cold."""
    return window_id % 100_000 != 0


def layer_metrics(spans, counters, requests, summary):
    per_window = {}
    per_call = {}
    for s in spans:
        name = s["name"]
        if name in WINDOW_SPANS.values() or name == "window":
            if steady(s["id"]):
                key = (name, s["id"])
                per_window[key] = per_window.get(key, 0.0) + s["self_ms"]
        else:
            per_call.setdefault(name, []).append(s)

    def window_median(name):
        xs = [v for (n, _), v in per_window.items() if n == name]
        return median(xs) if xs else 0.0

    def call_median(name, keep=lambda s: True):
        xs = [s["self_ms"] for s in per_call.get(name, []) if keep(s)]
        return median(xs) if xs else 0.0

    metrics = {}
    for metric, name in WINDOW_SPANS.items():
        metrics[metric] = window_median(name)
    for metric, name in {**SETUP_SPANS, **CALL_SPANS}.items():
        metrics[metric] = call_median(name)
    queries = {i for i, (op, _) in enumerate(requests) if op in ("rank", "signature")}
    metrics["serve.handle_line_ms"] = call_median("serve.handle_line", lambda s: s["id"] in queries)
    for name in WINDOW_COUNTERS:
        xs = [c["value"] for c in counters if c["counter"] == name and steady(c["id"])]
        metrics[name] = median(xs) if xs else 0.0
    wal = [c["value"] for c in counters if c["counter"] == "serve.wal_bytes"]
    metrics["serve.wal_bytes"] = median(wal) if wal else 0.0
    metrics["trace.window_self_ms"] = window_median("window")
    traced = median(summary["traced_window_ms"])
    untraced = median(summary["untraced_window_ms"])
    metrics["trace.window_p50_ms"] = traced
    metrics["trace.untraced_window_p50_ms"] = untraced
    metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    return metrics


# --- stamp ------------------------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/**/*")) + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        if path.is_file() and "target" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def machine_stamp(threads):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "nproc": threads,
        "cpu": cpu,
        "rustc": rustc,
        "git_commit": commit or None,
        "source_digest": source_digest(),
    }


# --- main ---------------------------------------------------------------------------------


def run(args):
    comsig, perfbench = build()
    threads = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        meta = helper(perfbench, ["gen", "--workload", args.workload, "--seed", str(args.seed),
                                  "--dir", str(work)])
        requests = serve_requests(meta, work, args.seed)
        (work / "requests.txt").write_text("".join(line + "\n" for _, line in requests))

        streams, serves = [], []
        steal0, total0 = cpu_jiffies()
        deadline = time.perf_counter() + args.seconds
        rounds = 1 if args.trace else MIN_ROUNDS
        while len(streams) < rounds or (not args.trace and time.perf_counter() < deadline):
            streams.append(stream_round(comsig, meta, work, threads))
            serves.append(serve_round(comsig, meta, work, threads, requests, len(serves)))

        steal1, total1 = cpu_jiffies()
        ref_args = ["ref", "--workload", args.workload, "--dir", str(work), "--threads",
                    str(threads), "--trace", str(args.trace), "--seconds", str(args.seconds),
                    "--requests", str(work / "requests.txt"), "--killed", str(serves[-1]["data"])]
        summary = helper(perfbench, ref_args)
        expected = (work / "expected.txt").read_text().splitlines()
        replica = (work / "replica.txt").read_text().splitlines()
        attempted, failed = check_runs(streams, serves, expected, replica)
        attempted += summary["checks"]
        failed += summary["failed"]
        for reason in summary["failures"]:
            log(f"check failed: {reason}")

        stamp = {"workload": args.workload, "seed": args.seed, "events": meta["events"],
                 "subjects": meta["subjects"], "nodes": meta["nodes"],
                 "input_digest": meta["digest"], "threads": threads,
                 "machine": machine_stamp(threads),
                 "steal_share": (steal1 - steal0) / max(1, total1 - total0)}
        if args.trace:
            spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
            shutil.copyfile(work / "spans.jsonl", spans_path)
            spans, counters = load_spans(spans_path)
            values = layer_metrics(spans, counters, requests, summary)
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in LAYER_METRICS}
            stamp["spans"] = str(spans_path.relative_to(ROOT))
            stamp["trace_reps"] = summary["reps"]
        else:
            gaps = [g for s in streams for g in s["gaps_ms"]]
            ingest = [x for s in serves for x in s["ingest_ms"]]
            query = [x for s in serves for x in s["query_ms"]]
            values = {
                "setup_s": median([s["setup_s"] for s in streams if s["setup_s"] is not None]),
                "events_per_s": median([s["events_per_s"] for s in streams]),
                "window_p50_ms": percentile(gaps, 50),
                "advance_p50_ms": median([x for s in serves for x in s["advance_ms"]]),
                "query_p50_ms": percentile(query, 50),
                "recover_s": median([s["recover_s"] for s in serves]),
                "peak_rss_mib": max(s["rss_kib"] for s in streams + serves) / 1024.0,
                "exact_agreement": summary["agreement"],
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in E2E_METRICS}
            stamp["samples"] = {"stream_runs": len(streams), "serve_sessions": len(serves),
                                "windows": len(gaps), "ingests": len(ingest),
                                "queries": len(query)}
            # Recorded, not gated: on a shared machine these move with the
            # neighbours' load more than with the code (see README.md).
            stamp["latency_ms"] = {f"{name}_p{q}": percentile(xs, q)
                                   for name, xs, qs in (("window", gaps, (90, 99)),
                                                        ("ingest", ingest, (50, 90, 99)),
                                                        ("query", query, (90, 99)))
                                   for q in qs}
            stamp["latency_ms"]["ingest_mean"] = sum(ingest) / len(ingest)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
        return stamp, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds: children are killed and reaped and
    # the scratch directory is removed by the `finally` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        stamp, result = run(args)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
