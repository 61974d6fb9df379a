"""One benchmark run of one workload, in a fresh process (started by run.py).

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints, as its last stdout line, ``RESULT <json>`` with the run's setup time,
metrics, operation counts, notes and machine context.  ``--setup-only`` stops
after set-up, so run.py can take the median of several set-ups.

Untraced runs (``--trace 0``) time whole public calls: ``repro.dbscan`` /
``repro.approx_dbscan``, or requests to a ``repro serve`` subprocess.  Traced
runs (``--trace 1``) first time untraced calls, then rebuild the same result
from each layer's public function with a span around every call, and report
the per-layer split (see README.md for the metric table).  A metric the run
cannot observe -- a layer that ran in pool workers, or a service metric on a
one-shot workload -- is reported as ``ABSENT`` (-1), never as 0.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core import serialize  # noqa: E402
from repro.core.border import assign_borders  # noqa: E402
from repro.core.cellgraph import approx_components, exact_components  # noqa: E402
from repro.core.labeling import label_cores  # noqa: E402
from repro.core.result import build_clustering  # noqa: E402
from repro.engine import ClusteringEngine  # noqa: E402
from repro.grid import Grid, counters  # noqa: E402
from repro.parallel import (  # noqa: E402
    as_parallel_config,
    collect_stats,
    leaked_segments,
    parallel_assign_borders,
    parallel_exact_components,
    parallel_label_cores,
    parallel_warm_neighbors,
    track_copy_bytes,
    unpublish_grid,
)

import inputs  # noqa: E402
from run import clean_env  # noqa: E402
from spans import Tracer  # noqa: E402

ABSENT = -1
MIN_CALLS = 3        # timed one-shot calls per untraced run, whatever --seconds says
MIN_TRACED = 2       # untraced and traced calls each in a traced run
MIN_REQUESTS = 100   # so that >= 10 requests lie beyond the p90
CONNECTIONS = 2
SERVICE_TRACED_REQUESTS = 64

# Per-layer metric -> (kernel layer span, counter) for the counters the trace reads.
LAYER_COUNTERS = {
    "core.dense_points": ("core.label", "core_dense_points"),
    "core.counted_points": ("core.label", "core_counted_points"),
    "core.retired_points": ("core.label", "core_retired_points"),
    "cellgraph.pairs_total": ("cellgraph.components", "edge_pairs_total"),
    "cellgraph.quick_accept": ("cellgraph.components", "edge_quick_accept"),
    "cellgraph.quick_reject": ("cellgraph.components", "edge_quick_reject"),
    "cellgraph.survivors": ("cellgraph.components", "edge_survivors"),
    "cellgraph.predicate_tests": ("cellgraph.components", "edge_predicate_tests"),
    "cellgraph.lemma5_queries": ("cellgraph.components", "lemma5_queries"),
    "border.assigned": ("border.assign", "border_assigned"),
    "border.noise": ("border.assign", "border_noise"),
}
# Per-layer metric -> span; kernel layers report self time, repro.parallel
# phases their whole span (the phase time, comparable across serial and pool).
LAYER_SELF = {
    "grid.build_s": "grid.build",
    "grid.adjacency_s": "grid.adjacency",
    "core.label_s": "core.label",
    "cellgraph.components_s": "cellgraph.components",
    "border.assign_s": "border.assign",
    "result.build_s": "result.build",
}
PHASES = {
    "parallel.warm_s": "parallel.warm",
    "parallel.cores_s": "parallel.cores",
    "parallel.components_s": "parallel.components",
    "parallel.borders_s": "parallel.borders",
}
SERVICE_METRICS = ("service.engine_ms", "service.encode_ms", "service.overhead_ms",
                   "service.cache_hits", "service.cache_misses", "service.coalesced",
                   "service.shed", "service.degraded")


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


STEAL_AT_START = cpu_ticks()


def machine_context(workload: str, seed: int) -> dict:
    """What the figures depend on besides the code; ``steal_frac`` is the share
    of CPU time the hypervisor took from this machine while the run went."""
    steal_frac = None
    now = cpu_ticks()
    if now is not None and STEAL_AT_START is not None and now[1] > STEAL_AT_START[1]:
        steal_frac = round((now[0] - STEAL_AT_START[0]) / (now[1] - STEAL_AT_START[1]), 4)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
        "steal_frac": steal_frac,
    }


class Run:
    """Operation counts, notes and the chosen metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.metrics = {}

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(why)

    def hygiene(self) -> None:
        """After-run check, counted as one operation: no shared-memory leak."""
        self.attempted += 1
        leaked = leaked_segments()
        if leaked:
            self.fail(f"leaked shared-memory segments: {leaked}")


# ----------------------------------------------------------------- one-shot


class OneShot:
    """A timed public call on a shuffled base dataset, checked against brute."""

    def __init__(self, dataset: str, eps: float, min_pts: int, *, rho=None, workers=None):
        self.dataset, self.eps, self.min_pts = dataset, eps, min_pts
        self.rho, self.workers = rho, workers

    def setup(self, seed: int) -> None:
        base = inputs.base_points(self.dataset)
        self.points, self.perm = inputs.shuffled(base, seed)
        self.warm = self.call()
        self.base = base

    def call(self):
        if self.rho is not None:
            return repro.approx_dbscan(self.points, eps=self.eps, min_pts=self.min_pts,
                                       rho=self.rho)
        return repro.dbscan(self.points, eps=self.eps, min_pts=self.min_pts,
                            workers=self.workers)

    def load_references(self) -> None:
        fp = inputs.fingerprint(self.base)
        self.ref = inputs.Reference.load(inputs.ref_key(self.dataset, self.eps), fp)
        if self.rho is not None:
            self.ref_outer = inputs.Reference.load(
                inputs.ref_key(self.dataset, self.eps * (1 + self.rho)), fp)

    def wrong(self, result) -> str:
        """Why ``result`` is wrong, or '' when it matches the brute reference."""
        got = inputs.Reference.from_result(result.n, result.clusters, result.core_mask,
                                           self.perm)
        if self.rho is None:
            return "" if got == self.ref else "clusters or core mask differ from brute"
        if got.n != self.ref.n or not np.array_equal(got.core, self.ref.core):
            return "core mask differs from brute at eps"
        if not self.ref.within(got):
            return "an exact(eps) cluster is not inside an approximate cluster"
        if not got.within(self.ref_outer):
            return "an approximate cluster is not inside an exact(eps(1+rho)) cluster"
        return ""

    def checked_call(self, run: Run, fn):
        """Call ``fn`` timed; check its output; return (seconds, result) or None."""
        run.attempted += 1
        try:
            t0 = perf_counter()
            result = fn()
            dt = perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed call is a counted outcome
            run.fail(f"call raised {type(exc).__name__}: {exc}")
            return None
        why = self.wrong(result)
        if why:
            run.fail(why)
        return dt, result

    def measure(self, run: Run, seconds: float) -> None:
        self.check_warm(run)
        times = self.timed_loop(run, seconds, MIN_CALLS)
        if not times:
            raise RuntimeError("no call succeeded")
        rss = peak_rss_mb(resource.RUSAGE_SELF)
        if self.workers:
            rss = max(rss, peak_rss_mb(resource.RUSAGE_CHILDREN))
        run.metrics.update({
            "call_s": median(times),
            "req_p50_ms": 1000 * median(times),
            "req_p90_ms": 1000 * float(np.percentile(times, 90)),
            "req_per_s": len(times) / sum(times),
            "peak_rss_mb": rss,
        })
        run.notes.append(f"{len(times)} timed calls; effective workers "
                         f"{self.warm.meta.get('workers')}")
        run.hygiene()

    def check_warm(self, run: Run) -> None:
        run.attempted += 1
        why = self.wrong(self.warm)
        if why:
            run.fail("warm-up call: " + why)

    def timed_loop(self, run: Run, seconds: float, min_calls: int):
        times = []
        start = perf_counter()
        calls = 0
        while calls < min_calls or perf_counter() - start < seconds:
            calls += 1
            out = self.checked_call(run, self.call)
            if out is not None:
                times.append(out[0])
        return times

    # -------------------------------------------------------------- traced

    def traced_call(self, tr: Tracer):
        """The grid pipeline rebuilt from each layer's public function."""
        pts, eps, min_pts = self.points, self.eps, self.min_pts
        cfg = as_parallel_config(self.workers)
        with tr.span("run"):
            with tr.span("grid.build"):
                grid = Grid(pts, eps)
            try:
                with tr.span("parallel.warm"):
                    if cfg is None:
                        with tr.span("grid.adjacency"):
                            grid.warm_neighbors()
                    else:
                        parallel_warm_neighbors(grid, cfg)
                with tr.span("parallel.cores"):
                    if cfg is None:
                        with tr.span("core.label"):
                            core = label_cores(grid, min_pts)
                    else:
                        core = parallel_label_cores(grid, min_pts, cfg)
                with tr.span("parallel.components"):
                    if cfg is None:
                        with tr.span("cellgraph.components"):
                            if self.rho is None:
                                labels, _ = exact_components(grid, core)
                            else:
                                labels, _ = approx_components(grid, core, self.rho)
                    else:
                        labels, _ = parallel_exact_components(grid, core, cfg)
                with tr.span("parallel.borders"):
                    if cfg is None:
                        with tr.span("border.assign"):
                            borders = assign_borders(grid, core, labels)
                    else:
                        borders = parallel_assign_borders(grid, core, labels, cfg)
                with tr.span("result.build"):
                    result = build_clustering(len(pts), core, labels, borders)
            finally:
                unpublish_grid(grid)
        self.cells = len(grid)
        return result

    def measure_traced(self, run: Run, seconds: float) -> Tracer:
        """Untraced and traced calls alternate, so both see the same machine."""
        self.check_warm(run)
        tr = Tracer(counters.snapshot)
        base = inputs.Reference.from_result(self.warm.n, self.warm.clusters,
                                            self.warm.core_mask, self.perm)
        untraced, copy_bytes, retries, respawns = [], [], [], []
        start = perf_counter()
        while tr.run < MIN_TRACED or perf_counter() - start < seconds:
            out = self.checked_call(run, self.call)
            if out is not None:
                untraced.append(out[0])
            with track_copy_bytes() as ledger, collect_stats() as sup:
                out = self.checked_call(run, lambda: self.traced_call(tr))
            if out is not None:
                got = inputs.Reference.from_result(out[1].n, out[1].clusters,
                                                   out[1].core_mask, self.perm)
                if got != base:
                    run.fail("traced result differs from the untraced call's")
            copy_bytes.append(ledger["task_bytes"] + ledger["result_bytes"])
            retries.append(len(sup.retries))
            respawns.append(sup.respawns)
            tr.run += 1
        if not untraced:
            raise RuntimeError("no untraced call succeeded")
        run.hygiene()
        m = layer_metrics(tr, tr.runs(), per=1)
        m["grid.cells"] = self.cells
        m["parallel.copy_bytes"] = median(copy_bytes)
        m["parallel.retries"] = median(retries)
        m["parallel.respawns"] = median(respawns)
        total = median([tr.per_run(r, inclusive=True)["run"] for r in tr.runs()])
        m["trace.overhead_frac"] = total / median(untraced) - 1.0
        m.update({name: ABSENT for name in SERVICE_METRICS})
        run.metrics.update(m)
        run.notes.append(f"traced total {total:.4f} s vs untraced call_s "
                         f"{median(untraced):.4f} s over {len(untraced)} untraced and "
                         f"{tr.run} traced calls; {attributed(tr):.1%} of it inside layer spans")
        return tr


def attributed(tr: Tracer) -> float:
    """Share of the traced time that falls inside a layer span."""
    total = sum(tr.per_run(r, inclusive=True)["run"] for r in tr.runs())
    glue = sum(tr.per_run(r)["run"] for r in tr.runs())
    return 1.0 - glue / total


def layer_metrics(tr: Tracer, runs, per: int) -> dict:
    """Per-layer values from traced runs.

    ``per=1``: the median over runs (one-shot calls).  ``per=k``: the sum over
    all runs divided by ``k`` (the mean per service request).
    """
    def combine(values):
        return median(values) if per == 1 else sum(values) / per

    selfs = [tr.per_run(r) for r in runs]
    whole = [tr.per_run(r, inclusive=True) for r in runs]
    out = {}
    for metric, span in LAYER_SELF.items():
        seen = [s[span] for s in selfs if span in s]
        out[metric] = combine(seen) if seen else ABSENT
    for metric, span in PHASES.items():
        out[metric] = combine([w.get(span, 0.0) for w in whole])
    def counts(span):
        return [c for c in (tr.counters(r, span) for r in runs) if c is not None]

    for metric, (span, counter) in LAYER_COUNTERS.items():
        found = counts(span)
        out[metric] = combine([c.get(counter, 0) for c in found]) if found else ABSENT
    edges = counts("cellgraph.components")
    if not edges:
        out["cellgraph.skip_ratio"] = ABSENT
    else:
        skipped = sum(c.get("edge_scheduled_skip", 0) for c in edges)
        survivors = sum(c.get("edge_survivors", 0) for c in edges)
        out["cellgraph.skip_ratio"] = skipped / survivors if survivors else 0.0
    return out


# ------------------------------------------------------------------ service


class LineClient:
    """A blocking line-JSON connection; timing stays in the caller."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.stream = self.sock.makefile("rwb")

    def send(self, payload: dict) -> bytes:
        self.stream.write(json.dumps(payload).encode() + b"\n")
        self.stream.flush()
        line = self.stream.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def op(self, op: str) -> dict:
        return json.loads(self.send({"id": op, "op": op}))

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class Service:
    """A ``repro serve`` subprocess with a pre-registered dataset, closed loop."""

    dataset = "ss2d"

    def setup(self, seed: int) -> None:
        self.seed = seed
        spec = inputs.SS2D
        base = inputs.base_points(self.dataset)
        self.points, self.perm = inputs.shuffled(base, seed)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"ss2d-seed{seed}-{os.getpid()}.npy"
        np.save(path, self.points)
        self.data_path = path
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--dataset", f"{self.dataset}={path}"],
            stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True, env=clean_env())
        self.stderr_tail = []
        port = None
        for line in self.proc.stderr:
            self.stderr_tail.append(line)
            match = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise RuntimeError("server exited before serving: " + "".join(self.stderr_tail))
        threading.Thread(target=self._drain_stderr, daemon=True).start()
        self.clients = [LineClient(port) for _ in range(CONNECTIONS)]
        for client in self.clients:
            if not client.op("ping").get("ok"):
                raise RuntimeError("ping failed")
        self.min_pts = spec["min_pts"]
        self.eps_set = spec["eps_set"]
        self.base = base

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_tail = (self.stderr_tail + [line])[-20:]

    def load_references(self) -> None:
        fp = inputs.fingerprint(self.base)
        self.refs = {eps: inputs.Reference.load(inputs.ref_key(self.dataset, eps), fp)
                     for eps in self.eps_set}

    def eps_sequence(self, conn: int):
        rng = np.random.default_rng([self.seed, conn])
        while True:
            for i in rng.integers(0, len(self.eps_set), size=1024).tolist():
                yield self.eps_set[i]

    def closed_loop(self, seconds: float):
        """Each connection sends its next request when the reply arrives."""
        records = []   # (eps, sent, received, raw line or error text)
        stop_at = perf_counter() + seconds

        def drive(conn: int) -> None:
            client, seq = self.clients[conn], self.eps_sequence(conn)
            for k, eps in enumerate(seq):
                if perf_counter() >= stop_at and len(records) >= MIN_REQUESTS:
                    return
                payload = {"id": f"{conn}-{k}", "op": "cluster", "dataset": self.dataset,
                           "eps": eps, "min_pts": self.min_pts}
                t0 = perf_counter()
                try:
                    line = client.send(payload)
                except OSError as exc:
                    records.append((eps, t0, perf_counter(), f"{type(exc).__name__}: {exc}"))
                    return
                records.append((eps, t0, perf_counter(), line))

        start = perf_counter()
        threads = [threading.Thread(target=drive, args=(c,)) for c in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = max(r[2] for r in records) - start
        return sorted(records, key=lambda r: r[2]), wall

    def check_responses(self, run: Run, records):
        """Parse and check every reply after the loop; returns the good ones."""
        verified = {}
        good = []
        for eps, t0, t1, line in records:
            run.attempted += 1
            if isinstance(line, str):
                run.fail(f"request failed: {line}")
                continue
            reply = json.loads(line)
            if not reply.get("ok"):
                run.fail(f"error reply: {reply.get('error')}")
                continue
            res = reply["result"]
            if res.get("tier") != "exact":
                run.fail(f"served on tier {res.get('tier')!r}, not 'exact'")
                continue
            body = res["clustering"]
            answer = (body["n"], body["clusters"], body["core_mask"])
            if verified.get(eps) != answer:
                got = inputs.Reference.from_result(*answer, self.perm)
                if got != self.refs[eps]:
                    run.fail(f"eps={eps}: clusters or core mask differ from brute")
                    continue
                verified[eps] = answer
            good.append((eps, t1 - t0, res))
        return good

    def shutdown(self, run: Run) -> None:
        """Stop the server through the ``shutdown`` op; a survivor is a failure."""
        run.attempted += 1
        try:
            self.clients[0].send({"id": "bye", "op": "shutdown"})
        except OSError as exc:
            run.fail(f"shutdown op failed: {exc}")
        for client in self.clients:
            client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            run.fail("server still running 30 s after shutdown")
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode != 0:
            run.fail(f"server exited {self.proc.returncode}")
        self.data_path.unlink(missing_ok=True)

    def close_quietly(self) -> None:
        if getattr(self, "proc", None) is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        path = getattr(self, "data_path", None)
        if path is not None:
            path.unlink(missing_ok=True)

    def loop_and_check(self, run: Run, seconds: float):
        records, wall = self.closed_loop(seconds)
        stats = self.clients[0].op("stats")["result"]
        cache = self.clients[0].op("datasets")["result"][self.dataset]["cache"]
        self.shutdown(run)
        run.hygiene()
        good = self.check_responses(run, records)
        if not good:
            raise RuntimeError("no request succeeded")
        latencies = [dt for _, dt, _ in good]
        return good, latencies, wall, stats, cache

    def measure(self, run: Run, seconds: float) -> None:
        good, latencies, wall, _, _ = self.loop_and_check(run, seconds)
        executed = [res["elapsed"] for _, _, res in good if not res.get("coalesced")]
        run.metrics.update({
            "call_s": median(executed),
            "req_p50_ms": 1000 * median(latencies),
            "req_p90_ms": 1000 * float(np.percentile(latencies, 90)),
            "req_per_s": len(good) / wall,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        })
        run.notes.append(f"{len(good)} requests over {CONNECTIONS} connections in "
                         f"{wall:.2f} s; {len(executed)} executed")

    def traced_request(self, tr: Tracer, eps: float, warm: dict):
        """One request rebuilt from the layers; grid and cores built once per eps."""
        with tr.span("run"):
            if eps not in warm:
                with tr.span("grid.build"):
                    grid = Grid(self.points, eps)
                with tr.span("parallel.warm"):
                    with tr.span("grid.adjacency"):
                        grid.warm_neighbors()
                with tr.span("parallel.cores"):
                    with tr.span("core.label"):
                        warm[eps] = (grid, label_cores(grid, self.min_pts))
            grid, core = warm[eps]
            with tr.span("parallel.components"):
                with tr.span("cellgraph.components"):
                    labels, _ = exact_components(grid, core)
            with tr.span("parallel.borders"):
                with tr.span("border.assign"):
                    borders = assign_borders(grid, core, labels)
            with tr.span("result.build"):
                return build_clustering(len(self.points), core, labels, borders)

    def measure_traced(self, run: Run, seconds: float) -> Tracer:
        """The closed loop, then its first requests replayed in-process.

        Each replayed request runs through a ``ClusteringEngine`` (timed, then
        encoded as the server encodes it) and, right after, through the traced
        layers, so both see the same machine.
        """
        good, latencies, _, stats, cache = self.loop_and_check(run, seconds / 2)
        sequence = [eps for eps, _, _ in good[:SERVICE_TRACED_REQUESTS]]
        engine = ClusteringEngine(self.points)
        tr = Tracer(counters.snapshot)
        engine_s, encode_s, warm = [], [], {}
        with track_copy_bytes() as ledger, collect_stats() as sup:
            for eps in sequence:
                run.attempted += 1
                t0 = perf_counter()
                expected = engine.dbscan(eps, self.min_pts)
                t1 = perf_counter()
                json.dumps(serialize.to_dict(expected))
                encode_s.append(perf_counter() - t1)
                engine_s.append(t1 - t0)
                result = self.traced_request(tr, eps, warm)
                tr.run += 1
                got = inputs.Reference.from_result(result.n, result.clusters,
                                                   result.core_mask, self.perm)
                if got != self.refs[eps]:
                    run.fail(f"traced eps={eps}: differs from brute")
                elif got != inputs.Reference.from_result(expected.n, expected.clusters,
                                                         expected.core_mask, self.perm):
                    run.fail(f"traced eps={eps}: differs from the untraced engine call")
        for grid, _ in warm.values():
            unpublish_grid(grid)
        engine.cache.clear()
        k = len(sequence)
        m = layer_metrics(tr, tr.runs(), per=k)
        total = sum(tr.per_run(r, inclusive=True)["run"] for r in tr.runs()) / k
        engine_ms, encode_ms = 1000 * median(engine_s), 1000 * median(encode_s)
        m.update({
            "grid.cells": statistics.mean(len(grid) for grid, _ in warm.values()),
            "parallel.copy_bytes": ledger["task_bytes"] + ledger["result_bytes"],
            "parallel.retries": len(sup.retries),
            "parallel.respawns": sup.respawns,
            "service.engine_ms": engine_ms,
            "service.encode_ms": encode_ms,
            "service.overhead_ms": 1000 * median(latencies) - engine_ms - encode_ms,
            "service.cache_hits": cache["hits"],
            "service.cache_misses": cache["misses"],
            "service.coalesced": stats["coalesced"],
            "service.shed": stats["rejected"] + stats["expired"],
            "service.degraded": stats["degraded"],
            "trace.overhead_frac": total / (sum(engine_s) / k) - 1.0,
        })
        run.hygiene()
        run.metrics.update(m)
        run.notes.append(f"{len(good)} requests in the loop; {k} replayed in-process; "
                         f"traced {1000 * total:.2f} ms vs engine "
                         f"{1000 * sum(engine_s) / k:.2f} ms per request; "
                         f"{attributed(tr):.1%} of it inside layer spans")
        return tr


WORKLOADS = {
    "exact-ss3d": lambda: OneShot("ss3d", inputs.SS3D["eps"], inputs.SS3D["min_pts"]),
    "approx-pamap4d": lambda: OneShot("pamap4d", inputs.PAMAP4D["eps"],
                                      inputs.PAMAP4D["min_pts"], rho=inputs.PAMAP4D["rho"]),
    "parallel-ss3d": lambda: OneShot("ss3d", inputs.SS3D["eps"], inputs.SS3D["min_pts"],
                                     workers=2),
    "service-ss2d": Service,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {SRC}")

    work = WORKLOADS[args.workload]()
    run = Run()
    try:
        work.setup(args.seed)
        setup_s = perf_counter() - T_START
        if args.setup_only:
            if isinstance(work, Service):
                work.shutdown(run)
            if run.failed:
                raise RuntimeError("; ".join(run.notes))
            print("RESULT " + json.dumps({"setup_s": setup_s}), flush=True)
            return 0
        work.load_references()
        if args.trace:
            tr = work.measure_traced(run, args.seconds)
        else:
            work.measure(run, args.seconds)
            tr = None
    finally:
        if isinstance(work, Service):
            work.close_quietly()
    context = machine_context(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    record = {"context": context, "setup_s": setup_s, "metrics": run.metrics,
              "attempted": run.attempted, "failed": run.failed, "notes": run.notes}
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tr is not None:
        tr.dump(f"{stem}.spans.json", context=context)
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
