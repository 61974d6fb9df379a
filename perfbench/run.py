"""The repository benchmark: end-to-end DBSCAN workloads with a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run executes ``workload.py`` in fresh
processes whose environment has every ``REPRO_*`` variable removed, so the
library's own defaults are measured.  ``--trace 0`` prints the end-to-end
metrics (set-up is repeated ``SETUP_REPEATS`` times, each in its own process,
and its median reported); ``--trace 1`` prints the per-layer metrics of a
traced run.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-ss3d", "approx-pamap4d", "parallel-ss3d", "service-ss2d")
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0

END_TO_END = {
    "call_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms", "req_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "grid.build_s": "s", "grid.adjacency_s": "s", "grid.cells": "count",
    "core.label_s": "s", "core.dense_points": "count", "core.counted_points": "count",
    "core.retired_points": "count",
    "cellgraph.components_s": "s", "cellgraph.pairs_total": "count",
    "cellgraph.quick_accept": "count", "cellgraph.quick_reject": "count",
    "cellgraph.survivors": "count", "cellgraph.predicate_tests": "count",
    "cellgraph.lemma5_queries": "count", "cellgraph.skip_ratio": "frac",
    "border.assign_s": "s", "border.assigned": "count", "border.noise": "count",
    "result.build_s": "s",
    "parallel.warm_s": "s", "parallel.cores_s": "s", "parallel.components_s": "s",
    "parallel.borders_s": "s", "parallel.copy_bytes": "B", "parallel.retries": "count",
    "parallel.respawns": "count",
    "service.engine_ms": "ms", "service.encode_ms": "ms", "service.overhead_ms": "ms",
    "service.cache_hits": "count", "service.cache_misses": "count",
    "service.coalesced": "count", "service.shed": "count", "service.degraded": "count",
    "trace.overhead_frac": "frac",
}


class RunError(RuntimeError):
    pass


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, deadline: float, *extra: str) -> dict:
    """Run workload.py in its own process group; return its RESULT record."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError("workload process timed out")
    finally:
        stray = reap_group(proc.pid)
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}")
    if stray:
        raise RunError("the workload process left processes running")
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise RunError("workload process printed no result")
    return json.loads(lines[-1][len("RESULT "):])


def reap_group(pgid: int) -> bool:
    """Kill whatever is left in the child's process group; True if anything was."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    except PermissionError:
        return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_child(args, deadline, "--setup-only")["setup_s"])
        record = run_child(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(record["setup_s"])

    metrics = dict(record["metrics"])
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        metrics["setup_s"] = statistics.median(setups)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: run did not report {missing}", file=sys.stderr)
        return 1

    attempted, failed = record["attempted"], record["failed"]
    print("context " + json.dumps(record["context"]))
    for note in record["notes"]:
        print("note: " + note)
    if not args.trace:
        print(f"setup_s samples {[round(s, 4) for s in setups]}")
    print(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for name in units:
        print(f"{name:28s} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
