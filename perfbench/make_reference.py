"""Record the brute-force references the benchmark checks against.

Runs ``repro.dbscan(..., algorithm="brute")`` on every base dataset at every
eps a workload uses (about 4 minutes in all) and writes ``perfbench/ref/``.
Run it from the repository root only when a base dataset changes::

    python3 perfbench/make_reference.py [key ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import inputs  # noqa: E402


def jobs():
    yield "ss3d", inputs.SS3D["eps"], inputs.SS3D["min_pts"]
    rho = inputs.PAMAP4D["rho"]
    eps = inputs.PAMAP4D["eps"]
    yield "pamap4d", eps, inputs.PAMAP4D["min_pts"]
    yield "pamap4d", eps * (1 + rho), inputs.PAMAP4D["min_pts"]
    for eps in inputs.SS2D["eps_set"]:
        yield "ss2d", eps, inputs.SS2D["min_pts"]




def main(argv) -> int:
    import repro

    wanted = set(argv)
    points = {}
    for dataset, eps, min_pts in jobs():
        key = inputs.ref_key(dataset, eps)
        if wanted and key not in wanted:
            continue
        if dataset not in points:
            points[dataset] = inputs.base_points(dataset)
        pts = points[dataset]
        t0 = time.perf_counter()
        result = repro.dbscan(pts, eps=eps, min_pts=min_pts, algorithm="brute")
        ref = inputs.Reference.from_result(
            result.n, result.clusters, result.core_mask, np.arange(len(pts)))
        path = ref.save(key, inputs.fingerprint(pts), {"eps": eps, "min_pts": min_pts})
        print(f"{key}: {len(ref.clusters)} clusters, {int(ref.core.sum())} cores, "
              f"{time.perf_counter() - t0:.1f} s -> {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
