"""The two benchmark workloads: seeded inputs, one pass, output checks.

Every workload follows the same protocol, driven by ``run.py``:

* ``setup(seed, size, workdir)`` builds the inputs from the seed and
  returns a state object; the program sees only these inputs;
* ``run_pass(state, tracer)`` makes one closed-loop call into the pipeline
  and returns the wall time of that call alone;
* ``check_pass(state)`` inspects what the last pass produced and returns a
  :class:`PassOutcome` with the accuracy figure, a digest of the output
  (``run.py`` requires equal digests across the passes of one run) and the
  list of failed checks (empty when the pass is correct).

Sizes are part of the workload definition: ``full`` is what the benchmark
measures, ``smoke`` is a few hundred points for the benchmark's own tests.
The accuracy ceilings were fixed from the runs that defined the benchmark
(see README.md); a pass above its ceiling counts as failed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from varicurv import cli, convergence, estimator, io as vio, kernels, shapes

K_NEIGHBORS = 40
CSV_HEADER = "index,x0,x1,x2,k1,k2,gauss,abs_sum,mean_norm,status"


@dataclass
class PassOutcome:
    points: int
    flagged: int
    oracle_err: float
    fingerprint: str
    failures: list[str] = field(default_factory=list)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _pair():
    return kernels.natural_kernel_pair(kernels.bump_profile(), 2, 3)


# ---------------------------------------------------------------- cube via CLI


class CubeCli:
    """Cube(1) with noise 0.01 from an xyz file through ``varicurv run``.

    The user-facing path: file read, tangent and mass estimation, two
    neighbor resolutions, CSV and ply writes.
    """

    name = "cube-cli-16k"
    sizes = {"full": 16000, "smoke": 300}
    noise = 0.01
    # Face points lie more than this many median smoothing radii from an
    # edge.  At a few hundred points the radius exceeds half a face, so the
    # smoke size keeps every point off the edges.
    edge_margin = {"full": 3.0, "smoke": 0.0}
    # Median abs_sum (exact value 0) over face points; measured 1.009-1.161
    # at 16k and 2.005-2.047 at 300 points over seeds 0-9.
    ceilings = {"full": 1.3, "smoke": 2.2}

    def setup(self, seed, size, workdir):
        n = self.sizes[size]
        sample = shapes.Cube(1.0).sample(n, noise_sigma=self.noise, seed=seed)
        positions = sample.cloud.positions
        xyz = os.path.join(workdir, "cube.xyz")
        vio.write_xyz(xyz, positions)
        # Smoothing radii as the estimator resolves them for knn(40).
        margin = estimator.NeighborQuery.knn(K_NEIGHBORS).margin
        kth = cKDTree(positions).query(positions, k=K_NEIGHBORS + 1)[0][:, -1]
        eps_median = float(np.median((1.0 + margin) * kth))
        csv_path = os.path.join(workdir, "report.csv")
        ply_path = os.path.join(workdir, "report.ply")
        return {
            "size": size,
            "n": n,
            "face": sample.edge_distance > self.edge_margin[size] * eps_median,
            "csv": csv_path,
            "ply": ply_path,
            "argv": ["run", "--input", xyz, "--k", str(K_NEIGHBORS),
                     "--mass-mode", "nmass", "--csv", csv_path, "--ply", ply_path,
                     "--quantity", "abs-sum"],
        }

    def run_pass(self, state, tracer):
        for path in (state["csv"], state["ply"]):
            if os.path.exists(path):
                os.remove(path)
        state["exit_code"], dt = _timed(cli.main, state["argv"])
        return dt

    def check_pass(self, state):
        n = state["n"]
        failures = []
        if state["exit_code"] != 0:
            failures.append(f"exit code {state['exit_code']}")
            return PassOutcome(n, 0, math.nan, "", failures)
        with open(state["csv"], "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        lines = raw.decode().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            failures.append("bad CSV header")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != n:
            failures.append(f"CSV has {len(rows)} rows, expected {n}")
        if any(len(r) != 10 for r in rows):
            failures.append("CSV row with a wrong column count")
        if failures:
            return PassOutcome(n, 0, math.nan, digest, failures)
        status = np.array([r[9] for r in rows])
        kappas = np.array([[float(r[4]), float(r[5])] for r in rows])
        abs_sum = np.array([float(r[7]) for r in rows])
        ok = status == estimator.STATUS_OK
        if not np.all(np.isfinite(kappas[ok])):
            failures.append("non-finite kappas on ok rows")
        err = float(np.median(abs_sum[ok & state["face"]]))
        if not err <= self.ceilings[state["size"]]:
            failures.append(f"oracle error {err:.6g} above {self.ceilings[state['size']]}")
        failures += _check_ply(state["ply"], n)
        return PassOutcome(n, int(np.sum(~ok)), err, digest, failures)


def _check_ply(path, n):
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        end = lines.index("end_header")
    except ValueError:
        return ["ply without end_header"]
    if f"element vertex {n}" not in lines[:end]:
        return ["ply vertex count differs from the input"]
    if len(lines) - end - 1 != n:
        return [f"ply has {len(lines) - end - 1} vertex lines, expected {n}"]
    return []


# ---------------------------------------------------------------- torus schedule


class TorusSchedule:
    """Convergence schedule over Torus(2, 0.5), both variants compared.

    Several smaller clouds per pass; shape sampling and the per-point
    oracle run inside the pass, and the averaged variant runs the linear
    solve that no other workload reaches.
    """

    name = "torus-schedule"
    sizes = {"full": (4000, 8000), "smoke": (150, 300)}
    # Worst-component median relative kappa error on the last row,
    # orthogonal then averaged variant; measured at most 0.0999 / 0.2048 at
    # full size and 0.8052 / 0.9230 at smoke size over seeds 0-9.
    ceilings = {"full": (0.11, 0.23), "smoke": (0.86, 0.98)}

    def setup(self, seed, size, workdir):
        query = estimator.NeighborQuery.knn(K_NEIGHBORS)
        rows = tuple(convergence.ScheduleRow(m, query) for m in self.sizes[size])
        return {
            "size": size,
            "schedule": convergence.ConvergenceSchedule(
                shapes.Torus(2.0, 0.5), rows=rows, seed=seed
            ),
            "kernels": _pair(),
        }

    def run_pass(self, state, tracer):
        state["result"], dt = _timed(
            convergence.run_convergence, state["schedule"],
            kernels=tracer.wrap_pair(state["kernels"]), compare_variants=True,
        )
        return dt

    def check_pass(self, state):
        rows = state["result"].rows
        failures = []
        last = rows[-1]
        err = float(np.max(last.kappa_median))
        err_avg = float(np.max(last.kappa_median_averaged))
        ceil_orth, ceil_avg = self.ceilings[state["size"]]
        if not err <= ceil_orth:
            failures.append(f"oracle error {err:.6g} above {ceil_orth}")
        if not err_avg <= ceil_avg:
            failures.append(f"averaged-variant error {err_avg:.6g} above {ceil_avg}")
        numbers = np.array([
            [r.eps_median, *r.kappa_median, *r.kappa_p90, r.mean_norm_median,
             r.gauss_median, *r.kappa_median_averaged, r.n_warnings]
            for r in rows
        ])
        if not np.all(np.isfinite(numbers)):
            failures.append("non-finite row statistics")
        return PassOutcome(
            points=sum(r.n_points for r in rows),
            flagged=sum(r.n_warnings for r in rows),
            oracle_err=err,
            fingerprint=_digest(numbers),
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (CubeCli(), TorusSchedule())}
