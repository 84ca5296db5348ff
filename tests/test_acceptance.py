"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 5 grows the neighbor count with the sample
(k proportional to sqrt(N)), so that the number of points in each kernel
ball grows as the scale shrinks, as the paper's convergence results
require; at a fixed k the sampling-anisotropy floor does not shrink and the
largest principal curvature's error dips and rises again.  The measured
tables are in notes/decisions.md.
"""

import time

import numpy as np
import pytest

import varicurv as vc
from varicurv.convergence import aligned_kappa_errors, fit_loglog_slope
from varicurv.estimator import (
    NeighborIndex,
    NeighborQuery,
    curvature_report,
    estimate_tangent_planes,
    orthogonal_sff,
    point_curvature,
)
from varicurv.tensors import solve_curvature_system

from system_reference import (
    ball,
    build_full_system_matrix,
    one_row,
    orthogonal_curvature_tensor,
    system_residual,
)

RNG_SEED = 20240811


def _report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}")


def random_direction_matrix(rng, n, d):
    mats = []
    for _ in range(int(rng.integers(1, 6))):
        q, _ = np.linalg.qr(rng.standard_normal((n, d)))
        mats.append(q @ q.T)
    w = rng.uniform(0.2, 1.0, len(mats))
    w /= w.sum()
    return sum(wi * m for wi, m in zip(w, mats))


def random_cloud(rng, n_pts=500, n=3, d=2):
    pts = rng.uniform(-0.5, 0.5, size=(n_pts, n))
    planes = np.empty((n_pts, n, n))
    for i in range(n_pts):
        q, _ = np.linalg.qr(rng.standard_normal((n, d)))
        planes[i] = q @ q.T
    masses = rng.uniform(0.5, 1.5, n_pts)
    return vc.validate_cloud(pts, planes, masses, d)


def test_criterion_1_solver_correctness():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    worst_residual = 0.0
    for trial in range(1000):
        n = int(rng.choice([2, 3, 4, 6]))
        d = int(rng.integers(1, n))
        c = random_direction_matrix(rng, n, d)
        b = rng.standard_normal((n, n, n)) * rng.uniform(0.1, 10.0)
        a = solve_curvature_system(c, b)
        bound = 1e-12 * (1.0 + np.max(np.abs(b)))
        res = system_residual(c, a, b)
        worst_residual = max(worst_residual, res / bound)
        assert res <= bound
        det_c = np.linalg.det(np.eye(n) + c)
        assert det_c >= 2.0**d - 1e-9
        if n <= 3:
            L = build_full_system_matrix(c)
            dense = np.linalg.solve(L, b.ravel()).reshape(n, n, n)
            assert np.max(np.abs(a - dense)) <= 1e-9
            assert np.linalg.det(L) == pytest.approx(det_c, rel=1e-9)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 5.0
    _report_line(1, "solver correctness", ok,
                 f"[1000 systems, worst residual {worst_residual:.2e} of bound, "
                 f"{elapsed:.2f}s]")
    assert ok, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_structural_identities():
    rng = np.random.default_rng(RNG_SEED + 1)
    kp = vc.natural_kernel_pair(vc.bump_profile(), 2, 3)
    eps = 0.6
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cloud = random_cloud(rng)
        for l0 in rng.integers(0, cloud.n_points, 3):
            l0 = int(l0)
            idx = ball(cloud, cloud.positions[l0], eps)
            beta = one_row(vc.variation_tensor, cloud, l0, kp, eps, idx)
            h = np.einsum("qiq->i", beta)
            err_trace = np.max(np.abs(np.einsum("iqq->i", beta) - 2 * h))
            a_perp = orthogonal_curvature_tensor(cloud, l0, kp, eps, idx=idx)
            p0 = cloud.planes[l0]
            err_a1 = np.max(np.abs(np.einsum("iqq->i", a_perp)))
            err_a2 = np.max(
                np.abs(np.einsum("qiq->i", a_perp) - (np.eye(3) - p0) @ h)
            )
            worst = max(worst, err_trace, err_a1, err_a2)
            assert err_trace <= 1e-10
            assert err_a1 <= 1e-10
            assert err_a2 <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 10.0
    _report_line(2, "structural identities", ok,
                 f"[worst identity error {worst:.2e}, {elapsed:.2f}s]")
    assert ok, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_3_two_formula_equality():
    rng = np.random.default_rng(RNG_SEED + 2)
    kp = vc.natural_kernel_pair(vc.bump_profile(), 2, 3)
    eps = 0.6
    worst = 0.0
    for _ in range(100):
        cloud = random_cloud(rng)
        l0 = int(rng.integers(0, cloud.n_points))
        idx = ball(cloud, cloud.positions[l0], eps)
        direct = one_row(orthogonal_sff, cloud, l0, kp, eps, idx)
        converted = vc.to_bilinear_form(
            orthogonal_curvature_tensor(cloud, l0, kp, eps, idx=idx)
        )
        worst = max(worst, float(np.max(np.abs(direct - converted))))
        assert np.max(np.abs(direct - converted)) <= 1e-12
    _report_line(3, "two-formula equality", True, f"[worst gap {worst:.2e}]")


def test_criterion_4_junction():
    t0 = time.perf_counter()
    t9 = vc.junction_coefficients(vc.JunctionSpec.regular(9))
    exactly_zero = bool(np.all(t9 == 0.0))
    t3 = vc.junction_coefficients(vc.JunctionSpec.regular(3))
    cosine_sum_exact = t3[0, 0, 0] == 0.75
    spacing, eps = 1e-3, 0.05
    kp = vc.natural_kernel_pair(vc.bump_profile(), 1, 2)
    cloud9 = vc.sample_junction(vc.JunctionSpec.regular(9), 100, spacing)
    cloud3 = vc.sample_junction(vc.JunctionSpec.regular(3), 100, spacing)
    origin = np.zeros(2)
    mag9 = np.max(np.abs(one_row(vc.variation_tensor, cloud9, 0, kp, eps,
                                 ball(cloud9, origin, eps))))
    mag3 = np.max(np.abs(one_row(vc.variation_tensor, cloud3, 0, kp, eps,
                                 ball(cloud3, origin, eps))))
    sampled_ok = mag9 <= 0.05 * mag3
    elapsed = time.perf_counter() - t0
    ok = exactly_zero and cosine_sum_exact and sampled_ok and elapsed <= 5.0
    _report_line(4, "junction", ok,
                 f"[t9=0: {exactly_zero}, sum cos^3={t3[0, 0, 0]}, "
                 f"|b9|/|b3|={mag9 / mag3:.4f}, {elapsed:.2f}s]")
    assert exactly_zero
    assert cosine_sum_exact
    assert sampled_ok, f"ratio {mag9 / mag3:.4f} exceeds 0.05"
    assert elapsed <= 5.0


def test_criterion_5_sphere_convergence():
    sphere = vc.Sphere(1.0)
    t0 = time.perf_counter()
    eps_rows, aperp_rows, k_medians = [], [], []
    # k grows as sqrt(N): the kernel balls hold more points as eps shrinks
    for row, (n_pts, k) in enumerate(((4000, 40), (16000, 80), (64000, 160))):
        sample = sphere.sample(n_pts, seed=RNG_SEED + row)
        rep = curvature_report(
            sample.cloud,
            NeighborIndex(sample.cloud.positions).resolve_all(NeighborQuery.knn(k)),
            collect_a_perp=True,
        )
        k_err = aligned_kappa_errors(rep.kappas, sample.kappas)
        k_medians.append(np.median(k_err, axis=0))
        exact = -(
            np.einsum("lij,lk->lijk", sample.cloud.planes, sample.base_points)
            + np.einsum("lik,lj->lijk", sample.cloud.planes, sample.base_points)
        )
        # Frobenius norm per point, so the rate does not move with the
        # seed's random rotation of the sphere sample
        aperp_err = np.linalg.norm((rep.a_perp - exact).reshape(n_pts, -1), axis=1)
        eps_rows.append(float(np.median(rep.eps)))
        aperp_rows.append(float(np.median(aperp_err)))
    elapsed = time.perf_counter() - t0
    k_medians = np.array(k_medians)
    monotone = [bool(np.all(np.diff(k_medians[:, j]) < 0)) for j in range(2)]
    final_ok = bool(np.all(k_medians[-1] <= 0.05))
    slope = fit_loglog_slope(eps_rows, aperp_rows)
    # the orthogonal tensor's error on a sphere with exact planes is the
    # smoothing bias, which is quadratic in eps
    slope_ok = 1.7 <= slope <= 2.3
    time_ok = elapsed <= 120.0
    ok = all(monotone) and final_ok and slope_ok and time_ok
    _report_line(
        5, "sphere convergence", ok,
        f"[k-medians {np.round(k_medians, 4).tolist()}, monotone {monotone}, "
        f"final<=5% {final_ok}, slope {slope:.2f}, {elapsed:.1f}s]",
    )
    assert final_ok, f"final kappa medians {k_medians[-1]} exceed 5%"
    assert slope_ok, f"slope {slope:.2f} outside [1.7, 2.3]"
    assert time_ok, f"runtime {elapsed:.1f}s exceeds 120s"
    assert all(monotone), (
        f"kappa error medians not monotone: {k_medians.tolist()}; "
        "see notes/decisions.md for the measured per-row medians"
    )


def test_criterion_6_torus_sign_structure():
    t0 = time.perf_counter()
    torus = vc.Torus(2.0, 0.5)
    sample = torus.sample(64000, seed=RNG_SEED)
    neighbors = NeighborIndex(sample.cloud.positions).resolve_all(NeighborQuery.knn(40))
    rep = curvature_report(sample.cloud, neighbors)
    strong = np.abs(sample.gauss) > 0.1
    usable = strong & np.isfinite(rep.gauss)
    frac = float(
        np.mean(np.sign(rep.gauss[usable]) == np.sign(sample.gauss[usable]))
    )
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.95 and elapsed <= 120.0
    _report_line(6, "torus sign structure", ok,
                 f"[sign match {frac:.4f} on {usable.sum()} points, "
                 f"{elapsed:.1f}s]")
    assert frac >= 0.95
    assert elapsed <= 120.0


def test_criterion_7_cube_noise_robustness():
    t0 = time.perf_counter()
    cube = vc.Cube(1.0)
    fractions = {}
    for sigma, k in ((0.01, 40), (0.05, 150)):
        sample = cube.sample(21602, noise_sigma=sigma, seed=RNG_SEED)
        positions = sample.cloud.positions
        neighbors = NeighborIndex(positions).resolve_all(NeighborQuery.knn(k))
        est = estimate_tangent_planes(sample.cloud.positions, neighbors, 2)
        cloud = vc.validate_cloud(
            sample.cloud.positions, est.planes, sample.cloud.masses, 2
        )
        rep = curvature_report(cloud, neighbors, ambiguous=est.ambiguous)
        eps_med = float(np.median(rep.eps))
        # ribbon of total width 2*eps around the edge lines; interiors keep
        # a 3*eps guard band
        ribbon = sample.edge_distance <= eps_med
        interior = sample.edge_distance > 3.0 * eps_med
        threshold = np.nanpercentile(rep.abs_sum[ribbon], 25)
        fractions[sigma] = float(np.nanmean(rep.abs_sum[interior] < threshold))
    elapsed = time.perf_counter() - t0
    ok = fractions[0.01] >= 0.90 and elapsed <= 120.0
    _report_line(7, "cube noise robustness", ok,
                 f"[interior-below-ribbon fraction: sigma=0.01 -> "
                 f"{fractions[0.01]:.4f}, sigma=0.05 -> {fractions[0.05]:.4f}, "
                 f"{elapsed:.1f}s]")
    assert fractions[0.01] >= 0.90
    assert elapsed <= 120.0


def test_criterion_8_equivariance_and_scaling():
    rng = np.random.default_rng(RNG_SEED + 8)
    sample = vc.Sphere(1.0).sample(2000, seed=RNG_SEED)
    cloud = sample.cloud
    eps = 0.3
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    shift = rng.standard_normal(3)
    moved = vc.validate_cloud(
        cloud.positions @ q.T + shift,
        np.einsum("ab,lbc,dc->lad", q, cloud.planes, q),
        cloud.masses, 2,
    )
    doubled = vc.validate_cloud(
        cloud.positions * 2.0, cloud.planes, cloud.masses, 2
    )
    worst_rigid = worst_scale = 0.0
    def kappas_at(c, l0, eps):
        idx = ball(c, c.positions[l0], eps)
        pc = point_curvature(c, [l0], scale=eps, idx=idx, counts=[idx.size])
        return pc.kappas[0]

    for l0 in range(0, 2000, 100):
        k_base = kappas_at(cloud, l0, eps)
        k_move = kappas_at(moved, l0, eps)
        if k_base.sum() * k_move.sum() < 0:
            k_move = -k_move[::-1]
        worst_rigid = max(worst_rigid, float(np.max(np.abs(k_base - k_move))))
        k_doubled = kappas_at(doubled, l0, 2 * eps)
        worst_scale = max(
            worst_scale, float(np.max(np.abs(k_doubled - 0.5 * k_base)))
        )
    ok = worst_rigid <= 1e-9 and worst_scale <= 1e-9
    _report_line(8, "equivariance and scaling", ok,
                 f"[rigid-motion gap {worst_rigid:.2e}, "
                 f"dilation gap {worst_scale:.2e}]")
    assert worst_rigid <= 1e-9
    assert worst_scale <= 1e-9


def test_criterion_9_cli_determinism(tmp_path):
    from varicurv.cli import main

    args = ["run", "--shape", "sphere", "--n-points", "1500",
            "--seed", "42", "--k", "40"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(out_a)]) == 0
    assert main(args + ["--csv", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    xyz = tmp_path / "cloud.xyz"
    sample = vc.Sphere(1.0).sample(800, seed=42)
    vc.io.write_xyz(xyz, sample.cloud.positions)
    file_args = ["run", "--input", str(xyz), "--d", "2", "--k", "30"]
    out_c, out_d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(file_args + ["--csv", str(out_c)]) == 0
    assert main(file_args + ["--csv", str(out_d)]) == 0
    identical_file = out_c.read_bytes() == out_d.read_bytes()
    ok = identical and identical_file
    _report_line(9, "cli determinism", ok,
                 f"[shape rerun identical: {identical}, "
                 f"file rerun identical: {identical_file}]")
    assert identical and identical_file
