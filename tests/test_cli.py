import argparse
import inspect

import numpy as np
import pytest
from scipy.spatial import cKDTree

import varicurv as vc
from varicurv import estimator
from varicurv.cli import _build_shape, build_parser, main
from varicurv.errors import InvalidInputError
from varicurv.estimator import NeighborIndex
from varicurv.kernels import PROFILES
from varicurv.shapes import SHAPES


def run_cli(*args):
    return main(list(args))


def csv_status(path):
    """The status column of a CSV report, header excluded."""
    return [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]


class TestRunFromShape:
    def test_sphere_defaults_csv(self, tmp_path):
        out = tmp_path / "sphere.csv"
        code = run_cli(
            "run", "--shape", "sphere", "--radius", "1.0",
            "--n-points", "2000", "--seed", "42", "--csv", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,x0,x1,x2,k1,k2,gauss,abs_sum,mean_norm,status"
        assert len(lines) == 2001
        gauss = np.array([float(l.split(",")[6]) for l in lines[1:]])
        assert np.median(np.abs(gauss - 1.0)) < 0.2

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--shape", "sphere", "--n-points", "500",
                "--seed", "7", "--k", "20"]
        assert run_cli(*args, "--csv", str(a)) == 0
        assert run_cli(*args, "--csv", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_tangent_modes(self, tmp_path, name):
        # auto takes the planes of the sample's exact normals, so the run is
        # the library's report on the sample's own cloud; estimated fits the
        # planes to the positions alone, as a run on them as xyz does
        args = ["run", "--shape", name, "--n-points", "1000", "--seed", "3"]
        auto, est, lib, pos = (tmp_path / f"{k}.csv"
                               for k in ("auto", "est", "lib", "pos"))
        assert run_cli(*args, "--csv", str(auto)) == 0
        assert run_cli(*args, "--tangent-mode", "estimated", "--csv", str(est)) == 0
        sample = SHAPES[name]().sample(1000, seed=3)
        positions = sample.cloud.positions
        neighbors = NeighborIndex(positions).resolve_all(vc.NeighborQuery.knn(40))
        vc.io.write_report_csv(lib, positions,
                               vc.curvature_report(sample.cloud, neighbors))
        xyz = tmp_path / "cloud.xyz"
        np.savetxt(xyz, positions, fmt="%.17g")  # every bit, unlike --xyz's 9 digits
        assert run_cli("run", "--input", str(xyz), "--csv", str(pos)) == 0
        assert auto.read_bytes() == lib.read_bytes()
        assert est.read_bytes() == pos.read_bytes()

    def test_kernel_selection(self, tmp_path):
        out = tmp_path / "tent.csv"
        code = run_cli("run", "--shape", "sphere", "--n-points", "500",
                       "--seed", "1", "--kernel", "tent", "--csv", str(out))
        assert code == 0
        assert run_cli("run", "--shape", "sphere", "--n-points", "500",
                       "--seed", "1", "--kernel", "gaussian",
                       "--csv", str(out)) == 1

    def test_d_defaults_to_shape_dimension(self, tmp_path, capsys):
        # a circle is a curve: no --d needed, and a --d that differs is refused
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--shape", "circle", "--n-points", "500"]
        assert run_cli(*args, "--csv", str(a)) == 0
        assert run_cli(*args, "--d", "1", "--csv", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        assert run_cli(*args, "--d", "2", "--csv", str(tmp_path / "c.csv")) == 1
        assert capsys.readouterr().err == (
            "error: --d 2 does not match shape dimension 1\n"
        )
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("command, flag", [("run", "--csv"), ("sample", "--xyz")])
    def test_sampling_defaults(self, tmp_path, command, flag):
        # --n-points, --noise and --seed left out take 10000, 0 and 42
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        args = [command, "--shape", "circle"]
        assert run_cli(*args, flag, str(a)) == 0
        assert run_cli(*args, "--n-points", "10000", "--noise", "0", "--seed", "42",
                       flag, str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mass_and_color_defaults(self, tmp_path):
        # --n-mass left out under nmass takes 8, and --quantity with --ply
        # takes gauss
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["run", "--shape", "sphere", "--n-points", "400", "--mass-mode", "nmass"]
        assert run_cli(*args, "--csv", f"{a}.csv", "--ply", f"{a}.ply") == 0
        assert run_cli(*args, "--n-mass", "8", "--quantity", "gauss",
                       "--csv", f"{b}.csv", "--ply", f"{b}.ply") == 0
        for ext in ("csv", "ply"):
            assert (tmp_path / f"a.{ext}").read_bytes() == \
                (tmp_path / f"b.{ext}").read_bytes()

    def test_ply_output(self, tmp_path):
        out = tmp_path / "sphere.ply"
        code = run_cli(
            "run", "--shape", "sphere", "--n-points", "400", "--seed", "1",
            "--quantity", "gauss", "--ply", str(out),
        )
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0] == "ply"
        assert any("property uchar red" in l for l in text[:12])


class TestUsage:
    @pytest.mark.parametrize("args, named", [
        (["--mass-mode", "foo"], "'foo'"),
        (["--mass-mode", "rd"], "'rd'"),
        (["--k", "x"], "'x'"),
        (["--kernel", "box"], "'box'"),
        (["--epsilon", "nan"], "epsilon=nan"),
        (["--epsilon", "inf"], "epsilon=inf"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
        (["--noise", "-0.5"], "got -0.5"),
        (["--noise", "nan"], "got nan"),
        (["--radius", "nan"], "radius must be positive and finite, got nan"),
        # the last --shape given wins over the leading sphere
        (["--shape", "cube", "--side", "inf"], "side must be positive and finite, got inf"),
        (["--shape", "klein"], "'klein'"),
        (["--k", "0"], "knn mode needs k >= 1 and no epsilon, got k=0"),
        (["--n-points", "5"], "need at least 10 sample points, got 5"),
        # options the run would not use: no nmass masses, no ply
        (["--n-mass", "3"], "--n-mass 3 needs --mass-mode nmass"),
        (["--quantity", "k2"], "--quantity k2 needs --ply"),
    ])
    def test_bad_value_exit_code(self, tmp_path, capsys, args, named):
        # argparse's usage errors are bad input (exit 1), not exit 2, which
        # means a broken numeric invariant
        out = tmp_path / "o.csv"
        capsys.readouterr()
        assert run_cli("run", "--shape", "sphere", "--n-points", "300", *args,
                       "--csv", str(out)) == 1
        err = capsys.readouterr().err
        assert any("error:" in line and named in line for line in err.splitlines())
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["run", "--shape", "sphere", "--side", "inf"],
         "shape sphere takes no --side inf"),
        (["sample", "--shape", "sphere", "--side", "inf"],
         "shape sphere takes no --side inf"),
        (["run", "--shape", "torus", "--radius", "1", "--height", "2"],
         "shape torus takes no --height 2.0, --radius 1.0"),
        (["run", "--input", "{xyz}", "--seed", "-1", "--noise", "nan",
          "--radius", "nan"],
         "--input takes no shape options, got --noise nan, --seed -1, --radius nan"),
        (["run", "--input", "{xyz}", "--n-points", "500"],
         "--input takes no shape options, got --n-points 500"),
    ])
    def test_unused_shape_option_exit_code(self, tmp_path, capsys, args, message):
        # an option the run would not use is refused and named, and
        # nothing is written
        xyz = tmp_path / "cube.xyz"
        vc.io.write_xyz(xyz, vc.Cube(1.0).sample(300, seed=1).cloud.positions)
        out = tmp_path / "o.out"
        flag = "--csv" if args[0] == "run" else "--xyz"
        args = [str(xyz) if a == "{xyz}" else a for a in args]
        capsys.readouterr()
        assert run_cli(*args, flag, str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_help_exit_code(self, capsys):
        assert run_cli("--help") == 0
        assert run_cli("run", "--help") == 0
        assert "--mass-mode {uniform,nmass}" in capsys.readouterr().out


class TestRunFromFile:
    def test_plane_xyz_gauss_near_zero(self, tmp_path):
        sample = vc.PlanePatch(1.0).sample(900, seed=3)
        xyz = tmp_path / "plane.xyz"
        vc.io.write_xyz(xyz, sample.cloud.positions)
        out = tmp_path / "plane.csv"
        code = run_cli("run", "--input", str(xyz), "--d", "2",
                       "--csv", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        gauss = np.array([float(r.split(",")[6]) for r in rows])
        assert np.nanmax(np.abs(gauss)) < 1e-8

    def test_d_defaults_to_columns_minus_one(self, tmp_path):
        xyz = tmp_path / "circle.xyz"
        vc.io.write_xyz(xyz, vc.Circle(1.0).sample(500, seed=1).cloud.positions)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("run", "--input", str(xyz), "--csv", str(a)) == 0
        assert run_cli("run", "--input", str(xyz), "--d", "1",
                       "--csv", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_one_column_file_message(self, tmp_path, capsys):
        # without --d a 1-column file has no d = n - 1 >= 1 to default to
        xyz = tmp_path / "one.xyz"
        xyz.write_text("1\n2\n3\n4\n")
        out = tmp_path / "one.csv"
        assert run_cli("run", "--input", str(xyz), "--csv", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: a 1-column file holds no curve or surface of codimension 1\n")
        assert run_cli("run", "--input", str(xyz), "--d", "1",
                       "--csv", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: the scalar curvature pipeline needs codimension 1 (d = n-1)\n")
        assert not out.exists()

    def test_estimated_tangents_resolve_neighbors_once(self, tmp_path):
        # the tangent estimate, the masses and the report share one tree
        # and one resolution
        sample = vc.Cube(1.0).sample(600, noise_sigma=0.01, seed=2)
        xyz = tmp_path / "cube.xyz"
        vc.io.write_xyz(xyz, sample.cloud.positions)
        real_resolve = NeighborIndex.resolve_all
        calls = []
        trees = []

        def counting_resolve(self, query):
            calls.append(query)
            return real_resolve(self, query)

        def counting_tree(positions):
            trees.append(positions)
            return cKDTree(positions)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(NeighborIndex, "resolve_all", counting_resolve)
            mp.setattr(estimator, "cKDTree", counting_tree)
            code = run_cli("run", "--input", str(xyz), "--k", "16",
                           "--mass-mode", "nmass", "--csv", str(tmp_path / "c.csv"))
        assert code == 0
        assert len(calls) == 1
        assert len(trees) == 1

    def test_ply_normals_used_as_planes(self, tmp_path):
        sample = vc.Sphere(1.0).sample(600, seed=5)
        ply = tmp_path / "sphere.ply"
        vc.io.write_ply(ply, sample.cloud.positions, normals=sample.normals)
        out = tmp_path / "s.csv"
        code = run_cli("run", "--input", str(ply), "--d", "2", "--csv", str(out))
        assert code == 0

    def test_estimated_tangents_ignore_normals(self, tmp_path):
        # --tangent-mode estimated fits planes to the positions alone: the
        # ply run equals the run on the same positions as xyz, and differs
        # from the auto run on the ply's normals
        sample = vc.Torus(2.0, 0.5).sample(500, seed=6)
        ply, xyz = tmp_path / "torus.ply", tmp_path / "torus.xyz"
        vc.io.write_ply(ply, sample.cloud.positions, normals=sample.normals)
        vc.io.write_xyz(xyz, sample.cloud.positions)
        est, pos, auto = (tmp_path / f"{k}.csv" for k in ("est", "pos", "auto"))
        assert run_cli("run", "--input", str(ply), "--tangent-mode", "estimated",
                       "--csv", str(est)) == 0
        assert run_cli("run", "--input", str(xyz), "--csv", str(pos)) == 0
        assert run_cli("run", "--input", str(ply), "--csv", str(auto)) == 0
        assert est.read_bytes() == pos.read_bytes()
        assert est.read_bytes() != auto.read_bytes()

    @pytest.mark.parametrize("normal", ["1e200 0.3 -0.2", "1e-170 0 0"])
    def test_ply_normal_of_any_size(self, tmp_path, normal):
        # io returns unit normals: a normal whose squared length overflows
        # or underflows is read without a warning, and the tiny one runs as
        # "1 0 0" does
        sample = vc.Torus(2.0, 0.5).sample(500, seed=4)
        ply = tmp_path / "torus.ply"
        vc.io.write_ply(ply, sample.cloud.positions, normals=sample.normals)
        lines = ply.read_text().splitlines(keepends=True)

        def with_normal(nx_ny_nz, path):
            # ten header lines, then the second vertex line
            fields = lines[11].split()
            lines[11] = " ".join(fields[:3] + nx_ny_nz.split()) + "\n"
            path.write_text("".join(lines))
            return path

        out, unit = tmp_path / "o.csv", tmp_path / "u.csv"
        assert run_cli("run", "--input", str(with_normal(normal, ply)),
                       "--csv", str(out)) == 0
        if normal == "1e-170 0 0":
            assert run_cli("run", "--input",
                           str(with_normal("1 0 0", tmp_path / "unit.ply")),
                           "--csv", str(unit)) == 0
            assert out.read_bytes() == unit.read_bytes()

    def test_uniform_mass_mode(self, tmp_path):
        # uniform masses are all ones: the CSV equals the library's report
        # on a cloud of unit masses
        sample = vc.Cube(1.0).sample(600, noise_sigma=0.01, seed=2)
        xyz = tmp_path / "cube.xyz"
        vc.io.write_xyz(xyz, sample.cloud.positions)
        out = tmp_path / "u.csv"
        assert run_cli("run", "--input", str(xyz), "--k", "16",
                       "--mass-mode", "uniform", "--csv", str(out)) == 0
        positions = vc.io.read_xyz(xyz)
        neighbors = NeighborIndex(positions).resolve_all(vc.NeighborQuery.knn(16))
        est = estimator.estimate_tangent_planes(positions, neighbors, 2)
        cloud = vc.validate_cloud(positions, est.planes, np.ones(600), 2)
        report = vc.curvature_report(cloud, neighbors, ambiguous=est.ambiguous)
        want = tmp_path / "lib.csv"
        vc.io.write_report_csv(want, positions, report)
        assert out.read_bytes() == want.read_bytes()

    def test_ply_output_checked_before_run(self, tmp_path, capsys):
        # ply output needs 3-d positions: a 4-d input is refused before any
        # estimation, and no CSV is left behind
        xyz = tmp_path / "c4.xyz"
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (300, 4))
        vc.io.write_xyz(xyz, pts)
        out = tmp_path / "o.csv"
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "cKDTree", None)  # any estimation would fail
            assert run_cli("run", "--input", str(xyz), "--d", "3", "--k", "10",
                           "--csv", str(out), "--ply", str(tmp_path / "o.ply")) == 1
        assert capsys.readouterr().err == (
            "error: ply output needs 3-dimensional positions\n"
        )
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert run_cli("run", "--input", str(tmp_path / "nope.xyz"),
                       "--d", "2", "--csv", str(tmp_path / "o.csv")) == 1

    def test_malformed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("1 2 3\noops\n")
        assert run_cli("run", "--input", str(bad), "--d", "2",
                       "--csv", str(tmp_path / "o.csv")) == 1

    def test_non_text_file_exit_code(self, tmp_path, capsys):
        # bytes that are not UTF-8 text: an error line, not a traceback
        bad = tmp_path / "bad.xyz"
        bad.write_bytes(b"\xff\xfe1 2 3\n")
        capsys.readouterr()
        assert run_cli("run", "--input", str(bad),
                       "--csv", str(tmp_path / "o.csv")) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_coordinate_exit_code(self, tmp_path, capsys, bad):
        xyz = tmp_path / "c.xyz"
        rows = [f"{i} {i % 3} {i % 2}" for i in range(11)]
        rows[4] = f"4 {bad} 0"
        xyz.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run_cli("run", "--input", str(xyz), "--k", "5",
                       "--csv", str(tmp_path / "o.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 5" in err
        assert not (tmp_path / "o.csv").exists()

    def test_malformed_ply_header_exit_code(self, tmp_path, capsys):
        ply = tmp_path / "c.ply"
        ply.write_text("ply\nformat ascii 1.0\nelement vertex abc\n"
                       "property float x\nproperty float y\nproperty float z\n"
                       "end_header\n")
        capsys.readouterr()
        assert run_cli("run", "--input", str(ply),
                       "--csv", str(tmp_path / "o.csv")) == 1
        assert capsys.readouterr().err.startswith("error: line 3:")
        assert not (tmp_path / "o.csv").exists()

    def test_empty_ply_exit_code(self, tmp_path, capsys):
        ply = tmp_path / "c.ply"
        ply.write_text("ply\nformat ascii 1.0\nelement vertex 0\n"
                       "property float x\nproperty float y\nproperty float z\n"
                       "end_header\n")
        capsys.readouterr()
        assert run_cli("run", "--input", str(ply),
                       "--csv", str(tmp_path / "o.csv")) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 3: no points found in ply file")
        assert not (tmp_path / "o.csv").exists()

    def test_colored_ply_reads_back(self, tmp_path, capsys):
        # a flagged point's quality is written as nan; the output of one
        # run is the input of the next
        sample = vc.Sphere(1.0).sample(200, seed=3)
        xyz = tmp_path / "far.xyz"
        vc.io.write_xyz(xyz, np.vstack([sample.cloud.positions, [[5.0, 5.0, 5.0]]]))
        ply = tmp_path / "far.ply"
        assert run_cli("run", "--input", str(xyz), "--epsilon", "0.5",
                       "--csv", str(tmp_path / "a.csv"), "--ply", str(ply)) == 0
        assert ply.read_text().splitlines()[-1].endswith(" nan")
        out = tmp_path / "b.csv"
        assert run_cli("run", "--input", str(ply), "--epsilon", "0.5",
                       "--csv", str(out)) == 0
        assert (tmp_path / "a.csv").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("magic", ["ply\r\n", "ply  \n", "plyx\n"])
    def test_first_line_picks_reader(self, tmp_path, capsys, magic):
        # the stripped first line 'ply' picks the ply reader, anything else xyz
        sample = vc.Sphere(1.0).sample(100, seed=2)
        ply = tmp_path / "c.ply"
        vc.io.write_ply(ply, sample.cloud.positions, normals=sample.normals)
        ply.write_bytes(magic.encode() + ply.read_bytes().split(b"\n", 1)[1])
        out = tmp_path / "o.csv"
        capsys.readouterr()
        code = run_cli("run", "--input", str(ply), "--k", "10", "--csv", str(out))
        if magic == "plyx\n":
            assert code == 1
            assert capsys.readouterr().err.startswith("error: line 1: bad float")
            assert not out.exists()
        else:
            assert code == 0
            assert len(csv_status(out)) == 100

    def test_zero_normal_exit_code(self, tmp_path, capsys):
        sample = vc.Torus(2.0, 0.5).sample(200, seed=4)
        normals = sample.normals.copy()
        normals[6] = 0.0
        ply = tmp_path / "torus.ply"
        vc.io.write_ply(ply, sample.cloud.positions, normals=normals)
        capsys.readouterr()
        assert run_cli("run", "--input", str(ply), "--k", "10",
                       "--csv", str(tmp_path / "o.csv")) == 1
        # ten header lines, then the seventh vertex line
        assert capsys.readouterr().err.startswith("error: line 17:")
        assert not (tmp_path / "o.csv").exists()

    def test_dimension_mismatch(self, tmp_path, capsys):
        # the column count is the ambient dimension: --n and --format are
        # no options of run
        xyz = tmp_path / "c.xyz"
        xyz.write_text("".join(f"{i} {i % 3} {i % 2}\n" for i in range(20)))
        out = tmp_path / "o.csv"
        for removed in (["--n", "3"], ["--format", "xyz"], ["--format", "ply"]):
            capsys.readouterr()
            assert run_cli("run", "--input", str(xyz), "--d", "2", *removed,
                           "--csv", str(out)) == 1
            assert removed[0] in capsys.readouterr().err
            assert not out.exists()

    def test_requires_input_or_shape(self, tmp_path):
        assert run_cli("run", "--csv", str(tmp_path / "o.csv")) == 1

    def test_exact_tangents_need_source(self, tmp_path, capsys):
        # "exact" is what "auto" does with a shape or ply normals: no mode
        sample = vc.Sphere(1.0).sample(300, seed=5)
        ply = tmp_path / "sphere.ply"
        vc.io.write_ply(ply, sample.cloud.positions, normals=sample.normals)
        out = tmp_path / "o.csv"
        for source in (["--input", str(ply)], ["--shape", "sphere"]):
            capsys.readouterr()
            assert run_cli("run", *source, "--tangent-mode", "exact",
                           "--csv", str(out)) == 1
            assert "'exact'" in capsys.readouterr().err
            assert not out.exists()

    def test_zero_knn_radius(self, tmp_path, capsys):
        # 46 copies of point 0 give each of them a k-th neighbor at distance
        # 0: with estimated tangents or ply normals alike, they are isolated
        sample = vc.Sphere(1.0).sample(2000, seed=2)
        keep = np.r_[np.arange(2000), np.zeros(45, dtype=int)]
        xyz = tmp_path / "dup.xyz"
        vc.io.write_xyz(xyz, sample.cloud.positions[keep])
        out_xyz = tmp_path / "x.csv"
        capsys.readouterr()
        assert run_cli("run", "--input", str(xyz), "--k", "40",
                       "--csv", str(out_xyz)) == 0
        assert capsys.readouterr().err == (
            "warning: 46 points flagged (isolated or ambiguous tangent)\n"
        )

        ply = tmp_path / "dup.ply"
        vc.io.write_ply(ply, sample.cloud.positions[keep],
                        normals=sample.normals[keep])
        out = tmp_path / "p.csv"
        assert run_cli("run", "--input", str(ply), "--k", "40",
                       "--csv", str(out)) == 0
        status = csv_status(out)
        assert status.count("isolated") == 46
        assert csv_status(out_xyz) == status

    def test_zero_mass_radius_exit_code(self, tmp_path, capsys):
        # the same 46 copies under --mass-mode nmass, and --n-mass 1 on any
        # cloud, leave a mass radius of 0: bad input, named with its point
        sample = vc.Sphere(1.0).sample(2000, seed=2)
        keep = np.r_[np.arange(2000), np.zeros(45, dtype=int)]
        dup, clean = tmp_path / "dup.xyz", tmp_path / "clean.xyz"
        vc.io.write_xyz(dup, sample.cloud.positions[keep])
        vc.io.write_xyz(clean, sample.cloud.positions)
        for xyz, n_mass in ((dup, "8"), (clean, "1")):
            capsys.readouterr()
            assert run_cli("run", "--input", str(xyz), "--mass-mode", "nmass",
                           "--n-mass", n_mass, "--csv", str(tmp_path / "o.csv")) == 1
            assert capsys.readouterr().err == (
                f"error: mass radius is zero at point 0: at least --n-mass = "
                f"{n_mass} points sit at its location; --n-mass must exceed "
                f"the number of coincident points\n"
            )
            assert not (tmp_path / "o.csv").exists()

    def test_n_mass_past_point_count_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        capsys.readouterr()
        assert run_cli("run", "--shape", "sphere", "--n-points", "50",
                       "--mass-mode", "nmass", "--n-mass", "80",
                       "--csv", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: --n-mass = 80 is outside 1..50, the number of points\n"
        )
        assert not out.exists()

    def test_k_past_point_count_exit_code(self, tmp_path, capsys):
        # a point of N has N - 1 others, so k >= N is bad input: the default
        # k = 40 on a 10-point shape, and --k 500 on a 50-point file
        xyz = tmp_path / "small.xyz"
        vc.io.write_xyz(xyz, vc.Sphere(1.0).sample(50, seed=1).cloud.positions)
        out = tmp_path / "o.csv"
        for source, k, n_pts in ((("--shape", "sphere", "--n-points", "10"), (), 10),
                                 (("--input", str(xyz)), ("--k", "500"), 50)):
            capsys.readouterr()
            assert run_cli("run", *source, *k, "--csv", str(out)) == 1
            k_value = int(k[1]) if k else 40
            assert capsys.readouterr().err == (
                f"error: k = {k_value} is outside 1..{n_pts - 1}: each of the "
                f"{n_pts} points has {n_pts - 1} others\n"
            )
            assert not out.exists()
        assert run_cli("run", "--input", str(xyz), "--k", "49", "--csv", str(out)) == 0

    def test_numeric_fatal_exit_code(self, tmp_path):
        # collinear points cannot support a rank-2 tangent estimate: every
        # point is flagged, and the run goes on
        xyz = tmp_path / "line.xyz"
        xyz.write_text("".join(f"{0.1 * i} 0 0\n" for i in range(30)))
        out = tmp_path / "o.csv"
        assert run_cli("run", "--input", str(xyz), "--d", "2", "--k", "10",
                       "--csv", str(out)) == 0
        assert csv_status(out) == ["ambiguous_tangent"] * 30

    def test_radius_outlier_flagged(self, tmp_path, capsys):
        # an outlier 0.9 eps off the sphere holds one other point in its
        # eps-ball: its row alone is flagged, the run goes on
        sample = vc.Sphere(1.0).sample(2000, seed=3)
        pts = sample.cloud.positions
        outlier = pts[0] * (1.0 + 0.9 * 0.15)
        assert cKDTree(pts).query_ball_point(outlier, 0.15) == [0]
        xyz = tmp_path / "outlier.xyz"
        vc.io.write_xyz(xyz, np.vstack([pts, outlier]))
        out = tmp_path / "o.csv"
        capsys.readouterr()
        assert run_cli("run", "--input", str(xyz), "--epsilon", "0.15",
                       "--csv", str(out)) == 0
        assert capsys.readouterr().err == (
            "warning: 1 points flagged (isolated or ambiguous tangent)\n"
        )
        assert csv_status(out) == ["ok"] * 2000 + ["ambiguous_tangent"]

    def test_trace_identity_exit_code(self, tmp_path, capsys):
        # a variation tensor that breaks sum_q t_iqq = d * H_i in one row is
        # a broken invariant, not bad input; the engine forms its tensors
        # from the chunk's block with _variation_sums
        real = estimator._variation_sums

        def broken(*args, **kwargs):
            t = real(*args, **kwargs)
            t[0, 0, 1, 1] += 1.0
            return t

        capsys.readouterr()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_variation_sums", broken)
            assert run_cli("run", "--shape", "sphere", "--n-points", "500",
                           "--csv", str(tmp_path / "o.csv")) == 2
        assert capsys.readouterr().err.startswith(
            "numeric error: trace identity sum_q t_iqq = d * H_i violated; "
            "tensor did not come from a rank-d cloud at row 0\n"
        )
        assert not (tmp_path / "o.csv").exists()


class TestSample:
    def test_writes_xyz(self, tmp_path):
        out = tmp_path / "torus.xyz"
        code = run_cli("sample", "--shape", "torus", "--n-points", "200",
                       "--seed", "2", "--xyz", str(out))
        assert code == 0
        assert vc.io.read_xyz(out).shape == (200, 3)

    def test_writes_ply_with_normals(self, tmp_path):
        out = tmp_path / "cube.ply"
        code = run_cli("sample", "--shape", "cube", "--n-points", "300",
                       "--seed", "2", "--ply", str(out))
        assert code == 0
        pts, normals = vc.io.read_ply(out)
        assert pts.shape == (300, 3)
        assert normals is not None

    @pytest.mark.parametrize("args", [["--seed", "-1"], ["--shape", "klein"],
                                      ["--n-points", "5"]])
    def test_bad_value_exit_code(self, tmp_path, capsys, args):
        out = tmp_path / "o.xyz"
        assert run_cli("sample", "--shape", "sphere", *args, "--xyz", str(out)) == 1
        err = capsys.readouterr().err
        assert any("error:" in line and args[-1] in line for line in err.splitlines())
        assert not out.exists()

    def test_requires_output(self):
        assert run_cli("sample", "--shape", "sphere", "--n-points", "100") == 1


def subcommand_actions(command):
    """The options of ``varicurv <command>`` by destination."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


# a non-default value for every shape parameter
SHAPE_OPTIONS = {"radius": 1.5, "r_major": 3.0, "r_minor": 1.0, "height": 3.0,
                 "side": 2.0}


class TestTables:
    @pytest.mark.parametrize("command", ["run", "sample"])
    def test_options_come_from_the_tables(self, command):
        actions = subcommand_actions(command)
        assert actions["shape"].choices == sorted(SHAPES)
        for cls in SHAPES.values():
            for name in inspect.signature(cls).parameters:
                assert actions[name].option_strings == ["--" + name.replace("_", "-")]
        if command == "run":
            assert actions["kernel"].choices == sorted(PROFILES)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shape_built_as_by_its_constructor(self, name):
        cls = SHAPES[name]
        own = {k: SHAPE_OPTIONS[k] for k in inspect.signature(cls).parameters}
        options = [f"--{k.replace('_', '-')}={v}" for k, v in own.items()]
        for command in ("run", "sample"):
            built = _build_shape(build_parser().parse_args(
                [command, "--shape", name, *options]))
            assert type(built) is cls and vars(built) == vars(cls(**own))
            # another shape's parameter is refused, not dropped
            other = next(k for k in SHAPE_OPTIONS if k not in own)
            other = "--" + other.replace("_", "-")
            with pytest.raises(InvalidInputError, match=f"takes no {other} 1.0"):
                _build_shape(build_parser().parse_args(
                    [command, "--shape", name, *options, other, "1"]))
            # an option not given leaves the constructor's default
            default = _build_shape(build_parser().parse_args([command, "--shape", name]))
            assert vars(default) == vars(cls())
