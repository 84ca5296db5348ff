import numpy as np
import pytest

import varicurv as vc
from varicurv.cli import main


def run_cli(*args):
    return main(list(args))


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

    def test_kernel_selection(self, tmp_path):
        out = tmp_path / "tent.csv"
        code = run_cli("run", "--shape", "sphere", "--n-points", "500",
                       "--seed", "1", "--kernel", "tent", "--csv", str(out))
        assert code == 0
        assert run_cli("run", "--shape", "sphere", "--n-points", "500",
                       "--seed", "1", "--kernel", "gaussian",
                       "--csv", str(out)) == 1

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

    def test_ply_normals_used_as_planes(self, tmp_path):
        sample = vc.Sphere(1.0).sample(600, seed=5)
        ply = tmp_path / "sphere.ply"
        vc.io.write_ply(ply, sample.cloud.positions, normals=sample.normals)
        out = tmp_path / "s.csv"
        code = run_cli("run", "--input", str(ply), "--format", "ply",
                       "--d", "2", "--csv", str(out))
        assert code == 0

    def test_missing_file_exit_code(self, tmp_path):
        assert run_cli("run", "--input", str(tmp_path / "nope.xyz"),
                       "--d", "2", "--csv", str(tmp_path / "o.csv")) == 1

    def test_malformed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("1 2 3\noops\n")
        assert run_cli("run", "--input", str(bad), "--d", "2",
                       "--csv", str(tmp_path / "o.csv")) == 1

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
        assert run_cli("run", "--input", str(ply), "--format", "ply",
                       "--csv", str(tmp_path / "o.csv")) == 1
        assert capsys.readouterr().err.startswith("error: line 3:")
        assert not (tmp_path / "o.csv").exists()

    def test_zero_normal_exit_code(self, tmp_path, capsys):
        sample = vc.Torus(2.0, 0.5).sample(200, seed=4)
        normals = sample.normals.copy()
        normals[6] = 0.0
        ply = tmp_path / "torus.ply"
        vc.io.write_ply(ply, sample.cloud.positions, normals=normals)
        capsys.readouterr()
        assert run_cli("run", "--input", str(ply), "--format", "ply",
                       "--k", "10", "--csv", str(tmp_path / "o.csv")) == 1
        # ten header lines, then the seventh vertex line
        assert capsys.readouterr().err.startswith("error: line 17:")
        assert not (tmp_path / "o.csv").exists()

    def test_dimension_mismatch(self, tmp_path):
        xyz = tmp_path / "c.xyz"
        xyz.write_text("1 2 3\n4 5 6\n")
        assert run_cli("run", "--input", str(xyz), "--d", "2", "--n", "4",
                       "--csv", str(tmp_path / "o.csv")) == 1

    def test_requires_input_or_shape(self, tmp_path):
        assert run_cli("run", "--csv", str(tmp_path / "o.csv")) == 1

    def test_exact_tangents_need_source(self, tmp_path):
        xyz = tmp_path / "c.xyz"
        xyz.write_text("".join(f"{i} {i % 3} 0\n" for i in range(20)))
        assert run_cli("run", "--input", str(xyz), "--d", "2",
                       "--tangent-mode", "exact",
                       "--csv", str(tmp_path / "o.csv")) == 1

    def test_numeric_fatal_exit_code(self, tmp_path):
        # collinear points cannot support a rank-2 tangent estimate
        xyz = tmp_path / "line.xyz"
        xyz.write_text("".join(f"{0.1 * i} 0 0\n" for i in range(30)))
        assert run_cli("run", "--input", str(xyz), "--d", "2",
                       "--csv", str(tmp_path / "o.csv")) == 2


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

    def test_requires_output(self):
        assert run_cli("sample", "--shape", "sphere", "--n-points", "100") == 1
