import numpy as np
import pytest

import varicurv.io as vio
from varicurv.errors import FileFormatError


class TestXyz:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 3))
        path = tmp_path / "cloud.xyz"
        vio.write_xyz(path, pts)
        back = vio.read_xyz(path)
        assert np.max(np.abs(back - pts)) < 1e-6

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n1 2 3\n\n4 5 6  # trailing\n")
        pts = vio.read_xyz(path)
        assert pts.shape == (2, 3)
        assert np.allclose(pts[1], [4, 5, 6])

    def test_higher_dimension(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3 4\n5 6 7 8\n")
        assert vio.read_xyz(path).shape == (2, 4)

    def test_ragged_line_reports_number(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(FileFormatError) as err:
            vio.read_xyz(path)
        assert err.value.line == 2

    def test_bad_float_reports_number(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n4 five 6\n")
        with pytest.raises(FileFormatError) as err:
            vio.read_xyz(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_reports_number(self, tmp_path, bad):
        path = tmp_path / "c.xyz"
        path.write_text(f"1 2 3\n# comment\n4 {bad} 6\n7 8 9\n")
        with pytest.raises(FileFormatError) as err:
            vio.read_xyz(path)
        assert err.value.line == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# nothing\n")
        with pytest.raises(FileFormatError):
            vio.read_xyz(path)


class TestPly:
    def test_round_trip_with_normals(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((25, 3))
        normals = rng.standard_normal((25, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        path = tmp_path / "c.ply"
        vio.write_ply(path, pts, normals=normals)
        back, nrm = vio.read_ply(path)
        assert np.max(np.abs(back - pts)) < 1e-6
        assert np.max(np.abs(nrm - normals)) < 1e-6

    def test_round_trip_with_colors_and_quality(self, tmp_path):
        pts = np.zeros((3, 3))
        colors = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255]])
        quality = np.array([0.5, 1.5, -2.0])
        path = tmp_path / "c.ply"
        vio.write_ply(path, pts, colors=colors, quality=quality)
        text = path.read_text()
        assert "property uchar red" in text
        assert "property float quality" in text
        back, nrm = vio.read_ply(path)
        assert back.shape == (3, 3)
        assert nrm is None

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("plyx\n")
        with pytest.raises(FileFormatError):
            vio.read_ply(path)

    def test_truncated_vertices(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(FileFormatError):
            vio.read_ply(path)

    @pytest.mark.parametrize("column", [1, 4])
    def test_non_finite_reports_number(self, tmp_path, column):
        names = ("x", "y", "z", "nx", "ny", "nz")
        props = "".join(f"property float {k}\n" for k in names)
        rows = [["0", "0", "0", "0", "0", "1"] for _ in range(3)]
        rows[1][column] = "nan"
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n" + props + "end_header\n"
            + "".join(" ".join(r) + "\n" for r in rows)
        )
        with pytest.raises(FileFormatError) as err:
            vio.read_ply(path)
        # ten header lines, then the second vertex line
        assert err.value.line == 12

    def test_zero_normal_reports_number(self, tmp_path):
        names = ("x", "y", "z", "nx", "ny", "nz")
        props = "".join(f"property float {k}\n" for k in names)
        rows = ["0 0 0 0 0 1", "1 0 0 0 0 0", "0 1 0 0 0 1"]
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n" + props + "end_header\n"
            + "".join(r + "\n" for r in rows)
        )
        with pytest.raises(FileFormatError, match="zero-length normal") as err:
            vio.read_ply(path)
        # ten header lines, then the second vertex line
        assert err.value.line == 12

    @pytest.mark.parametrize("bad_line", [
        "element vertex abc", "format", "element vertex -2",
    ])
    def test_malformed_header_reports_number(self, tmp_path, bad_line):
        header = ["ply", "format ascii 1.0", "element vertex 1",
                  "property float x", "property float y", "property float z",
                  "end_header", "0 0 0"]
        slot = 1 if bad_line == "format" else 2
        header[slot] = bad_line
        path = tmp_path / "c.ply"
        path.write_text("\n".join(header) + "\n")
        with pytest.raises(FileFormatError) as err:
            vio.read_ply(path)
        assert err.value.line == slot + 1

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(FileFormatError):
            vio.read_ply(path)


class TestColors:
    def test_clip_monotone(self):
        rng = np.random.default_rng(7)
        vals = np.sort(rng.standard_normal(200))
        t = vio.clip_to_unit(vals)
        assert np.all(np.diff(t) >= 0)

    def test_symmetric_centers_zero(self):
        t = vio.clip_to_unit(np.array([-1.0, 0.0, 2.0]), symmetric=True)
        assert t[1] == pytest.approx(0.5)
        assert t[0] < 0.5 < t[2]

    def test_percentile_clipping(self):
        vals = np.concatenate([np.zeros(98), [1e9, -1e9]])
        t = vio.clip_to_unit(vals)
        assert np.all(t >= 0) and np.all(t <= 1)
        assert np.all(np.isfinite(t))

    def test_diverging_endpoints(self):
        rgb = vio.diverging_rgb(np.array([0.0, 0.5, 1.0]))
        assert rgb[0].tolist() == [0, 0, 255]
        assert rgb[1].tolist() == [255, 255, 255]
        assert rgb[2].tolist() == [255, 0, 0]

    def test_sequential_endpoints(self):
        rgb = vio.sequential_rgb(np.array([0.0, 1.0]))
        assert rgb[0].tolist() == [0, 0, 255]
        assert rgb[1].tolist() == [255, 0, 0]

    def test_nan_handling(self):
        rgb = vio.colorize(np.array([np.nan, 1.0, 2.0]), diverging=False)
        assert rgb.shape == (3, 3)
        assert rgb[0].tolist() == [128, 128, 128]
