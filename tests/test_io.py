import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import varicurv.io as vio
from varicurv.errors import FileFormatError
from varicurv.estimator import CurvatureReport

from system_reference import (
    reference_diverging_rgb,
    reference_read_ply,
    reference_read_xyz,
    reference_sequential_rgb,
)

NAN, INF = np.nan, np.inf
# zeros of both signs, a subnormal, extreme exponents, more than 9 digits
POSITIONS = np.array([
    [0.0, -0.0, 1.5],
    [1e-300, -2.5e300, 123456789.123],
    [5e-324, 1.0 / 3.0, -7.0],
])


def report_of(kappas, mean_vectors, status):
    """A report whose gauss, abs_sum and mean_norm columns derive from
    ``kappas`` and ``mean_vectors``."""
    n, d = kappas.shape
    return CurvatureReport(
        kappas=kappas, directions=np.zeros((n, d, d + 1)),
        mean_vectors=np.asarray(mean_vectors, dtype=float), eps=np.ones(n),
        status=np.array(status, dtype=object),
    )


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 10), n_rows=st.integers(1, 6),
           flaw=st.sampled_from([None, "ragged", "bad float", "non-finite", "empty"]),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_matches_line_parser(self, tmp_path_factory, data, n, n_rows, flaw,
                                 newline):
        # the same array bit for bit, or the same error on the same line,
        # and no warning either way
        number = st.floats(-1e300, 1e300)  # finite however it is spelled
        spelled = st.sampled_from([repr, "{:.17g}".format, "{:e}".format,
                                   "{:.3E}".format, "{:+.0f}".format])
        gap = st.sampled_from([" ", "\t", "  ", " \t "])
        rows = []
        for _ in range(n_rows):
            tokens = [data.draw(spelled)(data.draw(number)) for _ in range(n)]
            body = tokens[0] + "".join(data.draw(gap) + t for t in tokens[1:])
            rows.append(data.draw(st.sampled_from(["", " ", "\t"])) + body
                        + data.draw(st.sampled_from(["", " ", " # note", "#"])))
        bad = data.draw(st.integers(0, n_rows - 1))
        if flaw == "ragged":
            rows.insert(bad + 1, " ".join(["1"] * (n + 1)))
        elif flaw == "bad float":
            rows[bad] = " ".join(["1"] * (n - 1) + [data.draw(
                st.sampled_from(["x1", "1..2", "1e", "--3", "0x10"]))])
        elif flaw == "non-finite":
            rows[bad] = " ".join(["1"] * (n - 1) + [data.draw(
                st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))])
        elif flaw == "empty":
            rows = []
        lines = []
        for row in rows:
            lines += data.draw(st.lists(st.sampled_from(["", "# c", "  ", "\t# c"]),
                                        max_size=2))
            lines.append(row)
        path = tmp_path_factory.mktemp("xyz") / "c.xyz"
        path.write_bytes(newline.join(lines + [""]).encode())

        def outcome(read):
            try:
                values = read(path)
                return values.shape, values.dtype, values.tobytes()
            except FileFormatError as e:
                return str(e), e.line

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(vio.read_xyz)
        assert got == outcome(reference_read_xyz)
        assert (len(got) == 3) == (flaw is None)


    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "c.xyz"
        vio.write_xyz(path, POSITIONS)
        assert path.read_bytes() == (
            b"0 -0 1.5\n"
            b"1e-300 -2.5e+300 123456789\n"
            b"4.94065646e-324 0.333333333 -7\n"
        )
        vio.write_xyz(path, np.array([[1.0, 2.0, 3.0, 4.0, -1e100]]))
        assert path.read_bytes() == b"1 2 3 4 -1e+100\n"


class TestReportCsv:
    def test_golden_bytes_d2(self, tmp_path):
        # nan, -inf, -0, a subnormal, the largest double and more than 9
        # digits in the kappas, and nan, inf, -0, the largest double and
        # more than 9 digits in the columns derived from them
        rep = report_of(
            np.array([[NAN, -INF], [1.7976931348623157e308, -0.0],
                      [12345678901.0, 1e-310]]),
            [[NAN, NAN, NAN], [-INF, 0.0, 0.0], [0.0, 0.1, 0.0]],
            ["isolated", "ok", "ambiguous_tangent"],
        )
        path = tmp_path / "r.csv"
        vio.write_report_csv(path, POSITIONS, rep)
        assert path.read_bytes() == (
            b"index,x0,x1,x2,k1,k2,gauss,abs_sum,mean_norm,status\n"
            b"0,0,-0,1.5,nan,-inf,nan,nan,nan,isolated\n"
            b"1,1e-300,-2.5e+300,123456789,1.79769313e+308,-0,-0,1.79769313e+308,"
            b"inf,ok\n"
            b"2,4.94065646e-324,0.333333333,-7,1.23456789e+10,1e-310,"
            b"1.23456789e-300,1.23456789e+10,0.1,ambiguous_tangent\n"
        )

    def test_golden_bytes_d1_one_row(self, tmp_path):
        rep = report_of(np.array([[-3.0]]), [[0.0, -2.99999999999]], ["ok"])
        path = tmp_path / "r.csv"
        vio.write_report_csv(path, np.array([[0.25, -1e-5]]), rep)
        assert path.read_bytes() == (
            b"index,x0,x1,k1,gauss,abs_sum,mean_norm,status\n"
            b"0,0.25,-1e-05,-3,-3,3,3,ok\n"
        )


class TestPly:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "c.ply"
        vio.write_ply(
            path, POSITIONS,
            colors=np.array([[0, 128, 255], [255, 255, 255], [7, 0, 1]],
                            dtype=np.uint8),
            quality=np.array([NAN, -0.0, 1e21]),
            normals=np.array([[0, 0, 1.0], [-1e-9, 0.6, 0.8], [1, 0, 0]]),
        )
        header = (
            b"ply\nformat ascii 1.0\nelement vertex 3\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"property float nx\nproperty float ny\nproperty float nz\n"
            b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
            b"property float quality\nend_header\n"
        )
        assert path.read_bytes() == header + (
            b"0 -0 1.5 0 0 1 0 128 255 nan\n"
            b"1e-300 -2.5e+300 123456789 -1e-09 0.6 0.8 255 255 255 -0\n"
            b"4.94065646e-324 0.333333333 -7 1 0 0 7 0 1 1e+21\n"
        )
        vio.write_ply(path, POSITIONS[:1])
        assert path.read_bytes() == (
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"end_header\n0 -0 1.5\n"
        )

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

    def test_non_finite_quality_read_back(self, tmp_path):
        # the writer's quality is NaN at flagged points; the reader uses
        # only positions and normals, so its own output reads back
        path = tmp_path / "c.ply"
        vio.write_ply(path, POSITIONS, colors=np.zeros((3, 3)),
                      quality=np.array([NAN, -INF, 1.0]))
        plain = tmp_path / "p.ply"
        vio.write_ply(plain, POSITIONS)
        positions, normals = vio.read_ply(path)
        assert positions.tobytes() == vio.read_ply(plain)[0].tobytes()
        assert normals is None

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

    def test_normals_come_back_unit(self, tmp_path):
        # divided by their norm, or first by their largest |component| when
        # its square would overflow or underflow, without a warning
        names = ("x", "y", "z", "nx", "ny", "nz")
        props = "".join(f"property float {k}\n" for k in names)
        rows = ["0 0 0 0 0.6 0.8", "1 0 0 1e-170 0 0", "0 1 0 1e200 0.3 -4",
                "0 0 1 0 3 4e-200"]
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 4\n" + props + "end_header\n"
            + "".join(r + "\n" for r in rows)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, normals = vio.read_ply(path)
        assert normals[0].tolist() == [0.0, 0.6, 0.8]
        assert normals[1].tolist() == [1.0, 0.0, 0.0]
        assert np.max(np.abs(normals[2] - [1.0, 0.0, 0.0])) < 1e-15
        assert normals[3].tolist() == [0.0, 1.0, 4e-200 / 3.0]

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

    def test_element_before_vertex(self, tmp_path):
        # the face line comes first in the body and is not a vertex
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement face 1\n"
            "property list uchar int vertex_indices\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "3 0 1 2\n0 0 0\n1 0 0\n0 1 0\n"
        )
        positions, normals = vio.read_ply(path)
        assert positions.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        assert normals is None

    def test_no_vertices(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError, match="no points found") as err:
                vio.read_ply(path)
        assert err.value.line == 3

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 6), normals=st.booleans(),
           extra=st.sampled_from([[], ["quality"], ["red", "green", "blue"]]),
           face=st.sampled_from([None, "before", "after"]),
           flaw=st.sampled_from([None, "ragged", "bad float", "non-finite",
                                 "zero normal", "huge normal", "tiny normal",
                                 "truncated"]),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_matches_line_parser(self, tmp_path_factory, data, n_rows, normals,
                                 extra, face, flaw, newline):
        # the same arrays bit for bit, or the same error on the same line,
        # and no warning either way
        normal_flaws = ("zero normal", "huge normal", "tiny normal")
        assume(normals or flaw not in normal_flaws)
        names = data.draw(st.permutations(
            ["x", "y", "z"] + (["nx", "ny", "nz"] if normals else []) + extra))
        spelled = st.sampled_from([repr, "{:.17g}".format, "{:e}".format,
                                   "{:.3E}".format, "{:+.0f}".format])
        # finite however spelled; nz keeps each normal non-zero
        number = {"nz": st.floats(1, 1e150), "red": st.integers(0, 255),
                  "green": st.integers(0, 255), "blue": st.integers(0, 255)}
        rows = []
        for _ in range(n_rows):
            tokens = [data.draw(spelled)(data.draw(
                number.get(k, st.floats(-1e300, 1e300)))) for k in names]
            rows.append(tokens)
        bad = data.draw(st.integers(0, n_rows - 1))
        column = data.draw(st.integers(0, len(names) - 1))
        if flaw == "ragged":
            rows[bad] = rows[bad][:-1] if data.draw(st.booleans()) else rows[bad] + ["1"]
        elif flaw == "bad float":
            rows[bad][column] = data.draw(
                st.sampled_from(["x1", "1..2", "1e", "--3", "0x10"]))
        elif flaw == "non-finite":
            rows[bad][column] = data.draw(
                st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
        elif flaw == "zero normal":
            for k in ("nx", "ny", "nz"):
                rows[bad][names.index(k)] = data.draw(
                    st.sampled_from(["0", "-0", "0.0", "0e5"]))
        elif flaw == "huge normal":  # its squared length overflows
            rows[bad][names.index("nx")] = data.draw(
                st.sampled_from(["1e200", "-1E+200"]))
        elif flaw == "tiny normal":  # its squared length underflows
            for k, v in zip(("nx", "ny", "nz"), ("1e-170", "0", "0")):
                rows[bad][names.index(k)] = v
        gap = st.sampled_from([" ", "\t", "  "])
        body = [data.draw(st.sampled_from(["", " "])) + tokens[0]
                + "".join(data.draw(gap) + t for t in tokens[1:])
                + data.draw(st.sampled_from(["", " ", " # note"])) for tokens in rows]
        faces = ["3 0 1 2"] * data.draw(st.integers(1, 2))
        header = ["ply", "format ascii 1.0", "comment drawn"]
        face_header = [f"element face {len(faces)}",
                       "property list uchar int vertex_indices"]
        header += face_header if face == "before" else []
        header += [f"element vertex {n_rows}"] + [f"property float {k}" for k in names]
        header += face_header if face == "after" else []
        header.append("end_header")
        lines = header + (faces if face == "before" else []) + body
        lines += faces if face == "after" else []
        if flaw == "truncated":  # the file ends inside the vertex body
            lines = lines[:len(lines) - len(faces) * (face == "after") - 1]
        path = tmp_path_factory.mktemp("ply") / "c.ply"
        path.write_bytes(newline.join(lines + [""]).encode())

        def outcome(read):
            try:
                return [None if a is None else
                        (a.shape, a.dtype, a.flags.c_contiguous, a.tobytes())
                        for a in read(path)]
            except FileFormatError as e:
                return str(e), e.line

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(vio.read_ply)
        assert got == outcome(reference_read_ply)
        # a NaN or inf in a field the reader does not use is read past, and
        # a normal's size does not matter unless it is zero
        ignored = flaw == "non-finite" and names[column] in extra
        read = flaw in (None, "huge normal", "tiny normal") or ignored
        assert isinstance(got, list) == read

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

    @pytest.mark.parametrize("anchors, reference", [
        (vio._DIVERGING, reference_diverging_rgb),
        (vio._SEQUENTIAL, reference_sequential_rgb),
    ], ids=["diverging", "sequential"])
    def test_ramp_matches_reference(self, anchors, reference):
        k = np.arange(-4, 260)
        # anchors, channel steps k/255, half steps (where rounding ties) and
        # their images under each segment's slope, each with +-1 ulp
        points = np.concatenate([
            [0.0, 1 / 3, 0.5, 2 / 3, 1.0, -0.0, 5e-324, 1e300],
            k / 255, (k + 0.5) / 255,
            np.add.outer([0.0, 1 / 3, 0.5, 2 / 3], (k + 0.5) / 255 / 3).ravel(),
            np.add.outer([0.0, 0.5], (k + 0.5) / 255 / 2).ravel(),
        ])
        points = np.concatenate([points, -points])
        t = np.concatenate([
            points, np.nextafter(points, INF), np.nextafter(points, -INF),
            np.linspace(-0.25, 1.25, 1_000_001),
            [NAN, INF, -INF, np.finfo(float).max, np.finfo(float).min],
        ])
        assert vio._ramp(t, anchors).tobytes() == reference(t).tobytes()

    def test_nan_handling(self):
        rgb = vio.colorize(np.array([np.nan, 1.0, 2.0]), diverging=False)
        assert rgb.shape == (3, 3)
        assert rgb[0].tolist() == [128, 128, 128]
