"""Point-cloud file formats and report output.

Formats (``read_cloud`` reads ply if the first line, stripped, is ``ply``):

* xyz: one point per line, whitespace-separated floats (n columns),
  '#' starts a comment; a malformed row is rejected with its line;
* ply (ascii 1.0): vertex element with float x, y, z; optional float
  nx, ny, nz normals, read back unit length (used as tangent-plane hints
  in codimension 1), of which only an all-zero one is rejected; each
  vertex line is an xyz row with exactly as many fields as the vertex
  element has properties, of which only x, y, z and the normals must be
  finite; the writer adds uchar red, green, blue and float quality.

CSV reports print floats with 9 significant digits so repeated runs are
byte-identical; xyz/ply writers use the same precision, so a write/read
round trip reproduces positions to well below 1e-6.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FileFormatError

FLOAT_FMT = "%.9g"

# Rows formatted per write: bounds the Python floats and the text held at
# once to a block's worth, not the whole file's.
WRITE_ROWS = 2048


def _write_rows(fh, row_fmt: str, values: np.ndarray, status=None) -> None:
    """Write the rows of the float stack ``values`` with one %-format string,
    ``WRITE_ROWS`` rows per write.  With ``status`` each row is led by its
    index and ends with its status."""
    for lo in range(0, len(values), WRITE_ROWS):
        block = values[lo:lo + WRITE_ROWS].tolist()
        if status is None:
            rows = map(tuple, block)
        else:
            labels = status[lo:lo + WRITE_ROWS]
            rows = ((i, *numbers, s)
                    for i, (numbers, s) in enumerate(zip(block, labels), start=lo))
        fh.write("".join(row_fmt % row for row in rows))


# ---------------------------------------------------------------- input


def read_cloud(path) -> tuple[np.ndarray, np.ndarray | None]:
    """(positions, normals or None) of a ply file, one whose first line is
    ``ply``, or else of an xyz file."""
    with open(path, "r") as fh:
        ply = fh.readline().strip() == "ply"
    return read_ply(path) if ply else (read_xyz(path), None)


# A line whose first non-blank character does not start a comment.
_DATA_LINE = re.compile(r"\s*[^\s#]")


def _parse_rows(lines, first: int, width=None, finite=slice(None)) -> np.ndarray:
    """The float rows of ``lines``, whose first is line ``first`` of its file:
    (N, w), or (0, 0) without data.  Lines numpy's C reader rejects, another
    width than ``width`` (by default the first row's) or a NaN or inf in the
    columns ``finite`` are parsed again one by one to name the first bad
    line: a wrong column count, a bad float or a non-finite value."""
    # loadtxt warns on lines without data
    if not any(map(_DATA_LINE.match, lines)):
        return np.empty((0, 0))
    try:
        values = np.loadtxt(lines, comments="#", ndmin=2)
        if width in (None, values.shape[1]) and np.isfinite(values[:, finite]).all():
            return values
    except ValueError:
        pass
    rows = []
    for lineno, line in enumerate(lines, start=first):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if width is None:
            width = len(parts)
        if len(parts) != width:
            raise FileFormatError(
                f"expected {width} columns, found {len(parts)}", line=lineno
            )
        try:
            row = np.array([float(p) for p in parts])
        except ValueError:
            raise FileFormatError(f"bad float in {body!r}", line=lineno) from None
        if not np.isfinite(row[finite]).all():
            raise FileFormatError(f"non-finite value in {body!r}", line=lineno)
        rows.append(row)
    return np.asarray(rows)


def read_xyz(path) -> np.ndarray:
    """Read an xyz cloud; returns (N, n) positions, n its column count."""
    with open(path, "r") as fh:
        values = _parse_rows(fh.readlines(), 1)
    if not len(values):
        raise FileFormatError("no points found in xyz file")
    return values


def write_xyz(path, positions: np.ndarray) -> None:
    positions = np.atleast_2d(positions)
    row_fmt = " ".join([FLOAT_FMT] * positions.shape[1]) + "\n"
    with open(path, "w") as fh:
        _write_rows(fh, row_fmt, positions)


# ---------------------------------------------------------------- ply


def read_ply(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read an ascii ply; returns (positions (N,3), normals (N,3) or None).

    Vertex lines follow those of the elements declared before the vertex
    element, one per instance.  Malformed header lines, an empty vertex
    element, malformed or missing vertex lines, a NaN or inf in a field
    read (x, y, z, nx, ny, nz) and all-zero normals are rejected with their
    line.  Normals come back unit length, as ``n / |n|``.
    """
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines or lines[0].strip() != "ply":
        raise FileFormatError("missing 'ply' magic", line=1)
    n_vertex = None
    before = 0  # lines of the elements declared before the vertex element
    props: list[str] = []
    start = None  # lines before the vertex body
    in_vertex = False
    for i, line in enumerate(lines[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "format":
            if len(tok) < 2 or tok[1] != "ascii":
                raise FileFormatError("only ascii 1.0 ply is supported", line=i)
        elif tok[0] == "element":
            if len(tok) != 3 or not tok[2].isdecimal():
                raise FileFormatError(
                    "expected 'element <name> <count>' with count >= 0", line=i
                )
            in_vertex = tok[1] == "vertex"
            if in_vertex:
                n_vertex = int(tok[2])
                if n_vertex == 0:
                    raise FileFormatError("no points found in ply file", line=i)
            elif n_vertex is None:
                before += int(tok[2])
        elif tok[0] == "property" and in_vertex:
            props.append(tok[-1])
        elif tok[0] == "end_header":
            start = i + before
            break
    if start is None or n_vertex is None:
        raise FileFormatError("truncated ply header")
    for needed in ("x", "y", "z"):
        if needed not in props:
            raise FileFormatError(f"vertex element lacks property {needed!r}")
    names = ["x", "y", "z"]
    if all(k in props for k in ("nx", "ny", "nz")):
        names += ["nx", "ny", "nz"]
    cols = [props.index(k) for k in names]
    body = lines[start:start + n_vertex]
    # only the fields read must be finite: the writer's quality may be NaN
    values = _parse_rows(body, start + 1, len(props), cols)
    if len(values) < n_vertex:  # a line without data, or the end of the file
        row = next((r for r, line in enumerate(body) if not _DATA_LINE.match(line)),
                   len(body))
        raise FileFormatError("fewer vertex lines than declared", line=start + 1 + row)
    positions = values.take(cols[:3], axis=1)
    if len(cols) == 3:
        return positions, None
    normals = values.take(cols[3:], axis=1)
    scale = np.abs(normals).max(axis=1)
    zero = np.flatnonzero(scale == 0.0)
    if zero.size:
        raise FileFormatError("zero-length normal", line=start + 1 + int(zero[0]))
    # scaled first where squaring the largest component over- or underflows
    wide = (scale < 1e-150) | (scale > 1e150)
    normals[wide] /= scale[wide, None]
    return positions, normals / np.linalg.norm(normals, axis=1, keepdims=True)


def write_ply(
    path,
    positions: np.ndarray,
    colors: np.ndarray | None = None,
    quality: np.ndarray | None = None,
    normals: np.ndarray | None = None,
) -> None:
    """Write an ascii ply with optional normals, uchar RGB, float quality."""
    positions = np.atleast_2d(positions)
    header = ["ply", "format ascii 1.0", f"element vertex {len(positions)}"]
    columns = []
    formats = []
    for kind, fmt, names, column in [
        ("float", FLOAT_FMT, ("x", "y", "z"), positions),
        ("float", FLOAT_FMT, ("nx", "ny", "nz"), normals),
        # the float column stack holds uchar values exactly; %d prints them
        ("uchar", "%d", ("red", "green", "blue"), colors),
        ("float", FLOAT_FMT, ("quality",), quality),
    ]:
        if column is not None:
            header += [f"property {kind} {k}" for k in names]
            formats += [fmt] * len(names)
            columns.append(column)
    header.append("end_header")
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        _write_rows(fh, " ".join(formats) + "\n", np.column_stack(columns))


# ---------------------------------------------------------------- csv


def write_report_csv(path, positions: np.ndarray, report) -> None:
    """Write the per-point curvature report.

    Columns: index, x0..x{n-1}, k1..kd, gauss, abs_sum, mean_norm, status.
    """
    positions = np.atleast_2d(positions)
    amb = positions.shape[1]
    d = report.kappas.shape[1]
    header = (
        ["index"]
        + [f"x{j}" for j in range(amb)]
        + [f"k{j + 1}" for j in range(d)]
        + ["gauss", "abs_sum", "mean_norm", "status"]
    )
    values = np.column_stack([positions, report.kappas, report.gauss,
                              report.abs_sum, report.mean_norm])
    row_fmt = "%d," + ",".join([FLOAT_FMT] * (amb + d + 3)) + ",%s\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, row_fmt, values, report.status)


# ---------------------------------------------------------------- colors


def clip_to_unit(values: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """Map values monotonically into [0, 1], clipped at the 2nd and 98th
    percentiles.

    ``symmetric`` centers the map at 0 (for signed quantities), scaling by
    the larger clipped magnitude.  NaN maps to NaN.
    """
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return np.full_like(values, np.nan)
    lo, hi = np.percentile(finite, [2.0, 98.0])
    if symmetric:
        scale = max(abs(lo), abs(hi), 1e-300)
        return 0.5 + 0.5 * np.clip(values / scale, -1.0, 1.0)
    if hi <= lo:
        return np.where(np.isfinite(values), 0.5, np.nan)
    return np.clip((values - lo) / (hi - lo), 0.0, 1.0)


# Anchor colors of the two ramps, equally spaced over t in [0, 1].
_DIVERGING = np.array([[0, 0, 1], [1, 1, 1], [1, 0, 0]], dtype=float)
_SEQUENTIAL = np.array([[0, 0, 1], [0, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=float)


def _ramp(t: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """uint8 RGB linear between the anchors over t clipped to [0, 1]; NaN
    and +-inf map to mid gray."""
    t = np.asarray(t, dtype=float)
    # anchors at the integers, so a segment is s - j or j + 1 - s and rounds
    # as 3t - 1 or 2 - 2t does; anchors at j / (m - 1) would not
    s = (len(anchors) - 1) * np.clip(t, 0.0, 1.0)
    rgb = np.stack([np.interp(s, np.arange(len(anchors)), c) for c in anchors.T],
                   axis=-1)
    rgb[~np.isfinite(t)] = 0.5
    return np.round(255 * rgb).astype(np.uint8)


def colorize(values: np.ndarray, diverging: bool) -> np.ndarray:
    """Percentile-clipped color mapping: blue-white-red centered at 0 when
    ``diverging``, else blue-green-yellow-red."""
    t = clip_to_unit(values, symmetric=diverging)
    return _ramp(t, _DIVERGING if diverging else _SEQUENTIAL)
