"""Point-cloud file formats and report output.

Formats:

* xyz: one point per line, whitespace-separated floats (n columns),
  '#' starts a comment;
* ply (ascii 1.0): vertex element with float x, y, z; optional float
  nx, ny, nz normals, which must be non-zero (used as tangent-plane hints
  in codimension 1);
  the writer adds uchar red, green, blue and float quality.

CSV reports print floats with 9 significant digits so repeated runs are
byte-identical; xyz/ply writers use the same precision, so a write/read
round trip reproduces positions to well below 1e-6.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FileFormatError

FLOAT_FMT = "%.9g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


# ---------------------------------------------------------------- xyz


def read_xyz(path, ambient_n: int | None = None) -> np.ndarray:
    """Read an xyz cloud; returns (N, n) positions.

    NaN or infinite values are rejected with the line they occur on.
    """
    rows = []
    width = ambient_n
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
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
                row = [float(p) for p in parts]
            except ValueError:
                raise FileFormatError(f"bad float in {body!r}", line=lineno) from None
            if not all(map(math.isfinite, row)):
                raise FileFormatError(f"non-finite value in {body!r}", line=lineno)
            rows.append(row)
    if not rows:
        raise FileFormatError("no points found in xyz file")
    return np.asarray(rows)


def write_xyz(path, positions: np.ndarray) -> None:
    positions = np.atleast_2d(positions)
    with open(path, "w") as fh:
        for row in positions:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------- ply


def read_ply(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read an ascii ply; returns (positions (N,3), normals (N,3) or None).

    Malformed header lines, NaN or infinite coordinates or normals, and
    zero-length normals are rejected with their line.
    """
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines or lines[0].strip() != "ply":
        raise FileFormatError("missing 'ply' magic", line=1)
    n_vertex = None
    props: list[str] = []
    header_end = None
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
        elif tok[0] == "property" and in_vertex:
            props.append(tok[-1])
        elif tok[0] == "end_header":
            header_end = i
            break
    if header_end is None or n_vertex is None:
        raise FileFormatError("truncated ply header")
    for needed in ("x", "y", "z"):
        if needed not in props:
            raise FileFormatError(f"vertex element lacks property {needed!r}")
    cols = {name: j for j, name in enumerate(props)}
    has_normals = all(k in cols for k in ("nx", "ny", "nz"))
    fields = ("x", "y", "z", "nx", "ny", "nz") if has_normals else ("x", "y", "z")
    positions = np.empty((n_vertex, 3))
    normals = np.empty((n_vertex, 3)) if has_normals else None
    for row in range(n_vertex):
        lineno = header_end + 1 + row
        if lineno > len(lines):
            raise FileFormatError("fewer vertex lines than declared", line=lineno)
        parts = lines[lineno - 1].split()
        if len(parts) < len(props):
            raise FileFormatError(
                f"expected {len(props)} fields, found {len(parts)}", line=lineno
            )
        try:
            values = [float(parts[cols[k]]) for k in fields]
        except ValueError:
            raise FileFormatError("bad float in vertex line", line=lineno) from None
        if not all(map(math.isfinite, values)):
            raise FileFormatError("non-finite value in vertex line", line=lineno)
        positions[row] = values[:3]
        if has_normals:
            # the squared length as the CLI computes it before normalizing
            if sum(v * v for v in values[3:]) == 0.0:
                raise FileFormatError("zero-length normal", line=lineno)
            normals[row] = values[3:]
    return positions, normals


def write_ply(
    path,
    positions: np.ndarray,
    colors: np.ndarray | None = None,
    quality: np.ndarray | None = None,
    normals: np.ndarray | None = None,
) -> None:
    """Write an ascii ply with optional normals, uchar RGB, float quality."""
    positions = np.atleast_2d(positions)
    n = positions.shape[0]
    header = ["ply", "format ascii 1.0", f"element vertex {n}"]
    header += [f"property float {k}" for k in ("x", "y", "z")]
    if normals is not None:
        header += [f"property float {k}" for k in ("nx", "ny", "nz")]
    if colors is not None:
        header += [f"property uchar {k}" for k in ("red", "green", "blue")]
    if quality is not None:
        header.append("property float quality")
    header.append("end_header")
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for i in range(n):
            fields = [_fmt(v) for v in positions[i]]
            if normals is not None:
                fields += [_fmt(v) for v in normals[i]]
            if colors is not None:
                fields += [str(int(c)) for c in colors[i]]
            if quality is not None:
                fields.append(_fmt(quality[i]))
            fh.write(" ".join(fields) + "\n")


# ---------------------------------------------------------------- csv


def write_report_csv(path, positions: np.ndarray, report) -> None:
    """Write the per-point curvature report.

    Columns: index, x0..x{n-1}, k1..kd, gauss, abs_sum, mean_norm, status.
    """
    positions = np.atleast_2d(positions)
    n, amb = positions.shape
    d = report.kappas.shape[1]
    header = (
        ["index"]
        + [f"x{j}" for j in range(amb)]
        + [f"k{j + 1}" for j in range(d)]
        + ["gauss", "abs_sum", "mean_norm", "status"]
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fields = [str(i)]
            fields += [_fmt(v) for v in positions[i]]
            fields += [_fmt(v) for v in report.kappas[i]]
            fields += [_fmt(report.gauss[i]), _fmt(report.abs_sum[i]),
                       _fmt(report.mean_norm[i]), str(report.status[i])]
            fh.write(",".join(fields) + "\n")


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


def diverging_rgb(t: np.ndarray) -> np.ndarray:
    """Blue -> white -> red over t in [0, 1]; NaN maps to mid gray."""
    t = np.asarray(t, dtype=float)
    nan = ~np.isfinite(t)
    t = np.where(nan, 0.5, np.clip(t, 0.0, 1.0))
    low = t < 0.5
    r = np.where(low, 2 * t, 1.0)
    g = np.where(low, 2 * t, 2 - 2 * t)
    b = np.where(low, 1.0, 2 - 2 * t)
    rgb = np.stack([r, g, b], axis=-1)
    rgb[nan] = [0.5, 0.5, 0.5]
    return np.round(255 * rgb).astype(np.uint8)


def sequential_rgb(t: np.ndarray) -> np.ndarray:
    """Blue -> green -> yellow -> red over t in [0, 1]; NaN maps to gray."""
    t = np.asarray(t, dtype=float)
    nan = ~np.isfinite(t)
    t = np.where(nan, 0.0, np.clip(t, 0.0, 1.0))
    r = np.clip(3.0 * t - 1.0, 0.0, 1.0)
    g = np.clip(np.where(t < 1.0 / 3.0, 3.0 * t, np.where(t < 2.0 / 3.0, 1.0,
                3.0 - 3.0 * t)), 0.0, 1.0)
    b = np.clip(1.0 - 3.0 * t, 0.0, 1.0)
    rgb = np.stack([r, g, b], axis=-1)
    rgb[nan] = [0.5, 0.5, 0.5]
    return np.round(255 * rgb).astype(np.uint8)


def colorize(values: np.ndarray, diverging: bool) -> np.ndarray:
    """Percentile-clipped color mapping; diverging maps center at 0."""
    t = clip_to_unit(values, symmetric=diverging)
    return diverging_rgb(t) if diverging else sequential_rgb(t)
