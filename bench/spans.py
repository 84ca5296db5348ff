"""In-memory span recording around calls into varicurv's public functions.

A :class:`Tracer` patches module attributes of the ``varicurv`` package so
that each call into a listed function records a span ``(id, parent, name,
start_ns, end_ns, phase)`` and, for some functions, exact work counts.  The
patches exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`, and only in the process that runs the traced
benchmark; the untraced benchmark uses :class:`NullTracer`, which records
nothing and patches nothing.

Spans are recorded from the benchmark's side of each call, so a layer's time
includes the wrapper's own cost; the benchmark reports that cost as the
difference between traced and untraced pass times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import json
import os
import time
from collections import Counter

# (module, attribute, span name).  Dotted attributes patch a class attribute,
# which every module sees; plain ones patch every varicurv module namespace
# holding the same function object (``from .x import f`` copies the name).
TARGETS = (
    ("cli", "main", "cli.main"),
    ("io", "read_xyz", "io.read_xyz"),
    ("io", "write_xyz", "io.write_xyz"),
    ("io", "write_report_csv", "io.write_report_csv"),
    ("io", "write_ply", "io.write_ply"),
    ("varifold", "validate_cloud", "varifold.validate_cloud"),
    ("kernels", "natural_kernel_pair", "kernels.pair_build"),
    ("kernels", "kernel_pair_by_name", "kernels.pair_by_name"),
    ("estimator", "NeighborIndex.__init__", "estimator.index_build"),
    ("estimator", "NeighborIndex.resolve_all", "estimator.resolve_all"),
    ("estimator", "estimate_tangent_planes", "estimator.estimate_tangent_planes"),
    ("estimator", "estimate_masses", "estimator.estimate_masses"),
    ("estimator", "curvature_report", "estimator.curvature_report"),
    ("estimator", "point_curvature", "estimator.point_curvature"),
    ("estimator", "variation_tensor", "estimator.variation_tensor"),
    ("estimator", "orthogonal_sff", "estimator.orthogonal_sff"),
    ("estimator", "smoothed_direction_matrix", "estimator.smoothed_direction_matrix"),
    ("tensors", "solve_curvature_system", "tensors.solve_curvature_system"),
    ("tensors", "to_bilinear_form", "tensors.to_bilinear_form"),
    ("shapes", "AnalyticShape.sample", "shapes.sample"),
    ("shapes", "Torus.exact_report", "shapes.exact_report"),
    ("shapes", "Cube.exact_report", "shapes.exact_report"),
    ("convergence", "run_convergence", "convergence.run_convergence"),
)

F64 = 8


def _idx_size(kwargs) -> int:
    idx = kwargs.get("idx")
    return 0 if idx is None else int(len(idx))


class NullTracer:
    """Tracing off: kernel pairs pass through unchanged."""

    def wrap_pair(self, pair):
        return pair


class Tracer:
    """Records spans and exact counts for one traced benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = {}
        self.neighbor_sizes: dict[str, list[int]] = {}
        self.current_phase = "none"
        self._phase_counts = self.counts.setdefault("none", Counter())
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple] = []
        self._pairs: dict[int, object] = {}

    # ------------------------------------------------------------ recording

    def _count(self, key, value=1):
        self._phase_counts[key] += value

    def _record(self, name, fn, after=None):
        tracer = self
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, tracer.current_phase))
            tracer._phase_counts[calls_key] += 1
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark-side code (a pass, a set-up)."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1, self.current_phase))

    @contextlib.contextmanager
    def phase(self, label):
        previous = self.current_phase, self._phase_counts
        self.current_phase = label
        self._phase_counts = self.counts.setdefault(label, Counter())
        try:
            yield
        finally:
            self.current_phase, self._phase_counts = previous

    # ------------------------------------------------------------ kernels

    def wrap_pair(self, pair):
        """A copy of ``pair`` whose profile eval/deriv calls are traced."""
        # Entries keep the pair alive so that its id cannot be reused.
        cached = self._pairs.get(id(pair))
        if cached is not None:
            return cached[1]

        def radii(args, kwargs, result):
            self._count("kernels.eval_radii", int(getattr(args[0], "size", 1)))
            return result

        def wrap_profile(p):
            return dataclasses.replace(
                p,
                eval=self._record("kernels.eval", p.eval, radii),
                deriv=self._record("kernels.eval", p.deriv, radii),
            )

        wrapped = dataclasses.replace(
            pair, rho=wrap_profile(pair.rho), xi=wrap_profile(pair.xi),
            eta=wrap_profile(pair.eta),
        )
        self._pairs[id(pair)] = (pair, wrapped)
        self._pairs[id(wrapped)] = (wrapped, wrapped)
        return wrapped

    # ------------------------------------------------------------ patching

    def _after_hooks(self):
        def contraction(count):
            # A rank-3 contraction over m neighbor pairs computes m * n^3
            # multiply-add terms and streams the m planes (n^2), unit
            # offsets (n) and weights (1) as float64.
            def after(args, kwargs, result):
                m = _idx_size(kwargs)
                n = args[0].ambient_n
                self._count("estimator.tensor_flops_computed", 2 * count * m * n**3)
                self._count("estimator.tensor_bytes_computed",
                            F64 * count * m * (n * n + n + 1))
                return result
            return after

        def point(args, kwargs, result):
            self._count("estimator.pairs", _idx_size(kwargs))
            return result

        def resolved(args, kwargs, result):
            indices, _ = result
            self.neighbor_sizes.setdefault(self.current_phase, []).extend(
                len(ix) for ix in indices
            )
            return result

        def tangents(args, kwargs, result):
            self._count("estimator.tangent_ambiguous", int(result.ambiguous.sum()))
            return result

        def read(args, kwargs, result):
            self._count("io.bytes_read", os.path.getsize(args[0]))
            return result

        def written(args, kwargs, result):
            self._count("io.bytes_written", os.path.getsize(args[0]))
            return result

        def pair_built(args, kwargs, result):
            return self.wrap_pair(result)

        return {
            "estimator.variation_tensor": contraction(1),
            "estimator.orthogonal_sff": contraction(3),
            "estimator.point_curvature": point,
            "estimator.resolve_all": resolved,
            "estimator.estimate_tangent_planes": tangents,
            "io.read_xyz": read,
            "io.write_report_csv": written,
            "io.write_ply": written,
            "kernels.pair_by_name": pair_built,
        }

    def install(self):
        """Patch every target; undone by :meth:`uninstall`."""
        hooks = self._after_hooks()
        modules = [importlib.import_module("varicurv")] + [
            importlib.import_module(f"varicurv.{m}") for m in
            ("cli", "convergence", "estimator", "io", "kernels", "shapes",
             "tensors", "varifold")
        ]
        for mod_name, attr, span_name in TARGETS:
            mod = importlib.import_module(f"varicurv.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original,
                            self._record(span_name, original, hooks.get(span_name)))
                continue
            original = getattr(mod, attr)
            wrapper = self._record(span_name, original, hooks.get(span_name))
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------ output

    def write(self, path, header: dict) -> None:
        """Write the header and every span as gzip-compressed JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, t0, t1, phase in self.spans:
                fh.write(f'[{sid},{parent},"{name}",{t0},{t1},"{phase}"]\n')
