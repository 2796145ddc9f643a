"""Span tracer that wraps geokit's public functions from outside the library.

The tracer never edits geokit's source.  It replaces a function object in
every ``geokit`` module namespace that binds it (``from .linalg import ...``
copies bindings into ``geometry``, ``pencils``, ``assignment``, ``verify``,
``sysmodel`` and ``cli``), patches ``Subspace.__init__`` on the class, the
runner table ``verify.THEOREM_IDS``, and ``numpy.linalg.svd`` /
``numpy.linalg.norm`` (2-D, ``ord=2`` only) as geokit calls them through
``np.linalg``.  ``uninstall`` puts every original back.

Spans stay in memory as ``(name, start, end, parent, op)`` tuples and are
written out once, when the run ends.  Self time is a span's duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

import numpy as np

# Functions wrapped per module; names are reported as ``<module>.<fn>``.
# ``vstar``, ``sstar`` and ``rstar`` are the op entry points behind the
# per-op totals; the rest are the layer functions the metrics name.
WRAPPED = {
    "linalg": ("rank_of", "kernel_basis", "image_basis", "pinv", "subspace_sum",
               "subspace_intersect", "preimage"),
    "sysmodel": ("random_system", "load_system"),
    "pencils": ("rosenbrock_kernel", "reach_pencil_kernel", "uncontrollable_eigenvalues",
                "normal_rank_rosenbrock", "invariant_zeros"),
    "geometry": ("vstar_sequence", "sstar_sequence", "krylov_image", "reachable_subspace",
                 "unobservable_subspace", "reachability_on", "friend_of", "morse_decomposition",
                 "intersection_formula", "vstar", "sstar", "rstar"),
    "assignment": ("place_poles", "build_Kh", "min_distinct_spectrum", "reach_on_Kh"),
    "cli": ("main",),
}

SVD = "linalg.svd"
NORM2 = "linalg.norm2"
FRIEND = "geometry.friend_of"
SEQUENCES = ("geometry.vstar_sequence", "geometry.sstar_sequence")


def svd_flops(shape, complex_input: bool, compute_uv: bool, full_matrices: bool) -> float:
    """Operation count of one SVD, computed from its shape.

    Golub & Van Loan (Matrix Computations, 4th ed., sec. 8.6.3) counts for an
    l x k matrix, l >= k: singular values only 4lk^2 - 4k^3/3; thin factors
    14lk^2 + 8k^3; full left factor 4l^2k + 22k^3.  A complex flop is counted
    as four real ones.
    """
    rows, cols = shape[-2], shape[-1]
    l, k = max(rows, cols), min(rows, cols)
    if not compute_uv:
        flops = 4.0 * l * k * k - 4.0 * k ** 3 / 3.0
    elif full_matrices:
        flops = 4.0 * l * l * k + 22.0 * k ** 3
    else:
        flops = 14.0 * l * k * k + 8.0 * k ** 3
    return flops * (4.0 if complex_input else 1.0)


class Agg:
    """Per-function totals: calls, raised exceptions, self and outermost time,
    and SVD / friend_of calls made beneath it."""

    __slots__ = ("calls", "errors", "self_s", "outer_s", "svd_desc", "friend_desc")

    def __init__(self):
        self.calls = self.errors = self.svd_desc = self.friend_desc = 0
        self.self_s = self.outer_s = 0.0


class Tracer:
    """Collects spans and per-function aggregates while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.spans: list = []
        self.agg: dict[str, Agg] = {}
        self.counters: dict[str, float] = {}
        self.op = -1  # index of the benchmark op that caused the current spans
        self._stack: list = []
        self._depth: dict[str, int] = {}
        self._restore: list = []

    def stats(self, name: str) -> Agg:
        """Totals of one wrapped function (zeros if it was never called)."""
        return self.agg.get(name) or Agg()

    # -- span bookkeeping -------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _enter(self, name: str):
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
            self.agg[name] = Agg()
        span_id = len(self.spans)
        parent = self._stack[-1][5] if self._stack else -1
        self.spans.append(None)
        self._depth[name] = self._depth.get(name, 0) + 1
        # frame: name, name index, start, child time, [svd, friend] descendants, span id, parent
        frame = [name, idx, 0.0, 0.0, [0, 0], span_id, parent]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame, ok: bool) -> None:
        end = time.perf_counter()
        name, idx, start, child, desc, span_id, parent = frame
        self._stack.pop()
        dur = end - start
        agg = self.agg[name]
        agg.calls += 1
        agg.errors += not ok
        agg.self_s += dur - child
        agg.svd_desc += desc[0]
        agg.friend_desc += desc[1]
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            agg.outer_s += dur
        self.spans[span_id] = (idx, start, end, parent, self.op)
        if self._stack:
            up = self._stack[-1]
            up[3] += dur
            up[4][0] += desc[0] + (name == SVD)
            up[4][1] += desc[1] + (name == FRIEND)

    def wrap(self, name: str, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._exit(frame, ok)
            if post is not None:
                post(tracer, name, out)
            return out

        return traced

    # -- installation -----------------------------------------------------
    def _set(self, owner, key, value, is_dict=False):
        old = owner[key] if is_dict else getattr(owner, key)
        self._restore.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every target in every geokit namespace that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "geokit" or k.startswith("geokit."))]
        for mod_name, fns in WRAPPED.items():
            home = sys.modules[f"geokit.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                post = _count_steps if f"{mod_name}.{fn_name}" in SEQUENCES else None
                wrapped = self.wrap(f"{mod_name}.{fn_name}", orig, post)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapped)
        verify = sys.modules["geokit.verify"]
        for theorem, orig in list(verify.THEOREM_IDS.items()):
            wrapped = self.wrap(f"verify.{theorem}", orig)
            self._set(verify.THEOREM_IDS, theorem, wrapped, is_dict=True)
            for attr, val in list(vars(verify).items()):
                if val is orig:
                    self._set(verify, attr, wrapped)
        subspace = sys.modules["geokit.linalg"].Subspace
        self._set(subspace, "__init__", self.wrap("linalg.Subspace", subspace.__init__))
        self._set(np.linalg, "svd", self._wrap_svd(np.linalg.svd))
        self._set(np.linalg, "norm", self._wrap_norm(np.linalg.norm))

    def uninstall(self) -> None:
        for owner, key, old, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._restore.clear()

    def _wrap_svd(self, svd):
        traced = self.wrap(SVD, svd)
        tracer = self

        @functools.wraps(svd)
        def svd_counted(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            a_arr = np.asarray(a)
            cplx = np.iscomplexobj(a_arr)
            tracer.count("linalg.svd.complex_calls", int(cplx))
            tracer.count("linalg.svd.flops_computed",
                         svd_flops(a_arr.shape, cplx, compute_uv, full_matrices))
            return traced(a, full_matrices, compute_uv, *args, **kwargs)

        return svd_counted

    def _wrap_norm(self, norm):
        traced = self.wrap(NORM2, norm)

        @functools.wraps(norm)
        def norm_counted(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                return traced(x, ord, *args, **kwargs)
            return norm(x, ord, *args, **kwargs)

        return norm_counted

    # -- results ----------------------------------------------------------
    def write(self, path, extra: dict) -> None:
        """Write every span (and ``extra``) as gzipped JSON."""
        payload = dict(extra)
        payload["names"] = self.names
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        payload["spans"] = self.spans
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _count_steps(tracer: Tracer, name: str, chain) -> None:
    """Chain length of a recursion, the ``.steps`` count."""
    tracer.count(f"{name}.steps", len(chain))
