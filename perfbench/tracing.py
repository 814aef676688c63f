"""Per-layer attribution by wrapping the library's public functions from outside.

`Tracer.install()` replaces each boundary below with a timing wrapper in
every `nillat` module namespace that binds it (so `cocycle_space` is caught
whether it is called from `cocycles`, `heisenberg` or `cli`), and methods on
their classes.  `uninstall()` puts the originals back.  Nothing under
`src/` changes.

Each boundary accumulates `calls` and `self_ms`: its own wall time minus the
time covered by nested wrapped calls.  Boundaries not marked high-frequency
also record one span per call, carrying the request id and the request's
input dimension, so a dimension ladder can be read from the span file.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

AGG, SPAN = "agg", "span"

# (module, attribute, metric name, mode).  An attribute ending in "*" is a
# name prefix: every matching module function shares the one metric.
BOUNDARIES = [
    ("matrix", "Matrix.__init__", "matrix.Matrix.init", AGG),
    ("matrix", "Matrix.rref", "matrix.Matrix.rref", SPAN),
    ("matrix", "Matrix.det", "matrix.Matrix.det", SPAN),
    ("matrix", "Matrix.inverse", "matrix.Matrix.inverse", SPAN),
    ("matrix", "Matrix.solve", "matrix.Matrix.solve", SPAN),
    ("matrix", "Matrix.apply", "matrix.Matrix.apply", AGG),
    ("matrix", "Matrix.charpoly", "matrix.Matrix.charpoly", SPAN),
    ("matrix", "rref_basis", "matrix.rref_basis", SPAN),
    ("intlattice", "solve_diophantine", "intlattice.solve_diophantine", SPAN),
    ("intlattice", "smith_normal_form", "intlattice.smith_normal_form", SPAN),
    ("intlattice", "hermite_row_basis", "intlattice.hermite_row_basis", SPAN),
    ("intlattice", "integer_kernel_basis", "intlattice.integer_kernel_basis", SPAN),
    ("intlattice", "quotient_invariants", "intlattice.quotient_invariants", SPAN),
    ("liealg", "LieAlgebra.bracket", "liealg.LieAlgebra.bracket", AGG),
    ("liealg", "LieAlgebra.basis_bracket", "liealg.LieAlgebra.basis_bracket", AGG),
    ("liealg", "LieAlgebra.validate", "liealg.LieAlgebra.validate", SPAN),
    ("cocycles", "AlternatingForm.__call__", "cocycles.AlternatingForm.call", AGG),
    ("cocycles", "AlternatingForm.is_cocycle", "cocycles.AlternatingForm.is_cocycle", SPAN),
    ("cocycles", "cocycle_space", "cocycles.cocycle_space", SPAN),
    ("cocycles", "left_symmetric_product", "cocycles.left_symmetric_product", SPAN),
    ("commalg", "radical_and_socle", "commalg.radical_and_socle", SPAN),
    ("heisenberg", "h1_symplectic_decision", "heisenberg.h1_symplectic_decision", SPAN),
    ("heisenberg", "h1_cocycle_construct", "heisenberg.h1_cocycle_construct", SPAN),
    ("heisenberg", "generic_degeneracy_search", "heisenberg.generic_degeneracy_search", SPAN),
    ("heisenberg", "hk_degeneracy_check", "heisenberg.hk_degeneracy_check", SPAN),
    ("classify", "filiform_normalize", "classify.filiform_normalize", SPAN),
    ("classify", "filiform_isomorphic", "classify.filiform_isomorphic", SPAN),
    ("classify", "central_quotients", "classify.central_quotients", SPAN),
    ("classify", "classify_six_dim", "classify.classify_six_dim", SPAN),
    ("quadratic", "fundamental_unit", "quadratic.fundamental_unit", SPAN),
    ("anosov", "char_poly_pair", "anosov.char_poly_pair", SPAN),
    ("anosov", "has_unit_circle_root", "anosov.has_unit_circle_root", SPAN),
    ("unipoly", "poly_gcd", "unipoly.poly_gcd", SPAN),
    ("unipoly", "count_real_roots", "unipoly.count_real_roots", SPAN),
    ("groups", "multiply", "groups.multiply", SPAN),
    ("groups", "inverse", "groups.inverse", SPAN),
    ("multipoly", "Poly.__mul__", "multipoly.Poly.mul", AGG),
    ("symplectic", "moment_cocycle_identity_holds", "symplectic.moment_cocycle_identity_holds", SPAN),
    ("symplectic", "flat_symplectic_structure", "symplectic.flat_symplectic_structure", SPAN),
    ("jsonio", "parse_*", "jsonio.parse", AGG),
    ("jsonio", "dump_*", "jsonio.dump", AGG),
    ("cli", "main", "cli.main", SPAN),
]

CERT_KINDS = ("parity", "common-kernel", "orthogonality", "witness", "grid")

# Counts taken at a boundary in addition to calls and self time.
RREF_CELLS = "matrix.Matrix.rref.cells"
SYLVESTER_HITS = "intlattice.solve_diophantine.solved"


def _hooks(metric: str, counts: Counter):
    """(before(args), after(result)) for the boundaries that count work."""
    if metric == "matrix.Matrix.rref":
        def before(args):
            counts[RREF_CELLS] += args[0].rows * args[0].cols
        return before, None
    if metric == "intlattice.solve_diophantine":
        def after(result):
            if result is not None:
                counts[SYLVESTER_HITS] += 1
        return None, after
    if metric in ("heisenberg.generic_degeneracy_search", "heisenberg.hk_degeneracy_check"):
        def after(result):
            counts["heisenberg.cert." + result.kind] += 1
        return None, after
    return None, None


class Tracer:
    """Installs the boundary wrappers and holds what they record."""

    def __init__(self):
        self.stats = {metric: [0, 0.0] for _, _, metric, _ in BOUNDARIES}  # calls, self seconds
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []      # (rid, metric, dim, start, dur, self, parent)
        self.request = (-1, 0)            # (request id, input dimension) of the running request
        self.missing: list[str] = []      # boundaries absent from this version of the library
        self._frames = [[0.0]]            # child-time accumulators of the open wrapped calls
        self._open_spans: list[int] = []
        self._patches: list[tuple] = []

    # -- wrapping ----------------------------------------------------------------------

    def _wrap(self, fn, metric: str, mode: str):
        stat = self.stats[metric]
        frames = self._frames
        clock = time.perf_counter
        before, after = _hooks(metric, self.counts)

        if mode == AGG:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    frames.pop()
                    frames[-1][0] += dt
                    stat[0] += 1
                    stat[1] += dt - frame[0]
        else:
            spans = self.spans
            open_spans = self._open_spans

            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                frame = [0.0]
                frames.append(frame)
                parent = open_spans[-1] if open_spans else -1
                index = len(spans)
                spans.append(None)
                open_spans.append(index)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    frames.pop()
                    open_spans.pop()
                    frames[-1][0] += dt
                    own = dt - frame[0]
                    stat[0] += 1
                    stat[1] += own
                    rid, dim = self.request
                    spans[index] = (rid, metric, dim, t0, dt, own, parent)
                if after is not None:
                    after(result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, metric, mode in BOUNDARIES:
            module = importlib.import_module("nillat." + modname)
            if attr.endswith("*"):
                names = [n for n, v in vars(module).items() if n.startswith(attr[:-1]) and callable(v)]
                targets = [getattr(module, n) for n in names]
            elif "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is None:
                    self.missing.append(metric)
                    continue
                setattr(cls, meth, self._wrap(orig, metric, mode))
                self._patches.append((cls, meth, orig))
                continue
            else:
                targets = [getattr(module, attr)] if hasattr(module, attr) else []
            if not targets:
                self.missing.append(metric)
            for orig in targets:
                self._rebind(orig, self._wrap(orig, metric, mode))

    def _rebind(self, orig, wrapper) -> None:
        """Replace `orig` by `wrapper` under every name any nillat module binds it to."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "nillat" or modname.startswith("nillat.")):
                continue
            for name, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, name, wrapper)
                    self._patches.append((module, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- report ------------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric this tracer owns, as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for metric, (calls, self_s) in self.stats.items():
            out[metric + ".calls"] = (calls, "count")
            out[metric + ".self_ms"] = (round(self_s * 1000, 6), "ms")
        out[RREF_CELLS] = (self.counts[RREF_CELLS], "count")
        solves = self.stats["intlattice.solve_diophantine"][0]
        hits = self.counts[SYLVESTER_HITS]
        out["classify.sylvester_yield"] = (hits / solves if solves else 0.0, "ratio")
        for kind in CERT_KINDS:
            out["heisenberg.cert." + kind] = (self.counts["heisenberg.cert." + kind], "count")
        return out

    def span_records(self):
        """Spans as dicts, times in ms from the first span's start."""
        done = [s for s in self.spans if s is not None]
        origin = min((s[3] for s in done), default=0.0)
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            rid, metric, dim, t0, dur, own, parent = s
            yield {
                "id": i, "parent": parent, "request": rid, "name": metric, "dim": dim,
                "start_ms": round((t0 - origin) * 1000, 4),
                "dur_ms": round(dur * 1000, 4), "self_ms": round(own * 1000, 4),
            }
