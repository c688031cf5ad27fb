r"""
Span tracing for the curvelat benchmark, installed from outside the package.

``install`` rebinds each function in ``TARGETS`` in every loaded
``curvelat`` module that holds it.  Modules bind helpers with
``from .x import y``, so rebinding only the defining module would miss
calls.  Nothing under ``src/`` changes.

Three kinds of wrapper exist:

- ``span``: one record per call with name, start, end, parent span and
  the time covered by child spans (so self time is exact);
- ``timed``: calls and inclusive seconds only, for functions called so
  often that a record per call would bloat the trace;
- ``count``: calls only.

A ``timed`` call adds its duration to the enclosing span's child time.
``HilbertTable.value`` is deliberately not wrapped: it runs ~10^5 times
per multi-branch ``verify`` and would dominate the traced run.
"""

import json
import sys
import time

clock = time.perf_counter


def _h_oracle(args, kwargs):
    # rows = monomials of degree < m, cols = sum of the clamped coordinates
    v = [max(int(c), 0) for c in args[1]]
    m = max(v) if v else 0
    return {"cells": m * (m + 1) // 2 * sum(v) if m else 0}


def _matrix(args, kwargs):
    rows = args[0]
    return {"cells": len(rows) * len(rows[0]) if rows else 0}


def _invariants(args, kwargs):
    return {"hit": int(getattr(args[0], "_invariants", None) is not None)}


def _du_homology(args, kwargs):
    matroid = args[0]
    u_truncation = args[1] if len(args) > 1 else kwargs.get("u_truncation")
    return {"key": repr((matroid.n, sorted(matroid.rank.items()),
                         u_truncation))}


def _build_table(args, result):
    # a table is identified by its branches and the stored corner
    curve = args[0]
    return {"cells": len(result.values),
            "key": repr(([id(b) for b in curve.branches], result.corner))}


# (metric prefix, module, attribute path, kind, hook before, hook after)
TARGETS = [
    ("cli.load_curve", "cli", "load_curve", "span", None, None),
    ("curve.h_oracle", "curve", "h_oracle", "span", _h_oracle, None),
    ("curve.branch_delta", "curve", "branch_delta", "span", None, None),
    ("curve.intersection_multiplicity", "curve",
     "intersection_multiplicity", "span", None, None),
    ("curve.monomial", "curve", "BranchParametrization.monomial", "timed",
     None, None),
    ("exactalg.rank_rational", "exactalg", "rank_rational", "span",
     _matrix, None),
    ("exactalg.smith_normal_form", "exactalg", "smith_normal_form", "span",
     _matrix, None),
    ("exactalg.series_mul", "exactalg", "series_mul", "count", None, None),
    ("hilbert.build_table", "hilbert", "build_table", "span", None,
     _build_table),
    ("hilbert.invariants", "hilbert", "invariants", "span", _invariants,
     None),
    ("hilbert.large_n_step_check", "hilbert", "large_n_step_check", "span",
     None, None),
    ("hilbert.symmetry_check", "hilbert", "symmetry_check", "span", None,
     None),
    ("hilbert.semigroup", "hilbert", "semigroup", "span", None, None),
    ("hilbert.local_matroid", "hilbert", "local_matroid", "count", None,
     None),
    ("series.alexander", "series", "alexander", "span", None, None),
    ("series.torres_restriction_check", "series", "torres_restriction_check",
     "span", None, None),
    ("series.poincare_from_hilbert", "series", "poincare_from_hilbert",
     "span", None, None),
    ("series.motivic_normalized", "series", "motivic_normalized", "span",
     None, None),
    ("oslattice.du_homology", "oslattice", "du_homology", "span",
     _du_homology, None),
    ("oslattice.homology_from_boundaries", "oslattice",
     "homology_from_boundaries", "span", None, None),
    ("oslattice.d0_structure_checks", "oslattice", "d0_structure_checks",
     "span", None, None),
    ("latthom.grv_homology", "latthom", "grv_homology", "span", None, None),
    ("latthom.euler_check", "latthom", "euler_check", "span", None, None),
    ("latthom.sk_homology", "latthom", "sk_homology", "span", None, None),
    ("latthom.r1_structure", "latthom", "r1_structure", "span", None, None),
    ("latthom.r2_classify", "latthom", "r2_classify", "span", None, None),
]


class Tracer:
    r"""In-memory spans, per-function totals and verify stage marks."""

    def __init__(self):
        # each span: [name, start, end, parent index, child seconds, extra]
        self.spans = []
        self.stack = []
        self.totals = {}
        self.marks = []

    def _span(self, name, fn, before, after):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, extra]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][4] += end - record[1]
            if after:
                record[5] = dict(extra or {}, **after(args, result))
            return result
        return wrapper

    def _timed(self, name, fn):
        spans, stack = self.spans, self.stack
        total = self.totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                total[0] += 1
                total[1] += took
                if stack:
                    spans[stack[-1]][4] += took
        return wrapper

    def _count(self, name, fn):
        total = self.totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            total[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def wrap(self, name, kind, fn, before=None, after=None):
        if kind == "span":
            return self._span(name, fn, before, after)
        if kind == "timed":
            return self._timed(name, fn)
        return self._count(name, fn)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "totals": self.totals,
                       "marks": self.marks}, handle)


def install(tracer):
    r"""
    Rebind every target in every imported ``curvelat`` module.

    A target with no binding raises, so a renamed function cannot
    silently drop out of the trace.
    """
    import curvelat  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "curvelat"
                                     or n.startswith("curvelat."))]
    for name, module, path, kind, before, after in TARGETS:
        owner = sys.modules["curvelat." + module]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, kind, original, before, after)
        holders = [owner] if cls_path else modules
        count = 0
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    count += 1
        if not count:
            raise RuntimeError("no binding of %s found" % name)


class StageClock:
    r"""
    Stdout proxy that timestamps ``ok``/``skip`` lines as they are
    printed, so stage times do not depend on pipe buffering.
    """

    def __init__(self, stream, marks):
        self._stream = stream
        self._marks = marks

    def write(self, text):
        if text.startswith(("ok ", "skip ")):
            self._marks.append((clock(), text.split()[1]))
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)
