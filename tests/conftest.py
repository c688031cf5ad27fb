import contextlib
import json
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# wall-time bound of each phase (setup, call, teardown) of a test, far
# above the slowest test (~3 s), so that a loop that never ends fails its
# own test instead of hanging the suite
TIME_BOUND_S = 60


class TimeBoundExceeded(BaseException):
    r"""
    Raised in a test that runs past TIME_BOUND_S.  A BaseException, so
    neither the test's own ``except Exception`` nor Hypothesis, which
    would rerun a failing example to shrink it, catches it.
    """


@contextlib.contextmanager
def _bounded(item):
    def expire(signum, frame):
        raise TimeBoundExceeded("%s ran past %d s"
                                % (item.nodeid, TIME_BOUND_S))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _TimeBound:
    # each phase on its own, so that a fixture's setup is bounded too

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        with _bounded(item):
            yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        with _bounded(item):
            yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(self, item):
        with _bounded(item):
            yield


def pytest_configure(config):
    # a plugin rather than a hook of this conftest, so that it also bounds
    # the tests under bench/ when one run collects both directories
    config.pluginmanager.register(_TimeBound(), "curvelat-time-bound")


DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "curvelat", "data")

CORPUS = ["line", "cusp", "t2t5", "a3", "a5", "a7", "d5", "triple"]

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                         "curves")


BENCH_CURVES = ["a31", "four", "tacnode3"]


def corpus_path(name):
    return os.path.join(DATA_DIR, name + ".json")


def bench_curve(name):
    from curvelat.cli import load_curve

    return load_curve(os.path.join(BENCH_DIR, name + ".json"))


def named_curve(name):
    r"""A curve of CORPUS or of BENCH_CURVES, by name."""
    return corpus_curve(name) if name in CORPUS else bench_curve(name)


def cell(table, v):
    r"""The index of the point v of [0, l] in the flat list table.values."""
    return sum(c * stride for c, stride in zip(v, table.strides))


def shifted_readers(table, point, d):
    r"""
    Replacements for the table's cube and grid, by method name, that
    read h + d at point only: every cube and every grid that covers the
    point sees the shift, and no other value changes.
    """
    cube, grid = table.cube, table.grid

    def shifted_cube(v):
        return [h + (d if tuple(c + (mask >> j & 1)
                                for j, c in enumerate(v)) == point else 0)
                for mask, h in enumerate(cube(v))]

    def shifted_grid(top):
        values = grid(top)
        if all(0 <= c <= t for c, t in zip(point, top)):
            k = 0
            for c, t in zip(point, top):
                k = k * (t + 1) + c
            values[k] += d
        return values

    return {"cube": shifted_cube, "grid": shifted_grid}


def first_points(table, box):
    r"""
    The first point, in lexicographic order, of each distinct local rank
    vector h(v + e_K) - h(v) of [0, box], read point by point off cubes.
    """
    from curvelat.hilbert import box_points

    firsts = {}
    for v in box_points(box):
        cube = table.cube(v)
        firsts.setdefault(tuple(h - cube[0] for h in cube), v)
    return list(firsts.values())


def count_reader_calls(monkeypatch, names):
    r"""
    Patch the named HilbertTable readers to record each call, and
    return the records: a dict from each name to the list of the
    tuples its point or top argument was given as.
    """
    from curvelat.hilbert import HilbertTable

    calls = {name: [] for name in names}
    for name in names:
        method = getattr(HilbertTable, name)

        def counting(self, v, _name=name, _method=method):
            calls[_name].append(tuple(v))
            return _method(self, v)

        monkeypatch.setattr(HilbertTable, name, counting)
    return calls


def sparse_rows(rows):
    r"""
    Dense rows (lists or tuples) as the sparse rows that the package's
    matrix functions take: one dict per row, from a column to its entry.
    Zero entries are kept, so that the functions' own dropping of them
    is under test too.
    """
    return [dict(enumerate(row)) for row in rows]


def full_series(table):
    r"""The pi series of the table over [0, l + 2] (l the conductor)."""
    from curvelat.series import poincare_from_hilbert

    return poincare_from_hilbert(
        table, tuple(c + 2 for c in table.invariants.conductor))


def corpus_curve(name):
    from curvelat.curve import BranchParametrization, Curve

    with open(corpus_path(name)) as fh:
        doc = json.load(fh)
    branches = [
        BranchParametrization.from_strings(b["x"], b["y"], doc["truncation"])
        for b in doc["branches"]
    ]
    return Curve(branches)
