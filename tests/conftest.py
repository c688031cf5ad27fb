import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "curvelat", "data")

CORPUS = ["line", "cusp", "t2t5", "a3", "a5", "a7", "d5", "triple"]

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                         "curves")


def corpus_path(name):
    return os.path.join(DATA_DIR, name + ".json")


def bench_curve(name):
    from curvelat.cli import load_curve

    return load_curve(os.path.join(BENCH_DIR, name + ".json"))


def cell(table, v):
    r"""The index of the point v of [0, l] in the flat list table.values."""
    return sum(c * stride for c, stride in zip(v, table.strides))


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
