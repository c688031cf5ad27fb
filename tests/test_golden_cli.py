"""
Golden CLI outputs: every subcommand, replayed through ``cli.main``.

``golden_cli.txt`` holds the stdout and exit code of each subcommand on
the shipped curves, in both ``--format``s where the command has them.
``golden_series.txt`` holds the three ``series`` kinds on the benchmark
curves ``a31``, ``four`` and ``tacnode3`` (r = 2, 4 and 3), since the
shipped curves stop at r = 3.  Each record is a line ``$ <argv>``
(curve files named by their basename in ``src/curvelat/data`` or
``bench/curves``), a line ``? <exit code> <stdout line count>``, then
that many lines of stdout.

Run ``PYTHONPATH=src python tests/test_golden_cli.py`` to rewrite both
fixtures from the current code. Do that only for an intended output
change, and say so.
"""

import contextlib
import io
import json
import os

import pytest

from conftest import BENCH_CURVES, BENCH_DIR, CORPUS, DATA_DIR

from curvelat.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_cli.txt")
SERIES_FIXTURE = os.path.join(os.path.dirname(__file__), "golden_series.txt")
FORMATS = ("table", "json")


def _branch_count(name):
    with open(os.path.join(DATA_DIR, name + ".json")) as fh:
        return len(json.load(fh)["branches"])


def _cases():
    for name in CORPUS:
        r = _branch_count(name)
        path = name + ".json"

        def point(a):
            return ",".join([str(a)] * r)

        box = point(6 if r < 3 else 3)
        for fmt in FORMATS:
            f = ["--format", fmt]
            yield ["invariants", path] + f
            for a in (2, 9):
                yield ["value", path, "--at", point(a)] + f
            yield ["hilbert", path] + f
            yield ["hilbert", path, "--box", box] + f
            yield ["semigroup", path] + f
            yield ["semigroup", path, "--box", box] + f
            for kind in ("poincare", "motivic", "alexander"):
                yield ["series", kind, path] + f
            for a in (1, 3):
                yield ["homology", path, "--at", point(a)] + f
        yield ["verify", path]
        yield ["verify", "--deep", path]


def _series_cases():
    for name in BENCH_CURVES:
        for fmt in FORMATS:
            for kind in ("poincare", "motivic", "alexander"):
                yield ["series", kind, name + ".json", "--format", fmt]


def _argv(tokens):
    return [os.path.join(BENCH_DIR if t[:-5] in BENCH_CURVES else DATA_DIR, t)
            if t.endswith(".json") else t for t in tokens]


def _run(tokens):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(_argv(tokens))
    return code, buffer.getvalue()


def _read_fixture(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    records, i = [], 0
    while i < len(lines) and lines[i]:
        assert lines[i].startswith("$ ")
        tokens = lines[i][2:].split(" ")
        mark, code, count = lines[i + 1].split(" ")
        assert mark == "?"
        count = int(count)
        out = "".join(line + "\n" for line in lines[i + 2:i + 2 + count])
        records.append((tokens, int(code), out))
        i += 2 + count
    return records


_RECORDS = _read_fixture(FIXTURE) if os.path.exists(FIXTURE) else []
_SERIES_RECORDS = (_read_fixture(SERIES_FIXTURE)
                   if os.path.exists(SERIES_FIXTURE) else [])


@pytest.mark.parametrize("tokens, code, out", _RECORDS,
                         ids=["-".join(r[0]) for r in _RECORDS])
def test_golden_cli(tokens, code, out):
    assert _run(tokens) == (code, out)


@pytest.mark.parametrize("tokens, code, out", _SERIES_RECORDS,
                         ids=["-".join(r[0]) for r in _SERIES_RECORDS])
def test_golden_series(tokens, code, out):
    assert _run(tokens) == (code, out)


def test_fixture_covers_every_case():
    assert [r[0] for r in _RECORDS] == list(_cases())
    assert [r[0] for r in _SERIES_RECORDS] == list(_series_cases())


def _record(path, cases):
    chunks = []
    for tokens in cases:
        code, out = _run(tokens)
        assert out == "" or out.endswith("\n"), tokens
        body = out.split("\n")[:-1]
        chunks.append("$ %s\n? %d %d\n" % (" ".join(tokens), code, len(body)))
        chunks.extend(line + "\n" for line in body)
    with open(path, "w") as fh:
        fh.write("".join(chunks))


if __name__ == "__main__":
    _record(FIXTURE, _cases())
    _record(SERIES_FIXTURE, _series_cases())
