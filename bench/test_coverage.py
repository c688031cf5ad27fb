r"""
Wrapper coverage of ``bench/tracer.py``.

On ``verify d5`` the traced call count of every wrapped function must
equal cProfile's ``ncalls`` for that function.  A binding that
``tracer.install`` missed (say a new ``from .x import y``) shows up as
fewer traced calls than profiled ones.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_coverage.py
"""

import contextlib
import cProfile
import io
import json
import os
import pstats
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

CURVE = os.path.join("src", "curvelat", "data", "d5.json")


def _target_code(module, path):
    owner = sys.modules["curvelat." + module]
    for part in path.split("."):
        owner = getattr(owner, part)
    code = owner.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _profiled_calls():
    from curvelat import cli

    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        assert profile.runcall(cli.main, ["verify", CURVE]) == 0
    stats = pstats.Stats(profile).stats
    calls = {}
    for name, module, path, _kind, _before, _after in tracer.TARGETS:
        entry = stats.get(_target_code(module, path))
        calls[name] = entry[1] if entry else 0
    return calls


def _traced_calls():
    with tempfile.TemporaryDirectory(prefix="run-", dir=HERE) as workdir:
        out = os.path.join(workdir, "trace.json")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--trace", out,
             "--", "verify", CURVE],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        with open(out) as handle:
            trace = json.load(handle)
    calls = {name: 0 for name, *_ in tracer.TARGETS}
    for span in trace["spans"]:
        calls[span[0]] += 1
    for name, (count, _seconds) in trace["totals"].items():
        calls[name] += count
    return calls


def test_traced_counts_match_cprofile(monkeypatch):
    monkeypatch.chdir(ROOT)
    profiled = _profiled_calls()
    traced = _traced_calls()
    assert traced == profiled
    # d5 has two branches, so all but the one-branch structure check run
    unused = {name for name, count in profiled.items() if count == 0}
    assert unused == {"latthom.r1_structure"}
