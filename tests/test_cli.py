"""Command line interface: outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint

import pytest

from conftest import CORPUS, corpus_path

import curvelat.curve
import curvelat.hilbert
import curvelat.latthom
import curvelat.series
from curvelat.cli import load_curve, main
from curvelat.errors import CurveSchemaError


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, payload):
    target = tmp_path / "curve.json"
    if isinstance(payload, str):
        target.write_text(payload)
    else:
        target.write_text(json.dumps(payload))
    return str(target)


def test_value_pin(capsys):
    code, out, _ = _run(capsys, ["value", corpus_path("a3"),
                                 "--at", "2,2"])
    assert code == 0
    assert out == "2\n"


def test_value_json(capsys):
    code, out, _ = _run(capsys, ["value", corpus_path("a3"),
                                 "--at", "2,2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data == {"schema": 1, "at": [2, 2], "value": 2}


def test_value_wrong_arity(capsys):
    code, _, err = _run(capsys, ["value", corpus_path("a3"),
                                 "--at", "2"])
    assert code == 2
    assert "coordinates" in err


def test_hilbert_grid_pin(capsys):
    code, out, _ = _run(capsys, ["hilbert", corpus_path("a3"),
                                 "--box", "2,2"])
    assert code == 0
    assert out == "2 2 2\n1 1 2\n0 1 2\n"


def test_hilbert_single_branch_row(capsys):
    code, out, _ = _run(capsys, ["hilbert", corpus_path("cusp"),
                                 "--box", "4"])
    assert code == 0
    assert out == "0 1 1 2 3\n"


def test_hilbert_three_branches_lists_points(capsys):
    code, out, _ = _run(capsys, ["hilbert", corpus_path("triple"),
                                 "--box", "1,1,1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "0,0,0: 0"
    assert len(lines) == 8


def test_hilbert_json_deterministic(capsys):
    argv = ["hilbert", corpus_path("a3"), "--box", "3,3",
            "--format", "json"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    code, second, _ = _run(capsys, argv)
    assert first == second
    data = json.loads(first)
    assert data["schema"] == 1
    assert data["box"] == [3, 3]
    assert data["values"]["2,2"] == 2


def test_semigroup_grid_one_branch(capsys):
    code, out, _ = _run(capsys, ["semigroup", corpus_path("cusp")])
    assert code == 0
    assert out.strip().split("\n") == ["* . * *", "conductor: 2"]
    code, out, _ = _run(capsys, ["semigroup", corpus_path("cusp"),
                                 "--box", "5"])
    assert code == 0
    assert out.strip().split("\n") == ["* . * * * *", "conductor: 2"]


def test_semigroup_grid_two_branches(capsys):
    # origin lower-left, v1 rightward, v2 upward
    code, out, _ = _run(capsys, ["semigroup", corpus_path("a3")])
    assert code == 0
    assert out.strip().split("\n") == [
        ". . * *",
        ". . * *",
        ". * . .",
        "* . . .",
        "conductor: 2 2",
    ]


def test_semigroup_json(capsys):
    code, out, _ = _run(capsys, ["semigroup", corpus_path("d5"),
                                 "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["conductor"] == [2, 4]
    assert [1, 2] in data["members"]
    assert [1, 0] not in data["members"]


def test_series_pins(capsys):
    for kind, name, want in [("poincare", "a3", "1 + t1*t2"),
                             ("alexander", "d5", "1 + t1*t2^3"),
                             ("alexander", "cusp", "1 - t + t^2"),
                             ("motivic", "cusp", "1 - q*t + q*t^2")]:
        code, out, _ = _run(capsys, ["series", kind, corpus_path(name)])
        assert code == 0
        assert out == want + "\n"


def test_series_json_terms(capsys):
    code, out, _ = _run(capsys, ["series", "alexander",
                                 corpus_path("cusp"), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "alexander"
    assert data["canonical"] == "1 - t + t^2"
    assert data["terms"] == [{"v": [0], "q": 0, "c": 1},
                             {"v": [1], "q": 0, "c": -1},
                             {"v": [2], "q": 0, "c": 1}]


def test_homology_pins(capsys):
    code, out, _ = _run(capsys, ["homology", corpus_path("a3"),
                                 "--at", "1,0"])
    assert code == 0
    assert out == "0\n"
    code, out, _ = _run(capsys, ["homology", corpus_path("a3"),
                                 "--at", "2,2"])
    assert code == 0
    assert out == "Z@-4 Z@-5\n"


def test_homology_box(capsys):
    code, out, _ = _run(capsys, ["homology", corpus_path("cusp"),
                                 "--box", "3"])
    assert code == 0
    assert out == "0: Z@0\n1: 0\n2: Z@-2\n3: Z@-4\n"


def test_homology_json(capsys):
    code, out, _ = _run(capsys, ["homology", corpus_path("a3"),
                                 "--at", "2,2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["groups"] == {"-4": {"rank": 1, "torsion": []},
                              "-5": {"rank": 1, "torsion": []}}


def test_homology_requires_exactly_one_selector(capsys):
    code, _, err = _run(capsys, ["homology", corpus_path("a3")])
    assert code == 2
    assert "exactly one" in err
    code, _, err = _run(capsys, ["homology", corpus_path("a3"),
                                 "--at", "1,1", "--box", "2,2"])
    assert code == 2


def test_invariants_table(capsys):
    code, out, _ = _run(capsys, ["invariants", corpus_path("d5")])
    assert code == 0
    assert "delta: 3" in out
    assert "mu: 5" in out
    assert "conductor: 2 4" in out
    assert "pairwise[0]: 0 2" in out


def test_invariants_json(capsys):
    code, out, _ = _run(capsys, ["invariants", corpus_path("triple"),
                                 "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["delta"] == 3
    assert data["mu"] == 4
    assert data["pairwise"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_verify_passes_whole_corpus(capsys):
    for name in CORPUS:
        code, out, _ = _run(capsys, ["verify", corpus_path(name)])
        assert code == 0, name
        assert "all checks passed" in out
        assert "ok graded-homology" in out


@pytest.mark.parametrize("name", ["cusp", "d5", "triple"])
def test_verify_deep_passes_with_the_same_stages(capsys, name):
    code, plain, _ = _run(capsys, ["verify", corpus_path(name)])
    assert code == 0
    code, deep, _ = _run(capsys, ["verify", "--deep", corpus_path(name)])
    assert code == 0
    assert deep == plain
    assert len(deep.splitlines()) == 15
    assert deep.splitlines()[-1] == "all checks passed"


def _rebind(monkeypatch, original, replacement):
    # every curvelat module that imported original gets the replacement
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("curvelat"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("name, distinct", [("triple", 7), ("d5", 3)])
def test_verify_builds_each_table_once(capsys, monkeypatch, name, distinct):
    # one table per nonempty branch subset, identified by its branch
    # objects and its checked corner
    original = curvelat.hilbert.build_table
    keys = []

    def counting(curve, *args, **kwargs):
        table = original(curve, *args, **kwargs)
        keys.append((tuple(id(b) for b in curve.branches), table.corner))
        return table

    _rebind(monkeypatch, original, counting)
    code, _, _ = _run(capsys, ["verify", corpus_path(name)])
    assert code == 0
    assert len(keys) == len(set(keys)) == distinct


@pytest.mark.parametrize("name, pieces", [("cusp", 5), ("d5", 35)])
def test_verify_computes_each_graded_piece_once(capsys, monkeypatch, name,
                                                pieces):
    # one grv_homology call per point of the box up to conductor + 2,
    # shared by the branch-structure stage: cusp has conductor 2 (5
    # points), d5 has conductor (2, 4) (a 5 x 7 box)
    original = curvelat.latthom.grv_homology
    points = []

    def counting(table, v, *args, **kwargs):
        points.append(v)
        return original(table, v, *args, **kwargs)

    _rebind(monkeypatch, original, counting)
    code, _, _ = _run(capsys, ["verify", corpus_path(name)])
    assert code == 0
    assert len(points) == len(set(points)) == pieces


def test_verify_checks_each_branch_pair_once(capsys, monkeypatch):
    # the round trip's and the restriction check's subcurves share the
    # branch objects, so triple's 3 pairs are scanned and checked once
    original = curvelat.curve._local_intersection_check
    checks = []

    def counting(*args):
        checks.append(args[-1])
        return original(*args)

    monkeypatch.setattr(curvelat.curve, "_local_intersection_check",
                        counting)
    code, _, _ = _run(capsys, ["verify", corpus_path("triple")])
    assert code == 0
    assert checks == [1, 1, 1]


def test_verify_reads_each_series_once(capsys, monkeypatch):
    # the round trip's 7 pi series feed the restriction check as well,
    # and the Alexander polynomial is computed by its own stage only
    calls = {"alexander": 0, "poincare_from_hilbert": 0}
    for name in calls:
        original = getattr(curvelat.series, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        _rebind(monkeypatch, original, counting)
    code, _, _ = _run(capsys, ["verify", corpus_path("triple")])
    assert code == 0
    assert calls == {"alexander": 1, "poincare_from_hilbert": 7}


@pytest.mark.parametrize("name, pairs", [("cusp", 5), ("d5", 35 + 5 + 7),
                                         ("triple", 125 + 3 * 25 + 3 * 5)])
def test_verify_reads_each_pi_value_once(capsys, monkeypatch, name, pairs):
    # the round trip's series serve the alexander, restriction and euler
    # stages, so pi is evaluated once per (table, point) of the verify
    # box, and the polynomial is computed once
    reads, alexanders = [], []
    pi_value, alexander = curvelat.series.pi_value, curvelat.series.alexander

    def counting_pi(table, v):
        reads.append((id(table), tuple(v)))
        return pi_value(table, v)

    def counting_alexander(*args):
        alexanders.append(args)
        return alexander(*args)

    _rebind(monkeypatch, pi_value, counting_pi)
    _rebind(monkeypatch, alexander, counting_alexander)
    code, _, _ = _run(capsys, ["verify", corpus_path(name)])
    assert code == 0
    assert len(reads) == len(set(reads)) == pairs
    assert len(alexanders) == 1


def test_missing_file(capsys):
    code, _, err = _run(capsys, ["value", "/nonexistent/c.json",
                                 "--at", "1"])
    assert code == 2
    assert err


def test_invalid_json(capsys, tmp_path):
    path = _write(tmp_path, "{not json")
    code, _, err = _run(capsys, ["invariants", path])
    assert code == 2
    assert "invalid JSON" in err


def test_zero_branch_names_the_truncation(capsys, tmp_path):
    path = _write(tmp_path, {"truncation": 2,
                             "branches": [{"x": "t^2", "y": "t^3"}]})
    code, _, err = _run(capsys, ["invariants", path])
    assert code == 1
    assert err == ("InvalidParametrization: both coordinates are zero "
                   "modulo t^2\n")


def test_schema_errors(tmp_path):
    bad = [
        ([1, 2], "top level"),
        ({"branches": [{"x": "t", "y": "0"}]}, "truncation"),
        ({"truncation": True, "branches": [{"x": "t", "y": "0"}]},
         "truncation"),
        ({"truncation": 8, "branches": []}, "branches"),
        ({"truncation": 8, "branches": ["t"]}, "branches[0]"),
        ({"truncation": 8, "branches": [{"x": "t"}]}, "branches[0].y"),
        ({"truncation": 8, "branches": [{"x": "t", "y": 3}]},
         "branches[0].y"),
    ]
    for payload, needle in bad:
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(payload))
        with pytest.raises(CurveSchemaError) as info:
            load_curve(str(target))
        assert needle in str(info.value)


def test_module_error_exit_code(capsys, tmp_path):
    path = _write(tmp_path, {"truncation": 16,
                             "branches": [{"x": "t^2", "y": "t^4"}]})
    code, _, err = _run(capsys, ["invariants", path])
    assert code == 1
    assert err.startswith("PrimitivityError:")


def test_argparse_failures(capsys):
    assert main([]) == 2
    assert main(["unknown-command"]) == 2
    assert main(["series", "nonsense", corpus_path("a3")]) == 2
    capsys.readouterr()


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# The wrapper pip writes for a console_scripts entry point.
CONSOLE_SCRIPT = """import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.exit({attr}())
"""


def _run_python(*argv):
    # a fresh interpreter with this checkout's src/ first on the path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True)


def test_console_script_installed(tmp_path):
    # Runs the declared entry point the way an installed `curvelat`
    # command runs it, against this checkout's src/ rather than
    # whatever copy is on PATH.
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "curvelat" in scripts, "no curvelat entry in [project.scripts]"
    ep = EntryPoint("curvelat", scripts["curvelat"], "console_scripts")
    exe = tmp_path / "curvelat"
    exe.write_text(CONSOLE_SCRIPT.format(module=ep.module, attr=ep.attr))
    proc = _run_python(str(exe), "value", corpus_path("a3"), "--at", "2,2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"
    proc = _run_python(str(exe), "value", "/nonexistent.json", "--at", "1,1")
    assert proc.returncode == 2


def test_python_m_curvelat():
    proc = _run_python("-m", "curvelat", "value", corpus_path("a3"),
                       "--at", "2,2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"
    assert proc.stderr == ""


def test_runs_without_sympy():
    # sys.modules[name] = None makes every import of that name fail
    script = """import sys
sys.modules["sympy"] = None
from curvelat.cli import main
codes = [main(["verify", "src/curvelat/data/d5.json"]),
         main(["invariants", "bench/curves/four.json"])]
sys.exit(max(codes))
"""
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed\nr: 4\ndelta: 6\n" in proc.stdout
    assert proc.stderr == ""
