"""Command line interface: outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint

import pytest

from conftest import (BENCH_CURVES, BENCH_DIR, CORPUS, corpus_path,
                      count_reader_calls, first_points)

import curvelat.curve
import curvelat.hilbert
import curvelat.latthom
import curvelat.oslattice
import curvelat.series
import curvelat.verify
from curvelat.cli import load_curve, main
from curvelat.errors import ConsistencyError, CurveSchemaError
from curvelat.hilbert import box_points, build_table
from curvelat.oslattice import GradedGroup


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


def test_hilbert_reads_its_box_from_one_grid(capsys, monkeypatch):
    # the build's sweep reads [0, bound + 1] and the command reads the
    # box; the only value calls left are the build's spot check
    curve, box = load_curve(corpus_path("a3")), (16, 16)
    calls = count_reader_calls(monkeypatch, ["grid", "value"])
    curvelat.hilbert.build_table(curve, box)
    spot_checks = len(calls["value"])
    calls["grid"].clear()
    calls["value"].clear()
    code, _, _ = _run(capsys, ["hilbert", corpus_path("a3"),
                               "--box", "16,16"])
    assert code == 0
    assert calls["grid"] == [(17, 17), (16, 16)]
    assert len(calls["value"]) == spot_checks


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


def test_rational_twin_of_a3_prints_the_lines_of_a3(capsys, tmp_path):
    # (t, 1/2 t^2), (t, -1/3 t^2) is a3 with y scaled on each branch, and
    # its jets are computed in Fractions before they are scaled to ints
    twin = _write(tmp_path, {"truncation": 32, "branches": [
        {"x": "t", "y": "1/2*t^2"}, {"x": "t", "y": "-1/3*t^2"}]})
    for command in ["invariants", "hilbert", "verify"]:
        code, out, err = _run(capsys, [command, twin])
        assert (code, out, err) == _run(capsys, [command, corpus_path("a3")])
        assert code == 0


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


def test_verify_prints_each_stage_as_it_finishes(capsys, monkeypatch):
    # a failing stage leaves the lines of the stages before it
    def fail(table):
        raise ConsistencyError("symmetry fails")

    monkeypatch.setattr(curvelat.verify, "symmetry_check", fail)
    code, out, err = _run(capsys, ["verify", corpus_path("d5")])
    assert code == 1
    assert out == "ok invariants\nok hilbert-table\n"
    assert err.startswith("ConsistencyError:")


@pytest.mark.parametrize("branches, need", [
    ([{"x": "t^2", "y": "t^3"}], 6),
    ([{"x": "t^2", "y": "t^3"}, {"x": "t^3", "y": "t^2"}], 10)])
def test_verify_refuses_a_short_truncation_before_building_a_table(
        capsys, monkeypatch, tmp_path, branches, need):
    # the large-index steps rank h up to max(l) + 4 (the
    # conductors are (2,) and (6, 6)); one term fewer is refused right
    # after the invariants, naming that need, with no table built
    original = curvelat.hilbert.build_table
    built = []

    def counting(curve, *args, **kwargs):
        built.append(curve.truncation)
        return original(curve, *args, **kwargs)

    _rebind(monkeypatch, original, counting)
    for deep in [], ["--deep"]:
        short = _write(tmp_path, {"truncation": need - 1,
                                  "branches": branches})
        code, out, err = _run(capsys, ["verify", *deep, short])
        assert (code, out, built) == (1, "ok invariants\n", [])
        assert err == ("InsufficientTruncation: verify needs %d series "
                       "terms but only %d are kept\n" % (need, need - 1))
        enough = _write(tmp_path, {"truncation": need, "branches": branches})
        code, out, _ = _run(capsys, ["verify", *deep, enough])
        assert code == 0 and out.endswith("all checks passed\n")
        assert set(built) == {need}
        built.clear()


def test_verify_refuses_a_sublevel_complex_that_is_not_contractible(
        monkeypatch):
    original = curvelat.verify.sk_homology

    def sk_homology(table, v, k):
        if k == 1:
            return GradedGroup({0: (2, ())})
        return original(table, v, k)

    monkeypatch.setattr(curvelat.verify, "sk_homology", sk_homology)
    stages = []
    with pytest.raises(ConsistencyError,
                       match="level 1 is not contractible"):
        for _status, stage in curvelat.verify.run(load_curve(
                corpus_path("d5"))):
            stages.append(stage)
    assert stages[-1] == "arrangement-structure"


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
    # the pieces of the box up to conductor + 2, shared by the
    # branch-structure stage (cusp has conductor 2, 5 points; d5 has
    # (2, 4), a 5 x 7 box), take one grv_homology call per distinct local
    # rank vector, at its first point (2 on cusp, 5 on d5), and equal
    # grv_homology at every point of the box
    original = curvelat.latthom.grv_homology
    pieces_of_box = curvelat.latthom.graded_pieces
    points, kept = [], []

    def counting(table, v):
        points.append(v)
        return original(table, v)

    def keeping(table, box):
        kept.append((box, pieces_of_box(table, box)))
        return kept[-1][1]

    _rebind(monkeypatch, original, counting)
    _rebind(monkeypatch, pieces_of_box, keeping)
    code, _, _ = _run(capsys, ["verify", corpus_path(name)])
    assert code == 0
    [(box, result)] = kept
    table = build_table(load_curve(corpus_path(name)), box)
    assert points == first_points(table, box)
    assert len(points) == {"cusp": 2, "d5": 5}[name]
    assert list(result) == list(box_points(box))
    assert len(result) == pieces
    assert result == {v: original(table, v) for v in box_points(box)}


@pytest.mark.parametrize("name", ["cusp", "d5", "triple"])
def test_verify_field_stages_read_one_grid_and_no_cube(monkeypatch, name):
    # semigroup, motivic, euler and graded-homology read one grid per box,
    # one point past it, and no cube or value of their own: semigroup's
    # field of [0, l + 1] serves motivic and euler too, and every cube or
    # value read in them is made by a point reader (q-polynomial, local
    # complex, formula route) run at the first point of a vector
    calls = count_reader_calls(monkeypatch, ["cube", "grid", "value"])
    inside = dict.fromkeys(calls, 0)
    depth = [0]

    def reader(original):
        def wrapped(table, v):
            before = {k: len(c) for k, c in calls.items()}
            depth[0] += 1
            try:
                return original(table, v)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    for k, c in calls.items():
                        inside[k] += len(c) - before[k]
        return wrapped

    for original in (curvelat.series.hv_polynomial,
                     curvelat.latthom.grv_homology_direct,
                     curvelat.latthom.grv_homology_formula):
        _rebind(monkeypatch, original, reader(original))
    curve = load_curve(corpus_path(name))
    l = curvelat.hilbert.invariants(curve).conductor
    stages, before, grids = {}, dict.fromkeys(calls, 0), 0
    for _status, stage in curvelat.verify.run(curve):
        outside = {k: len(c) - inside[k] for k, c in calls.items()}
        stages[stage] = ({k: outside[k] - before[k]
                          for k in ("cube", "value")}, calls["grid"][grids:])
        before, grids = outside, len(calls["grid"])
    assert inside["grid"] == 0
    for stage, margins in [("semigroup", [2]), ("motivic", []),
                           ("euler", []), ("graded-homology", [3])]:
        assert stages[stage] == ({"cube": 0, "value": 0},
                                 [tuple(c + m for c in l)
                                  for m in margins]), stage


@pytest.mark.parametrize("name, deep", [("cusp", False), ("d5", False),
                                        ("triple", True)])
def test_verify_builds_one_field_per_table_and_box(monkeypatch, name, deep):
    # the field of [0, l + 1] that semigroup, motivic and euler read, and
    # that of the graded box, each built once on the one full table
    fields = []
    original = curvelat.hilbert._local_field

    def counting(table, box):
        fields.append((table, box))
        return original(table, box)

    monkeypatch.setattr(curvelat.hilbert, "_local_field", counting)
    curve = load_curve(corpus_path(name))
    l = curvelat.hilbert.invariants(curve).conductor
    stages = [stage for _, stage in curvelat.verify.run(curve, deep)]
    assert len(stages) == 14
    margin = 4 if deep else 2
    assert [box for _, box in fields] == [tuple(c + 1 for c in l),
                                          tuple(c + margin for c in l)]
    assert fields[0][0] is fields[1][0]


@pytest.mark.parametrize("path, reductions, matroids", [
    (corpus_path("triple"), 12, 15),
    (corpus_path("d5"), 5, 8),
    (os.path.join(BENCH_DIR, "tacnode3.json"), 15, 18),
], ids=["triple", "d5", "tacnode3"])
def test_verify_reduces_each_local_complex_once(capsys, monkeypatch, path,
                                                reductions, matroids):
    # the graded pieces reduce one U-extended complex per distinct local
    # rank vector of the verify box, and build a matroid only for those;
    # the other 3 matroids are the arrangement-structure stage's
    original_du = curvelat.oslattice.du_homology
    original_matroid = curvelat.oslattice.Matroid
    ranks, built = [], []

    def counting_du(matroid):
        ranks.append(tuple(sorted(matroid.rank.items())))
        return original_du(matroid)

    class CountingMatroid(original_matroid):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    _rebind(monkeypatch, original_du, counting_du)
    _rebind(monkeypatch, original_matroid, CountingMatroid)
    code, _, _ = _run(capsys, ["verify", path])
    assert code == 0
    assert len(ranks) == len(set(ranks)) == reductions
    assert len(built) == matroids


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
    # stages, so pi is computed once per (table, point) of the verify
    # box: each series covers its points from one grid and no cube,
    # pi_value is never called, and the polynomial is computed once
    points, reads, pi_reads, alexanders = [], [], [], []
    calls = count_reader_calls(monkeypatch, ["grid", "cube"])
    poincare = curvelat.series.poincare_from_hilbert
    pi_value, alexander = curvelat.series.pi_value, curvelat.series.alexander

    def counting_poincare(table, box):
        before = {k: len(c) for k, c in calls.items()}
        series = poincare(table, box)
        reads.append({k: len(c) - before[k] for k, c in calls.items()})
        points.extend((id(table), v) for v in box_points(box))
        return series

    def counting_pi(table, v):
        pi_reads.append(v)
        return pi_value(table, v)

    def counting_alexander(*args):
        alexanders.append(args)
        return alexander(*args)

    _rebind(monkeypatch, poincare, counting_poincare)
    _rebind(monkeypatch, pi_value, counting_pi)
    _rebind(monkeypatch, alexander, counting_alexander)
    code, _, _ = _run(capsys, ["verify", corpus_path(name)])
    assert code == 0
    assert len(points) == len(set(points)) == pairs
    assert reads == [{"grid": 1, "cube": 0}] * len(reads)
    assert pi_reads == []
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


def test_deeply_nested_json(capsys, tmp_path):
    # nested past the decoder's recursion limit: a bad file, not a crash
    path = _write(tmp_path, "[" * 100000 + "]" * 100000)
    code, _, err = _run(capsys, ["invariants", path])
    assert code == 2
    assert err.startswith("CurveSchemaError: %s: invalid JSON: " % path)


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


def test_dropped_term_exits_with_insufficient_truncation(capsys, tmp_path):
    path = _write(tmp_path, {"truncation": 32, "branches": [
        {"x": "t^2 + t^41", "y": "t^4"}]})
    code, _, err = _run(capsys, ["invariants", path])
    assert code == 1
    assert err.startswith("InsufficientTruncation:")
    assert "42 keeps it" in err


def test_non_decimal_digit_exits_with_poly_syntax_error(capsys, tmp_path):
    # '²' is a digit to str.isdigit but not a decimal digit
    path = _write(tmp_path, {"truncation": 16,
                             "branches": [{"x": "t^²", "y": "t^3"}]})
    code, _, err = _run(capsys, ["invariants", path])
    assert code == 1
    assert err == "PolySyntaxError: expected exponent (at offset 2)\n"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                    reason="int() reads numerals of any length")
def test_too_long_exponent_exits_with_poly_syntax_error(capsys, tmp_path):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    path = _write(tmp_path, {"truncation": 16,
                             "branches": [{"x": "t^" + digits, "y": "t"}]})
    code, _, err = _run(capsys, ["invariants", path])
    assert code == 1
    assert err == "PolySyntaxError: integer too long (at offset 2)\n"


def _json(payload):
    # main's JSON output of a payload
    return json.dumps(dict(payload, schema=1), sort_keys=True,
                      indent=2) + "\n"


A3, CUSP, LINE = (corpus_path(name) for name in ("a3", "cusp", "line"))
INVARIANTS_A3 = {"r": 2, "delta": 2, "delta_branches": [0, 0], "mu": 3,
                 "mu_branches": [0, 0], "pairwise": [[0, 2], [2, 0]],
                 "conductor": [2, 2]}
VERIFY_LINE = "".join(
    "ok %s\n" % stage for stage in (
        "invariants", "hilbert-table", "symmetry", "large-index-steps",
        "semigroup", "series-round-trip", "motivic", "alexander")
) + "skip restriction (single branch)\n" + "".join(
    "ok %s\n" % stage for stage in (
        "euler", "graded-homology", "arrangement-structure",
        "sublevel-contractible", "branch-structure")
) + "all checks passed\n"
COMMAND_NAMES = ["invariants", "value", "hilbert", "semigroup", "series",
                 "homology", "verify"]

# argv -> exit 0 and its stdout, or exit 2 and the message of its usage
# error; statuses, stdouts and messages are those argparse gave
ARGV_TABLE = [
    (["invariants", A3], 0,
     "r: 2\ndelta: 2\ndelta_branches: 0 0\nmu: 3\nmu_branches: 0 0\n"
     "pairwise[0]: 0 2\npairwise[1]: 2 0\nconductor: 2 2\n"),
    (["invariants", A3, "--format=json"], 0, _json(INVARIANTS_A3)),
    (["invariants", "--format", "json", A3], 0, _json(INVARIANTS_A3)),
    (["invariants", A3, "--form", "json"], 0, _json(INVARIANTS_A3)),
    (["value", "--at", "2,2", A3], 0, "2\n"),
    (["value", A3, "--at=2,2", "--f=json"], 0,
     _json({"at": [2, 2], "value": 2})),
    (["value", "--at", "2,2", "--", A3], 0, "2\n"),
    (["hilbert", "--bo", "4", CUSP], 0, "0 1 1 2 3\n"),
    (["semigroup", CUSP, "--box=6"], 0, "* . * * * * *\nconductor: 2\n"),
    (["series", "alexander", A3], 0, "1 + t1*t2\n"),
    (["homology", A3, "--at", "2,2"], 0, "Z@-4 Z@-5\n"),
    (["verify", "--deep", LINE], 0, VERIFY_LINE),
    (["verify", LINE, "--deep"], 0, VERIFY_LINE),
    (["verify", LINE, "--de"], 0, VERIFY_LINE),
    ([], 2, "the following arguments are required: command"),
    (["unknown-command"], 2,
     "argument command: invalid choice: 'unknown-command' (choose from %s)"
     % ", ".join(map(repr, COMMAND_NAMES))),
    (["series", "nonsense", A3], 2,
     "argument kind: invalid choice: 'nonsense' (choose from 'poincare', "
     "'motivic', 'alexander')"),
    (["series"], 2, "the following arguments are required: kind, curve"),
    (["value", A3], 2, "the following arguments are required: --at"),
    (["value", A3, "--at"], 2, "argument --at: expected one argument"),
    (["invariants"], 2, "the following arguments are required: curve"),
    (["invariants", A3, "--format", "xml"], 2,
     "argument --format: invalid choice: 'xml' (choose from 'table', "
     "'json')"),
    (["invariants", A3, "--bogus"], 2, "unrecognized arguments: --bogus"),
    (["invariants", A3, "extra"], 2, "unrecognized arguments: extra"),
    (["verify", "--format", "json", CUSP], 2,
     "unrecognized arguments: --format " + CUSP),
    (["verify", LINE, "--deep=1"], 2,
     "argument --deep: ignored explicit argument '1'"),
]


@pytest.mark.parametrize("argv, code, text", ARGV_TABLE,
                         ids=["_".join(os.path.basename(a)[:-5]
                                       if a.endswith(".json") else a
                                       for a in argv) or "no-command"
                              for argv, _, _ in ARGV_TABLE])
def test_argv_table(capsys, argv, code, text):
    got, out, err = _run(capsys, argv)
    assert got == code
    if code == 0:
        assert (out, err) == (text, "")
        return
    # a usage error: the usage line of the command, or of the whole
    # command line when no command is known, then the message
    assert out == ""
    usage, error = err.splitlines()
    command = argv[0] if argv and argv[0] in COMMAND_NAMES else "[-h]"
    assert usage.startswith("usage: curvelat %s " % command)
    assert error == "curvelat: error: " + text


HELP_NAMES = {
    None: COMMAND_NAMES,
    "invariants": ["curve", "--format {table,json}"],
    "value": ["curve", "--at V", "--format {table,json}"],
    "hilbert": ["curve", "--box B", "--format {table,json}"],
    "semigroup": ["curve", "--box B", "--format {table,json}"],
    "series": ["{poincare,motivic,alexander}", "curve",
               "--format {table,json}"],
    "homology": ["curve", "--at V", "--box B", "--format {table,json}"],
    "verify": ["curve", "--deep"],
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", list(HELP_NAMES))
def test_help_names_every_argument(capsys, command, flag):
    # help on stdout with status 0: the top level names every command,
    # a command every flag and positional
    code, out, err = _run(capsys, [command, flag] if command else [flag])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].startswith("usage: curvelat %s" % (command or "[-h]"))
    named = [line.split("  ")[1] for line in lines[1:]
             if line.startswith("  ")]
    assert sorted(named) == sorted(HELP_NAMES[command] + ["-h, --help"])


def test_flag_value_may_start_with_a_minus(capsys):
    # --at takes the next token whatever it starts with, so a point with
    # a negative coordinate reads as it does after "="
    for argv in (["value", A3, "--at", "-1,1"], ["value", A3, "--at=-1,1"],
                 ["value", "--at", "-1,1", A3]):
        assert _run(capsys, argv) == (0, "1\n", "")
    assert _run(capsys, ["homology", A3, "--at", "-1,2"]) == (0, "0\n", "")


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


def test_integral_curves_never_import_fractions(tmp_path):
    # every committed curve has integral coefficients, so loading it and
    # running a command computes in ints and loads neither fractions nor
    # the decimal module that fractions imports; no command loads
    # argparse or the gettext and locale modules it brings, and only
    # verify loads the verify battery; a curve with a rational
    # coefficient loads fractions
    half = _write(tmp_path, {"truncation": 8,
                             "branches": [{"x": "t", "y": "1/2*t^2"}]})
    paths = ([corpus_path(name) for name in CORPUS]
             + [os.path.join(BENCH_DIR, name + ".json")
                for name in BENCH_CURVES])
    script = """import contextlib, io, sys
import curvelat
from curvelat import cli
for path in sys.argv[1:-1]:
    cli.load_curve(path)
watched = {"fractions", "decimal", "argparse", "gettext", "locale",
           "curvelat.verify"}
for command in (["invariants"], ["hilbert"], ["series", "alexander"],
                ["verify"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(command + [sys.argv[1 + %d]])
    print(command[0], code, sorted(watched & set(sys.modules)))
cli.load_curve(sys.argv[-1])
print("fractions" in sys.modules)
""" % CORPUS.index("cusp")
    proc = _run_python("-c", script, *paths, half)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("invariants 0 []\nhilbert 0 []\nseries 0 []\n"
                           "verify 0 ['curvelat.verify']\nTrue\n")


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
    proc = _run_python("-m", "curvelat")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(
        "\ncurvelat: error: the following arguments are required: "
        "command\n")
    proc = _run_python("-m", "curvelat", "-h")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: curvelat [-h] ")


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
