"""Lattice homology: graded pieces, sublevel complexes, structure."""

import copy
import re
from itertools import product
from math import gcd

import pytest

from conftest import (BENCH_CURVES, CORPUS, cell, corpus_curve, full_series,
                      named_curve)
from oracles import cubical_homology_brute

import curvelat.latthom as latthom
from curvelat.curve import BranchParametrization, Curve
from curvelat.errors import (BoxTooSmall, ConsistencyError,
                             UnclassifiablePattern)
from curvelat.hilbert import build_table, local_matroid
from curvelat.series import BoxSeries, alexander, poincare_from_hilbert
from curvelat.latthom import (GradedGroup, euler_check, graded_pieces,
                              grv_homology, grv_homology_direct,
                              grv_homology_formula, r1_structure,
                              r2_classify, sk_homology)


def _table(name):
    return build_table(corpus_curve(name))


def _points(box):
    return [tuple(p) for p in product(*(range(b + 1) for b in box))]


def test_grv_pins_a3():
    table = _table("a3")
    assert grv_homology(table, (1, 0)) == GradedGroup({})
    assert grv_homology(table, (2, 2)) == GradedGroup(
        {-4: (1, ()), -5: (1, ())})
    assert grv_homology(table, (1, 1)) == GradedGroup({-2: (1, ())})


def test_grv_pins_cusp():
    table = _table("cusp")
    assert grv_homology(table, (2,)) == GradedGroup({-2: (1, ())})
    assert grv_homology(table, (1,)) == GradedGroup({})
    assert grv_homology(table, (0,)) == GradedGroup({0: (1, ())})


def test_grv_pins_d5():
    table = _table("d5")
    assert grv_homology(table, (2, 4)) == GradedGroup(
        {-6: (1, ()), -7: (1, ())})


def test_grv_routes_agree_everywhere():
    for name in CORPUS:
        table = _table(name)
        box = tuple(c + 2 for c in table.invariants.conductor)
        for v in _points(box):
            direct = grv_homology_direct(table, v)
            formula = grv_homology_formula(table, v)
            assert direct == formula


@pytest.mark.parametrize("name", ["triple", "a3"])
def test_grv_direct_shifts_each_kept_local_homology(monkeypatch, name):
    # the table keeps the unshifted homology of each relative rank vector:
    # every point of [0, l + 2] gets a fresh reduction shifted by -2 h(v),
    # and the local complex is reduced once per distinct rank vector
    table = _table(name)
    original = latthom.du_homology
    reduced = []

    def counting(matroid):
        reduced.append(tuple(sorted(matroid.rank.items())))
        return original(matroid)

    monkeypatch.setattr(latthom, "du_homology", counting)
    box = tuple(c + 2 for c in table.invariants.conductor)
    vectors = set()
    for v in _points(box):
        cube = table.cube(v)
        vectors.add(tuple(h - cube[0] for h in cube))
        fresh = original(local_matroid(table, v))
        shift = -2 * table.value(v)
        assert grv_homology_direct(table, v) == GradedGroup(
            {q + shift: grp for q, grp in fresh.groups.items()})
    assert len(reduced) == len(set(reduced)) == len(vectors) < len(
        _points(box))


@pytest.mark.parametrize("name", ["triple", "d5", "four"])
def test_grv_catches_a_raised_interior_cell_after_the_box_is_read(name):
    # the kept homology belongs to a rank vector, not to a point, so +1 on
    # any interior cell of [0, l] after every piece of the box has been
    # computed still fails somewhere on the box, as it does on a fresh
    # table: point by point, and through graded_pieces, which reads the
    # raised values through a fresh field and compares the two routes
    # once per vector (20 cells over the three curves; on a3, whose one
    # interior cell is (1, 1), it fails nowhere)
    table = build_table(named_curve(name))
    l = table.invariants.conductor
    box = tuple(c + 2 for c in l)
    assert graded_pieces(table, box) == {v: grv_homology(table, v)
                                         for v in _points(box)}
    kept = dict(table._homology)
    interior = [v for v in _points(l) if all(0 < c < top
                                             for c, top in zip(v, l))]
    assert len(interior) == {"triple": 1, "d5": 3, "four": 16}[name]
    for v in interior:
        table.values[cell(table, v)] += 1
        del table._fields
        with pytest.raises(ConsistencyError):
            graded_pieces(table, box)
        with pytest.raises(ConsistencyError):
            for w in _points(box):
                grv_homology(table, w)
        table.values[cell(table, v)] -= 1
        # the homology reduced before any cell was raised is still read
        assert table._homology.items() >= kept.items()


@pytest.mark.parametrize("name", CORPUS + BENCH_CURVES)
def test_graded_pieces_are_grv_homology_at_every_point(name):
    # boxes below the conductor, at l + 2 and past the checked corner
    table = build_table(named_curve(name))
    l = table.invariants.conductor
    for box in [tuple(max(c - 1, 0) for c in l), tuple(c + 2 for c in l),
                tuple(c + 1 for c in table.corner)]:
        pieces = graded_pieces(table, box)
        assert list(pieces) == _points(box)
        assert pieces == {v: grv_homology(table, v) for v in _points(box)}


def test_grv_nonzero_exactly_on_semigroup():
    for name in CORPUS:
        table = _table(name)
        box = tuple(c + 2 for c in table.invariants.conductor)
        for v in _points(box):
            groups = grv_homology_formula(table, v)
            assert (groups.total_rank() > 0) == table.in_semigroup(v)


def test_grv_torsion_free_with_top_class():
    for name in CORPUS:
        table = _table(name)
        box = tuple(c + 1 for c in table.invariants.conductor)
        for v in _points(box):
            groups = grv_homology(table, v)
            assert all(groups.torsion(q) == () for q in groups.degrees())
            if table.in_semigroup(v):
                assert max(groups.degrees()) == -2 * table.value(v)


def test_grv_mismatch_raises(monkeypatch):
    table = _table("cusp")
    monkeypatch.setattr(latthom, "grv_homology_formula",
                        lambda t, v: GradedGroup({7: (1, ())}))
    with pytest.raises(ConsistencyError):
        grv_homology(table, (2,))


def test_grv_formula_rejects_a_q_coefficient_of_the_wrong_sign(
        monkeypatch):
    # at (2, 2) on a3 the q-polynomial gives Z@-4 and Z@-5; flipping its
    # signs makes both ranks negative
    table = _table("a3")
    original = latthom.hv_polynomial
    monkeypatch.setattr(latthom, "hv_polynomial", lambda table, v: {
        m: -c for m, c in original(table, v).items()})
    with pytest.raises(ConsistencyError, match="wrong sign"):
        grv_homology_formula(table, (2, 2))


def test_grv_formula_refuses_a_step_of_two():
    # h(1) raised to 2 on the cusp makes the step at 0 a 2; the
    # q-polynomial there is 1 + q, which gives rank -1 in degree -1
    table = _table("cusp")
    table.values[cell(table, (1,))] += 1
    with pytest.raises(ConsistencyError,
                       match=r"^q coefficient at \(0,\) has the wrong sign$"):
        grv_homology_formula(table, (0,))


def test_euler_check_corpus():
    for name in CORPUS:
        table = _table(name)
        assert euler_check(table, full_series(table)) is True


def test_euler_check_detects_corruption():
    # one coefficient of the series, inside [0, l + 1], off by one
    table = _table("a3")
    series = full_series(table)
    series.coeffs[((1, 2), 0)] = series.coefficient((1, 2)) + 1
    with pytest.raises(ConsistencyError, match=r"\(1, 2\)"):
        euler_check(table, series)


def test_euler_check_refuses_a_changed_cell():
    # h(1) lowered to 0 on the cusp keeps every step 0 or 1, but the
    # local complex at 0 then has no homology, against the coefficient 1
    # of the unchanged curve's series there
    series = full_series(_table("cusp"))
    table = _table("cusp")
    table.values[cell(table, (1,))] -= 1
    with pytest.raises(ConsistencyError,
                       match=r"^Euler characteristic at \(0,\) does not"):
        euler_check(table, series)


def test_euler_check_reads_the_local_complex(monkeypatch):
    # one more class in degree 0 of every local complex shifts the Euler
    # characteristic of each piece by 1 or -1, which the q-polynomial
    # route does not see
    table = _table("a3")
    original = latthom.du_homology

    def one_more(matroid):
        groups = dict(original(matroid).groups)
        rank, torsion = groups.get(0, (0, ()))
        groups[0] = (rank + 1, torsion)
        return GradedGroup(groups)

    monkeypatch.setattr(latthom, "du_homology", one_more)
    with pytest.raises(ConsistencyError, match=r"at \(0, 0\)"):
        euler_check(table, full_series(table))


@pytest.mark.parametrize("name", ["cusp", "a3", "d5", "triple"])
def test_euler_check_compares_every_point(name):
    # chi of the local complex equals the series at every point of
    # [0, l + 1], and one coefficient off by one at any of them, the
    # first point of its local rank vector or not, is refused there
    table = _table(name)
    series = full_series(table)
    wide = tuple(c + 1 for c in table.invariants.conductor)
    for v in _points(wide):
        groups = grv_homology_direct(table, v).groups
        assert sum((-1) ** (q % 2) * rank for q, (rank, _)
                   in groups.items()) == series.coefficient(v)
    assert euler_check(table, series) is True
    for v in _points(wide):
        wrong = copy.copy(series)
        wrong.coeffs = dict(series.coeffs)
        wrong.coeffs[(v, 0)] = series.coefficient(v) + 1
        with pytest.raises(ConsistencyError,
                           match=r"at %s does not" % re.escape(str(v))):
            euler_check(table, wrong)


def test_euler_check_refuses_a_series_of_other_arity():
    # a two-variable series for the one-branch cusp
    series = full_series(_table("a3"))
    with pytest.raises(ValueError, match="2 variables for 1 branches"):
        euler_check(_table("cusp"), series)


def test_euler_check_refuses_a_short_series_box():
    # a3's series over [0, l + 2] with the box cut to its first coordinate
    table = _table("a3")
    series = full_series(table)
    with pytest.raises(ValueError, match=r"^series box \(4,\) has 1 "
                                         r"coordinates for 2 variables$"):
        euler_check(table, BoxSeries(2, series.box[:1], series.coeffs))


def test_euler_check_needs_the_series_up_to_l_plus_1():
    table = _table("a3")
    assert euler_check(table, poincare_from_hilbert(table, (3, 3))) is True
    with pytest.raises(ValueError, match="below l \\+ 1"):
        euler_check(table, poincare_from_hilbert(table, (3, 2)))


def test_sk_contractible_at_origin():
    for name in CORPUS:
        table = _table(name)
        r = table.curve.r
        u = (0,) * r
        for k in range(0, 3):
            groups = sk_homology(table, u, k)
            assert groups == GradedGroup({0: (1, ())})


def test_sk_contractible_at_offset_points():
    for name, u in [("cusp", (3,)), ("a3", (1, 2)), ("d5", (2, 1)),
                    ("triple", (1, 0, 1))]:
        table = _table(name)
        base = table.value(u)
        for k in range(base, base + 3):
            groups = sk_homology(table, u, k)
            assert groups == GradedGroup({0: (1, ())})


def test_sk_empty_below_base_level():
    table = _table("d5")
    base = table.value((1, 1))
    assert sk_homology(table, (1, 1), base - 1) == GradedGroup({})


def test_sk_pin_d5():
    table = _table("d5")
    assert sk_homology(table, (1, 1), 2) == GradedGroup({0: (1, ())})


def test_sk_matches_brute_oracle():
    for name, u, k in [("cusp", (0,), 2), ("a3", (0, 0), 2),
                       ("a3", (1, 1), 3), ("d5", (0, 0), 3),
                       ("triple", (0, 0, 0), 2)]:
        table = _table(name)
        r = table.curve.r
        deltas = table.invariants.delta_branches
        corner = tuple(max(u[i], k + deltas[i]) + 1 for i in range(r))
        region = [tuple(p) for p in
                  product(*(range(u[i], corner[i] + 1) for i in range(r)))]
        h_values = {w: table.value(w) for w in region}
        cubes = []
        for w in region:
            axes = [i for i in range(r) if w[i] + 1 <= corner[i]]
            for mask in range(1 << len(axes)):
                dirs = tuple(axes[i] for i in range(len(axes))
                             if mask >> i & 1)
                cubes.append((w, dirs))
        oracle = cubical_homology_brute(cubes, h_values, k)
        groups = sk_homology(table, u, k)
        for q in range(r + 1):
            want_rank, want_torsion = oracle.get(q, (0, []))
            assert groups.rank(q) == want_rank
            assert groups.torsion(q) == tuple(
                t for t in want_torsion if t > 1)


def test_sk_raises_when_a_table_breaks_the_delta_bound():
    # the search corner max(u_i, k + delta_i) + 1 holds the complex since
    # h(w) >= w_i - delta_i; with the cusp's delta lowered to 0 the level
    # 2 set, h <= 2 on [0, 3], reaches the corner 3
    table = copy.copy(_table("cusp"))
    assert sk_homology(table, (0,), 2) == GradedGroup({0: (1, ())})
    table.invariants = table.invariants._replace(delta_branches=[0])
    with pytest.raises(BoxTooSmall):
        sk_homology(table, (0,), 2)


def _r1_of(table):
    # the record over the graded pieces that verify hands it
    bound = table.invariants.mu + 2
    return r1_structure(table, {(v,): grv_homology(table, (v,))
                                for v in range(bound + 1)})


def _r1(name):
    return _r1_of(_table(name))


def test_r1_structure_line():
    rec = _r1("line")
    assert rec.e2_a == {0: 0}
    assert rec.e2_alpha == {}
    assert rec.members[:3] == (0, 1, 2)
    assert all(rec.u_ranks[v] == 1 for v in range(rec.bound))


def test_r1_structure_cusp():
    rec = _r1("cusp")
    assert rec.e2_a == {0: 0, 2: -2}
    assert rec.e2_alpha == {0: -1}
    assert rec.u_ranks[0] == 0
    assert rec.u_ranks[2] == 1
    assert rec.hl[1] == GradedGroup({})
    assert rec.hl[2] == GradedGroup({-2: (1, ())})


def test_r1_structure_t2t5():
    rec = _r1("t2t5")
    assert rec.e2_a == {0: 0, 2: -2, 4: -4}
    assert rec.e2_alpha == {0: -1, 2: -3}
    assert rec.members[:5] == (0, 2, 4, 5, 6)
    assert rec.hl[4] == GradedGroup({-4: (1, ())})


def test_r1_structure_rejects_multibranch():
    with pytest.raises(ValueError):
        r1_structure(_table("a3"), {})


def test_r1_structure_needs_every_piece_up_to_mu_plus_2():
    table = _table("cusp")
    pieces = {(v,): grv_homology(table, (v,)) for v in range(5)}
    assert r1_structure(table, pieces).bound == 4
    del pieces[(4,)]
    with pytest.raises(ValueError, match="no graded piece at 4"):
        r1_structure(table, pieces)


def _torus_coefficients(p, q):
    # (1 - t)(1 - t^pq) / ((1 - t^p)(1 - t^q)) by exact long division,
    # lowest degree first, as a list of its mu + 1 coefficients
    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return out

    def binomial(k):
        return [1] + [0] * (k - 1) + [-1]  # 1 - t^k

    num = times(binomial(1), binomial(p * q))
    den = times(binomial(p), binomial(q))
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient)):
        quotient[k] = num[k]  # den[0] == 1
        for j, d in enumerate(den):
            num[k + j] -= quotient[k] * d
    assert not any(num)
    return quotient


_TORUS = [(p, q) for q in range(3, 10) for p in range(2, q)
          if gcd(p, q) == 1]


@pytest.mark.parametrize("p, q", _TORUS)
def test_r1_structure_of_a_torus_knot_is_its_closed_form(p, q):
    # for (t^p, t^q) the semigroup is <p, q> and Delta is the torus-knot
    # polynomial, both from outside the program; the record's signed
    # second-page count (+1 at an a term, -1 one past an alpha term) and
    # alexander's polynomial both equal Delta, and the a and alpha terms
    # reflect about mu and mu - 2 (criterion 10)
    curve = Curve([BranchParametrization.from_strings(
        "t^%d" % p, "t^%d" % q, (p - 1) * (q - 1) + q)])
    table = build_table(curve, ((p - 1) * (q - 1) + 2,))
    mu = table.invariants.mu
    assert mu == (p - 1) * (q - 1)
    rec = _r1_of(table)
    assert rec.members == tuple(
        v for v in range(mu + 4)
        if any((v - a * p) % q == 0 for a in range(v // p + 1)))
    delta = _torus_coefficients(p, q)
    signed = [0] * (mu + 2)
    for v in rec.e2_a:
        signed[v] += 1
    for v in rec.e2_alpha:
        signed[v + 1] -= 1
    assert signed == delta + [0]
    poly = alexander(table, full_series(table))
    assert [poly.coefficient((e,)) for e in range(mu + 4)] == delta + [0] * 3
    assert {mu - v for v in rec.e2_a} == set(rec.e2_a)
    assert {mu - 2 - v for v in rec.e2_alpha} == set(rec.e2_alpha)


def _classify(table, v):
    return r2_classify(table, v, grv_homology(table, v))


def test_r2_classify_pins_a3():
    table = _table("a3")
    assert _classify(table, (0, 0)).label == "d"
    assert _classify(table, (1, 1)).label == "d"
    assert _classify(table, (2, 2)).label == "e"
    assert _classify(table, (1, 0)).label == "c"
    assert _classify(table, (0, 1)).label == "b"
    assert _classify(table, (3, 3)).label == "e"
    assert _classify(table, (2, 2)).groups == GradedGroup(
        {-4: (1, ()), -5: (1, ())})


def test_r2_classify_pins_d5():
    table = _table("d5")
    assert _classify(table, (0, 1)).label == "a"
    assert _classify(table, (2, 4)).label == "e"
    assert _classify(table, (1, 3)).label == "d"


def test_r2_sweep_consistency():
    seen = set()
    for name in ("a3", "a5", "a7", "d5"):
        table = _table(name)
        box = tuple(c + 2 for c in table.invariants.conductor)
        for v in _points(box):
            case = _classify(table, v)
            seen.add(case.label)
            assert (case.label in ("d", "e")) == table.in_semigroup(v)
            conductor = table.invariants.conductor
            if all(a >= c for a, c in zip(v, conductor)):
                assert case.label == "e"
    assert seen == {"a", "b", "c", "d", "e"}


def test_r2_classify_rejects_wrong_branch_count():
    with pytest.raises(ValueError):
        r2_classify(_table("cusp"), (1,), GradedGroup({}))
    with pytest.raises(ValueError):
        r2_classify(_table("triple"), (1, 1, 1), GradedGroup({}))


def test_r2_unclassifiable_pattern():
    # h jumping by 3 across one unit square is no admissible shape
    table = _table("a3")
    table.values[cell(table, (1, 1))] = 3
    with pytest.raises(UnclassifiablePattern):
        r2_classify(table, (0, 0), GradedGroup({}))


def test_r2_case_mismatch_raises():
    table = _table("a3")
    with pytest.raises(ConsistencyError):
        r2_classify(table, (1, 1), GradedGroup({0: (5, ())}))
