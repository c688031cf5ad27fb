import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvelat.series as series_module
import curvelat.verify as verify
from curvelat.errors import (ConsistencyError, PolynomialityViolation,
                             SupportViolation)
from curvelat.hilbert import box_points, build_table, invariants
from curvelat.series import (
    BoxSeries,
    alexander,
    canonical_str,
    hilbert_from_poincare,
    hilbert_series,
    motivic_normalized,
    motivic_series,
    pi_value,
    poincare_from_hilbert,
    torres_restriction_check,
)

from conftest import (BENCH_CURVES, CORPUS, cell, corpus_curve,
                      count_reader_calls, first_points, full_series,
                      named_curve, shifted_readers)
from oracles import (alexander_r1_from_semigroup,
                     hilbert_from_poincare_by_subsets, numerical_semigroup,
                     times_prod_one_minus_tq_by_subsets)


def _table(name):
    return build_table(corpus_curve(name))


def _alexander(table):
    return alexander(table, full_series(table))


def poincare(name, box):
    c = corpus_curve(name)
    return poincare_from_hilbert(build_table(c, box), box)


def subset_poincares(c, box):
    out = {}
    for mask in range(1, 1 << c.r):
        idx = [i for i in range(c.r) if mask >> i & 1]
        sub = c.subcurve(idx)
        sub_box = tuple(box[i] for i in idx)
        out[mask] = poincare_from_hilbert(build_table(sub, sub_box), sub_box)
    return out


# ---------------------------------------------------------------------------
# the factor 1 - t^s q^m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_times_one_minus_is_its_per_term_definition(data):
    # random sparse series with r <= 3 on small boxes, so that terms on
    # the box edge and shifts past it are common; zero shift entries and
    # a zero q exponent are drawn too
    r = data.draw(st.integers(1, 3))
    box = data.draw(st.tuples(*[st.integers(0, 3)] * r))
    point = st.tuples(*[st.integers(0, b) for b in box])
    coeffs = data.draw(st.dictionaries(st.tuples(point, st.integers(0, 2)),
                                       st.integers(-3, 3), max_size=8))
    s = data.draw(st.tuples(*[st.integers(0, 2)] * r))
    m = data.draw(st.integers(0, 2))
    series = BoxSeries(r, box, coeffs)
    product = series.times_one_minus(s, m)
    expected = {}
    for w in box_points(box):
        for k in range(5):
            prev = tuple(a - b for a, b in zip(w, s))
            c = series.coefficient(w, k) - series.coefficient(prev, k - m)
            if c:
                expected[(w, k)] = c
    assert (product.r, product.box, product.coeffs) == (r, box, expected)
    assert series.coeffs == BoxSeries(r, box, coeffs).coeffs


# ---------------------------------------------------------------------------
# canonical rendering


def test_canonical_str_zero_and_constant():
    assert canonical_str(BoxSeries(1, (0,), {})) == "0"
    assert canonical_str(BoxSeries(1, (0,), {((0,), 0): 5})) == "5"


def test_canonical_str_signs_and_powers():
    s = BoxSeries(1, (3,), {((0,), 0): 1, ((1,), 0): -2, ((3,), 0): 1})
    assert canonical_str(s) == "1 - 2*t + t^3"
    s = BoxSeries(1, (2,), {((1,), 0): -1, ((2,), 0): 3})
    assert canonical_str(s) == "-t + 3*t^2"


def test_canonical_str_multivariable_and_q():
    s = BoxSeries(2, (1, 3), {((0, 0), 0): 1, ((1, 3), 0): 1})
    assert canonical_str(s) == "1 + t1*t2^3"
    s = BoxSeries(1, (2,), {((0,), 0): 1, ((1,), 1): -1, ((2,), 1): 1})
    assert canonical_str(s) == "1 - q*t + q*t^2"
    s = BoxSeries(1, (1,), {((1,), 2): 1})
    assert canonical_str(s) == "q^2*t"


# ---------------------------------------------------------------------------
# pi values and series


def test_pi_pinned_values():
    t = build_table(corpus_curve("a3"), (4, 4))
    assert pi_value(t, (1, 1)) == 1
    assert pi_value(t, (1, 0)) == 0
    assert pi_value(t, (2, 2)) == 0


def test_poincare_tangential_pairs():
    for n, name in [(2, "a3"), (3, "a5"), (4, "a7")]:
        c = corpus_curve(name)
        box = tuple(x + 2 for x in invariants(c).conductor)
        p = poincare_from_hilbert(build_table(c, box), box)
        expected = {((k, k), 0): 1 for k in range(n)}
        assert p.coeffs == expected


def test_poincare_line_plus_cusp():
    p = poincare("d5", (4, 6))
    assert p.coeffs == {((0, 0), 0): 1, ((1, 3), 0): 1}


def test_poincare_triple_point():
    p = poincare("triple", (4, 4, 4))
    assert p.coeffs == {((0, 0, 0), 0): 1, ((1, 1, 1), 0): -1}


def test_poincare_single_branches():
    p = poincare("line", (5,))
    assert p.coeffs == {((k,), 0): 1 for k in range(6)}
    members = numerical_semigroup([2, 5], 10)
    p = poincare("t2t5", (8,))
    assert p.coeffs == {((k,), 0): 1 for k in range(9) if k in members}


def test_pi_vanishes_off_semigroup():
    for name in ["a3", "d5", "triple"]:
        c = corpus_curve(name)
        box = tuple(x + 2 for x in invariants(c).conductor)
        t = build_table(c, box)
        for (v, _m), c_v in poincare_from_hilbert(t, box).coeffs.items():
            if c_v != 0:
                assert t.in_semigroup(v)


@pytest.mark.parametrize("name", CORPUS + BENCH_CURVES)
def test_poincare_from_hilbert_is_pi_value_at_every_point(name):
    # the axis passes over one grid give the cube's alternating sum at
    # every point of the box, on boxes at 0, below l and at l + 2
    t = build_table(named_curve(name))
    l = t.invariants.conductor
    for box in [(0,) * len(l), tuple(max(c - 1, 0) for c in l),
                tuple(c + 2 for c in l)]:
        series = poincare_from_hilbert(t, box)
        expected = BoxSeries(len(box), box, {(v, 0): pi_value(t, v)
                                             for v in box_points(box)})
        assert series.box == box
        assert series.coeffs == expected.coeffs, box


def test_hilbert_series_reads_one_grid(monkeypatch):
    table = build_table(corpus_curve("d5"))
    box = (6, 8)
    expected = {(v, 0): table.value(v) for v in box_points(box)}
    calls = count_reader_calls(monkeypatch, ["grid", "value"])
    assert hilbert_series(table, box).coeffs == {
        key: h for key, h in expected.items() if h}
    assert calls == {"grid": [box], "value": []}


# ---------------------------------------------------------------------------
# round trip between h and the pi series


def test_round_trip_reconstructs_h():
    boxes = {"line": (4,), "cusp": (6,), "a3": (4, 4),
             "d5": (5, 5), "triple": (3, 3, 3)}
    for name, box in boxes.items():
        c = corpus_curve(name)
        table = build_table(c, box)
        ps = subset_poincares(c, box)
        assert hilbert_from_poincare(ps, box) == {
            v: table.value(v) for v in box_points(box)}
        zero = tuple(0 for _ in box)
        assert hilbert_from_poincare(ps, zero) == {zero: 0}


def test_round_trip_needs_big_enough_box():
    c = corpus_curve("a3")
    ps = subset_poincares(c, (2, 2))
    with pytest.raises(ValueError):
        hilbert_from_poincare(ps, (4, 4))


def test_round_trip_names_a_missing_bitmask():
    ps = subset_poincares(corpus_curve("triple"), (3, 3, 3))
    del ps[5]
    with pytest.raises(ValueError, match="no pi series for bitmask 5"):
        hilbert_from_poincare(ps, (3, 3, 3))


@pytest.mark.parametrize("name", ["d5", "a3"])
def test_round_trip_refuses_a_series_of_other_arity(name):
    # the two-branch series where the one-branch series of branch 0 goes
    box = (4, 4)
    ps = subset_poincares(corpus_curve(name), box)
    with pytest.raises(ValueError, match="bitmask 1 has 2 variables"):
        hilbert_from_poincare({**ps, 1: ps[3]}, box)


def test_round_trip_refuses_a_series_box_of_other_length():
    # an empty box passed the zip-based box guard, and the rebuild read
    # the series as covering [0, 3]
    with pytest.raises(ValueError, match=r"^series box \(\) has 0 "
                                         r"coordinates for 1 variables$"):
        hilbert_from_poincare({1: BoxSeries(1, (), {((0,), 0): 1})}, (3,))


def test_series_refuses_a_term_of_other_length():
    # a one- and a three-coordinate term of a two-variable series were
    # both stored, and canonical_str printed "5 + 3"; a zero term of the
    # wrong length is refused too
    with pytest.raises(ValueError, match=r"^series term \(0,\) has 1 "
                                         r"coordinates for 2 variables$"):
        BoxSeries(2, (1, 1), {((0,), 0): 5, ((0, 0, 0), 0): 3})
    with pytest.raises(ValueError, match=r"^series term \(0, 0, 0\) has 3 "):
        BoxSeries(2, (1, 1), {((0, 0), 0): 5, ((0, 0, 0), 0): 0})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rebuild_is_the_running_sums_by_subsets(data):
    # random integer pi series, zeros included, for r <= 4 on boxes with
    # coordinates 0..4: each series box reaches box - 1 or past it, and
    # at most one mask is missing and one series box is one short; the
    # rebuild gives the reference's dict, keys in the same order, or
    # the same ValueError
    r = data.draw(st.integers(1, 4))
    box = tuple(data.draw(st.lists(st.integers(0, 4), min_size=r,
                                   max_size=r)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    masks = list(range(1, 1 << r))
    missing, short = (rng.choice(masks) if rng.random() < 0.2 else None
                      for _ in range(2))
    poincares = {}
    for mask in masks:
        if mask == missing:
            continue
        top = [b - 1 + rng.randint(0, 2)
               for i, b in enumerate(box) if mask >> i & 1]
        if mask == short:  # one short on the mask's first axis
            top[0] = box[(mask & -mask).bit_length() - 1] - 2
        poincares[mask] = BoxSeries(len(top), top, {
            (w, 0): rng.randint(-3, 3) for w in box_points(top)})
    try:
        expected = list(hilbert_from_poincare_by_subsets(poincares,
                                                         box).items())
    except ValueError as exc:
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(exc))):
            hilbert_from_poincare(poincares, box)
    else:
        assert list(hilbert_from_poincare(poincares, box).items()) == expected


def test_round_trip_stage_catches_a_wrong_face_cell():
    # the proper subsets' tables are built apart from the full one, so a
    # wrong cell on a face of the full table shows in the rebuilt h
    curve = corpus_curve("d5")
    box = tuple(c + 2 for c in invariants(curve).conductor)
    table = build_table(curve, box)
    table.values[cell(table, (1, 0))] += 1
    with pytest.raises(ConsistencyError,
                       match=r"series round trip fails at \(1, 0\)"):
        verify._verify_round_trip(table, box)


def test_poincare_from_h_as_series_product():
    # the series identity: P equals minus H times prod (1 - 1/t_i),
    # checked coefficientwise one step inside the box
    c = corpus_curve("d5")
    box = (5, 5)
    table = build_table(c, box)
    h = hilbert_series(table, tuple(b + 1 for b in box))
    p = poincare_from_hilbert(table, box)
    for v1 in range(box[0] + 1):
        for v2 in range(box[1] + 1):
            acc = 0
            for mask in range(4):
                w = (v1 + (mask & 1), v2 + (mask >> 1 & 1))
                sign = -1 if bin(mask).count("1") % 2 == 0 else 1
                acc += sign * h.coefficient(w)
            assert acc == p.coefficient((v1, v2))


# ---------------------------------------------------------------------------
# q-refined series


def test_motivic_single_branch():
    t = build_table(corpus_curve("cusp"), (4,))
    g = motivic_series(t, (4,))
    assert g.coefficient((0,), 0) == 1
    assert all(m != 1 or v != (1,) for (v, m) in g.coeffs)
    assert g.coefficient((2,), 1) == 1
    assert g.coefficient((3,), 2) == 1


def test_motivic_two_branches():
    t = build_table(corpus_curve("a3"), (3, 3))
    g = motivic_series(t, (3, 3))
    assert g.coefficient((0, 0), 0) == 1
    assert g.coefficient((1, 1), 1) == 1
    assert sum(c for (v, m), c in g.coeffs.items() if v == (1, 0)) == 0


def test_motivic_q_one_recovers_pi():
    for name in ["cusp", "a3", "d5", "triple"]:
        c = corpus_curve(name)
        box = tuple(x + 1 for x in invariants(c).conductor)
        t = build_table(c, box)
        g = motivic_series(t, box)
        p = poincare_from_hilbert(t, box)
        for v in {v for (v, m) in g.coeffs} | {v for (v, m) in p.coeffs}:
            at_one = sum(c for (w, m), c in g.coeffs.items() if w == v)
            assert at_one == p.coefficient(v)


def test_motivic_vanishes_off_semigroup():
    for name in ["cusp", "a3", "d5"]:
        c = corpus_curve(name)
        box = tuple(x + 1 for x in invariants(c).conductor)
        t = build_table(c, box)
        g = motivic_series(t, box)
        for (v, m) in g.coeffs:
            assert t.in_semigroup(v)


def test_motivic_sign_positivity():
    # (-1)^h(v) times the coefficient of q^m times (-1)^m is never
    # negative
    for name in ["cusp", "t2t5", "a3", "d5", "triple"]:
        c = corpus_curve(name)
        box = tuple(x + 1 for x in invariants(c).conductor)
        t = build_table(c, box)
        g = motivic_series(t, box)
        for (v, m), coeff in g.coeffs.items():
            assert (-1) ** t.value(v) * (-1) ** m * coeff >= 0


def test_motivic_normalized_cusp():
    t = build_table(corpus_curve("cusp"), (4,))
    nz = motivic_normalized(t)
    assert canonical_str(nz) == "1 - q*t + q*t^2"


def test_motivic_normalized_reflection():
    # coefficient at (v, m) equals coefficient at (l-v, m+delta-|v|)
    for name in ["cusp", "t2t5", "a3", "d5", "triple"]:
        c = corpus_curve(name)
        inv = invariants(c)
        t = build_table(c, inv.conductor)
        nz = motivic_normalized(t)
        assert nz.coeffs
        for (v, m), coeff in nz.coeffs.items():
            w = tuple(a - b for a, b in zip(inv.conductor, v))
            assert nz.coefficient(w, m + inv.delta - sum(v)) == coeff


@pytest.mark.parametrize("name, size", [("triple", 64), ("tacnode3", 216)])
def test_motivic_normalized_reads_q_polynomials_up_to_l_plus_1(monkeypatch,
                                                               name, size):
    # every term it keeps or checks lies in [0, l + 1] and is pushed only
    # from points there (the conductors are (2, 2, 2) and (4, 4, 4)), so
    # it reads the series on that box, one q-polynomial per distinct local
    # rank vector at the vector's first point (12 and 15 of them), and
    # the series is the q-polynomial at every point of the box
    table = build_table(named_curve(name))
    wide = tuple(c + 1 for c in table.invariants.conductor)
    original = series_module.hv_polynomial
    series_of_box = series_module.motivic_series
    points, kept = [], []

    def counting(table, v):
        points.append(v)
        return original(table, v)

    def keeping(table, box):
        kept.append((box, series_of_box(table, box)))
        return kept[-1][1]

    monkeypatch.setattr(series_module, "hv_polynomial", counting)
    monkeypatch.setattr(series_module, "motivic_series", keeping)
    motivic_normalized(table)
    assert points == first_points(table, wide)
    assert len(points) == {"triple": 12, "tacnode3": 15}[name]
    [(box, series)] = kept
    assert box == wide and len(list(box_points(box))) == size
    assert series.coeffs == {(v, m): c for v in box_points(wide)
                             for m, c in original(table, v).items()}


def test_motivic_normalized_rejects_a_term_past_the_conductor(monkeypatch):
    # h + 1 at l + 2 = 4 gives (3,) a local rank vector of its own, whose
    # q-polynomial q^2 + q^3 leaves q^3 at t^3 = t^(l + 1) after the
    # product with 1 - t*q
    table = build_table(corpus_curve("cusp"))
    for name, reader in shifted_readers(table, (4,), 1).items():
        monkeypatch.setattr(table, name, reader)
    assert series_module.hv_polynomial(table, (3,)) == {2: 1, 3: 1}
    with pytest.raises(PolynomialityViolation, match=r"\(3,\)"):
        motivic_normalized(table)


def test_motivic_normalized_names_the_least_term_past_the_conductor(
        monkeypatch):
    # h + 1 at (4, 2) on a3 (conductor (2, 2)) leaves four terms past
    # [0, l] in the product on [0, l + 1], at (3, 1), (3, 2) twice and
    # (3, 3); the least, (3, 1), is named
    table = build_table(corpus_curve("a3"))
    for name, reader in shifted_readers(table, (4, 2), 1).items():
        monkeypatch.setattr(table, name, reader)
    product = times_prod_one_minus_tq_by_subsets(
        motivic_series(table, (3, 3)).coeffs, (3, 3))
    assert sorted(key for key in product if max(key[0]) > 2) == [
        ((3, 1), 4), ((3, 2), 4), ((3, 2), 5), ((3, 3), 5)]
    with pytest.raises(PolynomialityViolation,
                       match=r"^normalized q series has a term at \(3, 1\) "
                             r"outside the conductor box$"):
        motivic_normalized(table)


@pytest.mark.parametrize("name", CORPUS + BENCH_CURVES)
def test_motivic_normalized_is_the_product_over_subsets(name):
    # the 2^r expansion of prod (1 - t_i q), term by term, on [0, l + 1]
    table = build_table(named_curve(name))
    l = table.invariants.conductor
    wide = tuple(c + 1 for c in l)
    expected = times_prod_one_minus_tq_by_subsets(
        motivic_series(table, wide).coeffs, wide)
    normalized = motivic_normalized(table)
    assert normalized.box == l
    assert normalized.coeffs == expected


@pytest.mark.parametrize("name", CORPUS + BENCH_CURVES)
def test_motivic_series_is_hv_polynomial_at_every_point(name):
    # boxes below the conductor, at l + 1 and past the checked corner
    table = build_table(named_curve(name))
    l = table.invariants.conductor
    for box in [tuple(max(c - 1, 0) for c in l), tuple(c + 1 for c in l),
                tuple(c + 1 for c in table.corner)]:
        assert motivic_series(table, box).coeffs == {
            (v, m): c for v in box_points(box)
            for m, c in series_module.hv_polynomial(table, v).items()}, box


def test_verify_motivic_catches_a_broken_reflection(monkeypatch):
    # cusp: 1 - q*t + q*t^2, where 1 pairs with q*t^2
    table = build_table(corpus_curve("cusp"))
    verify._verify_motivic(table)
    series = motivic_normalized(table)
    series.coeffs[((0,), 0)] = 2
    monkeypatch.setattr(verify, "motivic_normalized", lambda table: series)
    with pytest.raises(ConsistencyError, match="reflection"):
        verify._verify_motivic(table)


# ---------------------------------------------------------------------------
# annihilating polynomials


def test_alexander_single_branches():
    a = _alexander(_table("line"))
    assert a.coeffs == {((0,), 0): 1}
    a = _alexander(_table("cusp"))
    assert canonical_str(a) == "1 - t + t^2"
    a = _alexander(_table("t2t5"))
    assert canonical_str(a) == "1 - t + t^2 - t^3 + t^4"


def test_alexander_matches_semigroup_oracle():
    for name, gens in [("cusp", [2, 3]), ("t2t5", [2, 5])]:
        c = corpus_curve(name)
        inv = invariants(c)
        members = numerical_semigroup(gens, 2 * inv.conductor[0] + 2)
        expected = alexander_r1_from_semigroup(members, inv.conductor[0])
        a = _alexander(build_table(c))
        for k, coeff in enumerate(expected):
            assert a.coefficient((k,)) == coeff


def test_alexander_palindromic_one_branch():
    for name in ["line", "cusp", "t2t5"]:
        c = corpus_curve(name)
        mu = invariants(c).mu
        a = _alexander(build_table(c))
        for k in range(mu + 1):
            assert a.coefficient((k,)) == a.coefficient((mu - k,))


def test_alexander_two_branches():
    assert canonical_str(_alexander(_table("a3"))) == "1 + t1*t2"
    assert canonical_str(_alexander(_table("d5"))) == "1 + t1*t2^3"
    a = _alexander(_table("a5"))
    assert a.coeffs == {((0, 0), 0): 1, ((1, 1), 0): 1, ((2, 2), 0): 1}


def test_alexander_triple_point():
    a = _alexander(_table("triple"))
    assert a.coeffs == {((0, 0, 0), 0): 1, ((1, 1, 1), 0): -1}


def test_alexander_reflection_multibranch():
    # a_v = (-1)^r a_(l - e - v)
    for name in ["a3", "a5", "a7", "d5", "triple"]:
        c = corpus_curve(name)
        inv = invariants(c)
        a = _alexander(build_table(c))
        sign = (-1) ** inv.r
        top = tuple(x - 1 for x in inv.conductor)
        for v in [key for (key, m) in a.coeffs]:
            w = tuple(x - y for x, y in zip(top, v))
            assert a.coefficient(v) == sign * a.coefficient(w)


def test_verify_alexander_catches_a_non_palindromic_polynomial():
    # cusp: 1 - t + t^2, with mu = 2
    table = _table("cusp")
    poly = _alexander(table)
    verify._verify_alexander(table, poly)
    poly.coeffs[((0,), 0)] = 2
    with pytest.raises(ConsistencyError, match="palindromic"):
        verify._verify_alexander(table, poly)


@pytest.mark.parametrize("name, top", [("d5", (1, 3)), ("triple", (1, 1, 1))])
def test_verify_alexander_catches_a_broken_reflection(name, top):
    # d5: 1 + t1*t2^3; triple: 1 - t1*t2*t3, its own reflection up to
    # the sign (-1)^3; doubling the top term breaks either pairing
    table = _table(name)
    poly = _alexander(table)
    verify._verify_alexander(table, poly)
    poly.coeffs[(top, 0)] *= 2
    with pytest.raises(ConsistencyError, match="reflection"):
        verify._verify_alexander(table, poly)


def test_alexander_support_guard():
    # (3, 3) lies beyond the conductor (2, 2), so no stored cell holds
    # it: shift h there in every cube and every grid that reads it
    table = build_table(corpus_curve("a3"), (4, 4))
    for reader, shifted in shifted_readers(table, (3, 3), 1).items():
        setattr(table, reader, shifted)
    with pytest.raises(SupportViolation):
        _alexander(table)


def test_alexander_support_guard_at_the_conductor():
    # one pi coefficient at (l_0, 0), the first degree on the first axis
    # past the open conductor box and inside it on the second
    table = _table("d5")
    series = full_series(table)
    point = (table.invariants.conductor[0], 0)
    assert series.coefficient(point) == 0
    coeffs = {**series.coeffs, (point, 0): 1}
    with pytest.raises(SupportViolation, match="outside the open"):
        alexander(table, BoxSeries(series.r, series.box, coeffs))


@pytest.mark.parametrize("name, bumps, message", [
    # 1 - t + t^2 becomes 1 - t + t^2 + t^3 - t^4 (mu = 2)
    ("cusp", [(3,)], r"degree 3 past mu = 2$"),
    # the open conductor box of d5 is [0, (1, 3)]
    ("d5", [(2, 0), (4, 1)], r"at \(2, 0\) outside the open"),
])
def test_alexander_names_the_least_term_past_its_box(name, bumps, message):
    # +1 on pi at each bump, and the terms stored greatest first, so that
    # the least term outside the box is the last one met
    table = _table(name)
    series = full_series(table)
    coeffs = dict(series.coeffs)
    for v in bumps:
        coeffs[(v, 0)] = coeffs.get((v, 0), 0) + 1
    coeffs = dict(sorted(coeffs.items(), reverse=True))
    with pytest.raises(SupportViolation, match=message):
        alexander(table, BoxSeries(series.r, series.box, coeffs))


def test_alexander_refuses_a_series_of_other_arity():
    # a two-variable series for the one-branch cusp
    series = full_series(_table("a3"))
    with pytest.raises(ValueError, match="2 variables for 1 branches"):
        alexander(_table("cusp"), series)


def test_alexander_refuses_a_short_series_box():
    # a3's series over [0, l + 2] with the box cut to its first coordinate
    table = _table("a3")
    series = full_series(table)
    with pytest.raises(ValueError, match=r"^series box \(4,\) has 1 "
                                         r"coordinates for 2 variables$"):
        alexander(table, BoxSeries(2, series.box[:1], series.coeffs))


def test_alexander_needs_the_series_up_to_l_plus_2():
    for name, short in [("cusp", (3,)), ("a3", (4, 3))]:
        table = _table(name)
        with pytest.raises(ValueError, match="below l \\+ 2"):
            alexander(table, poincare_from_hilbert(table, short))


# ---------------------------------------------------------------------------
# restriction identity


def _restriction_inputs(name, margin=2):
    # the table and the series of every branch subset over the conductor
    # plus margin, as verify hands them to the check
    curve = corpus_curve(name)
    box = tuple(c + margin for c in invariants(curve).conductor)
    return build_table(curve, box), subset_poincares(curve, box)


def test_restriction_all_corpus_pairs():
    for name in ["a3", "a5", "a7", "d5", "triple"]:
        for margin in [-1, 2, 5]:
            table, poincares = _restriction_inputs(name, margin)
            assert torres_restriction_check(table, poincares) is True


def test_restriction_refuses_a_short_series_box():
    # triple's full series with the box cut to its first two coordinates
    table, poincares = _restriction_inputs("triple")
    full = poincares[7]
    with pytest.raises(ValueError, match=r"^series box \(4, 4\) has 2 "
                                         r"coordinates for 3 variables$"):
        torres_restriction_check(
            table, {**poincares, 7: BoxSeries(3, full.box[:2], full.coeffs)})


def test_restriction_rejects_single_branch():
    with pytest.raises(ValueError):
        torres_restriction_check(_table("cusp"), {})


def test_restriction_rejects_missing_series_and_small_boxes():
    table, poincares = _restriction_inputs("triple")
    for mask in [7, 6, 5, 3]:
        partial = {k: p for k, p in poincares.items() if k != mask}
        with pytest.raises(ValueError, match="bitmask %d" % mask):
            torres_restriction_check(table, partial)
    # the full series is supported in [0, l - 1] = [0, (1, 1, 1)]
    full = poincares[7]
    for box, ok in [((1, 1, 1), True), ((1, 0, 1), False)]:
        cut = BoxSeries(3, box, {(v, m): c for (v, m), c in full.coeffs.items()
                                 if all(a <= b for a, b in zip(v, box))})
        if ok:
            assert torres_restriction_check(table, {**poincares, 7: cut})
        else:
            with pytest.raises(ValueError, match="below l - 1"):
                torres_restriction_check(table, {**poincares, 7: cut})


def test_restriction_refuses_a_series_of_other_arity():
    # the full three-branch series where the one without branch 2 goes
    table, poincares = _restriction_inputs("triple")
    with pytest.raises(ValueError, match="bitmask 3 has 3 variables"):
        torres_restriction_check(table, {**poincares, 3: poincares[7]})


def test_restriction_detects_a_wrong_sub_table_value():
    # d5 without branch 0 is branch 1 alone, bitmask 2
    table, poincares = _restriction_inputs("d5")
    box = poincares[2].box
    sub = build_table(corpus_curve("d5").subcurve([1]), box)
    sub.values[cell(sub, (1,))] += 1
    poincares[2] = poincare_from_hilbert(sub, box)
    with pytest.raises(ConsistencyError, match="restriction identity"):
        torres_restriction_check(table, poincares)


@pytest.mark.parametrize("name", ["d5", "triple"])
def test_restriction_detects_a_wrong_sub_series_coefficient(name):
    # +1 on any one coefficient of any series without one branch
    table, poincares = _restriction_inputs(name)
    r = table.invariants.r
    for mask in [(1 << r) - 1 ^ 1 << rho for rho in range(r)]:
        sub = poincares[mask]
        for w in box_points(sub.box):
            bad = BoxSeries(sub.r, sub.box,
                            {**sub.coeffs,
                             (w, 0): sub.coefficient(w) + 1})
            with pytest.raises(ConsistencyError, match="restriction identity"):
                torres_restriction_check(table, {**poincares, mask: bad})
