import pytest

from curvelat.errors import ConsistencyError, SupportViolation
from curvelat.hilbert import build_table, invariants
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

from conftest import CORPUS, corpus_curve
from oracles import alexander_r1_from_semigroup, numerical_semigroup


def _table(name):
    return build_table(corpus_curve(name))


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


# ---------------------------------------------------------------------------
# round trip between h and the pi series


def test_round_trip_reconstructs_h():
    boxes = {"line": (4,), "cusp": (6,), "a3": (4, 4),
             "d5": (5, 5), "triple": (3, 3, 3)}
    for name, box in boxes.items():
        c = corpus_curve(name)
        table = build_table(c, box)
        ps = subset_poincares(c, box)
        for (v, _m) in hilbert_series(table, box).coeffs:
            assert hilbert_from_poincare(ps, v) == table.value(v)
        assert hilbert_from_poincare(ps, tuple(0 for _ in box)) == 0


def test_round_trip_needs_big_enough_box():
    c = corpus_curve("a3")
    ps = subset_poincares(c, (2, 2))
    with pytest.raises(ValueError):
        hilbert_from_poincare(ps, (4, 4))


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


def test_motivic_normalized_margin_guard():
    t = build_table(corpus_curve("cusp"), (4,))
    with pytest.raises(ValueError):
        motivic_normalized(t, margin=1)


# ---------------------------------------------------------------------------
# annihilating polynomials


def test_alexander_single_branches():
    a = alexander(_table("line"))
    assert a.coeffs == {((0,), 0): 1}
    a = alexander(_table("cusp"))
    assert canonical_str(a) == "1 - t + t^2"
    a = alexander(_table("t2t5"))
    assert canonical_str(a) == "1 - t + t^2 - t^3 + t^4"


def test_alexander_matches_semigroup_oracle():
    for name, gens in [("cusp", [2, 3]), ("t2t5", [2, 5])]:
        c = corpus_curve(name)
        inv = invariants(c)
        members = numerical_semigroup(gens, 2 * inv.conductor[0] + 2)
        expected = alexander_r1_from_semigroup(members, inv.conductor[0])
        a = alexander(build_table(c))
        for k, coeff in enumerate(expected):
            assert a.coefficient((k,)) == coeff


def test_alexander_palindromic_one_branch():
    for name in ["line", "cusp", "t2t5"]:
        c = corpus_curve(name)
        mu = invariants(c).mu
        a = alexander(build_table(c))
        for k in range(mu + 1):
            assert a.coefficient((k,)) == a.coefficient((mu - k,))


def test_alexander_two_branches():
    assert canonical_str(alexander(_table("a3"))) == "1 + t1*t2"
    assert canonical_str(alexander(_table("d5"))) == "1 + t1*t2^3"
    a = alexander(_table("a5"))
    assert a.coeffs == {((0, 0), 0): 1, ((1, 1), 0): 1, ((2, 2), 0): 1}


def test_alexander_triple_point():
    a = alexander(_table("triple"))
    assert a.coeffs == {((0, 0, 0), 0): 1, ((1, 1, 1), 0): -1}


def test_alexander_reflection_multibranch():
    # a_v = (-1)^r a_(l - e - v)
    for name in ["a3", "a5", "a7", "d5", "triple"]:
        c = corpus_curve(name)
        inv = invariants(c)
        a = alexander(build_table(c))
        sign = (-1) ** inv.r
        top = tuple(x - 1 for x in inv.conductor)
        for v in [key for (key, m) in a.coeffs]:
            w = tuple(x - y for x, y in zip(top, v))
            assert a.coefficient(v) == sign * a.coefficient(w)


def test_alexander_support_guard():
    table = build_table(corpus_curve("a3"), (4, 4))
    table.values[(3, 3)] += 1
    with pytest.raises(SupportViolation):
        alexander(table)


# ---------------------------------------------------------------------------
# restriction identity


def _without_each_branch(table):
    # sub_tables[rho] is the table of the curve without branch rho
    r = table.curve.r
    return [build_table(table.curve.subcurve([i for i in range(r)
                                              if i != rho]))
            for rho in range(r)]


def test_restriction_all_corpus_pairs():
    for name in ["a3", "a5", "a7", "d5", "triple"]:
        table = _table(name)
        sub_tables = _without_each_branch(table)
        assert torres_restriction_check(table, sub_tables) is True


def test_restriction_rejects_single_branch():
    with pytest.raises(ValueError):
        torres_restriction_check(_table("cusp"), [])


def test_restriction_rejects_mismatched_sub_tables():
    table = _table("triple")
    sub_tables = _without_each_branch(table)
    other = build_table(corpus_curve("triple"))
    # swapped, missing, or of equal but not the same branches
    for bad_table, bad_subs in [(table, [sub_tables[i] for i in (0, 2, 1)]),
                                (table, sub_tables[:2]),
                                (other, sub_tables)]:
        with pytest.raises(ValueError, match="without branch rho"):
            torres_restriction_check(bad_table, bad_subs)


def test_restriction_detects_a_wrong_sub_table_value():
    table = _table("d5")
    sub_tables = _without_each_branch(table)
    sub_tables[0].values[(1,)] += 1
    with pytest.raises(ConsistencyError, match="restriction identity"):
        torres_restriction_check(table, sub_tables)
