r"""Acceptance suite: twelve criteria, one test and one printed line each.

Each test exercises one acceptance criterion end to end against frozen
reference data, closed-form oracles, or an independent second computation
route; a one-line PASS or FAIL marker is printed per criterion (visible
with ``pytest -s``, or in the failure report).
"""

import functools
import random
import time
from itertools import product

from conftest import CORPUS, corpus_curve
from oracles import REFERENCE_A3, REFERENCE_D5, h_a_odd

from curvelat import (
    BranchParametrization,
    Curve,
    GradedGroup,
    Matroid,
    alexander,
    arrangement_poincare,
    build_table,
    d0_structure_checks,
    du_homology,
    grv_homology,
    grv_homology_formula,
    hilbert_from_poincare,
    hv_polynomial,
    motivic_normalized,
    os_homology,
    pi_value,
    poincare_from_hilbert,
    projective_poincare,
    r1_structure,
    r2_classify,
    sk_homology,
)

TRUNCATION = 32


def _criterion(num, label):
    # wrap a test so it always prints exactly one pass/fail line
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                extra = fn(*args, **kwargs)
            except BaseException:
                print("criterion %2d FAIL %s" % (num, label))
                raise
            suffix = " (%s)" % extra if extra else ""
            print("criterion %2d PASS %s%s" % (num, label, suffix))
        return wrapper
    return deco


def _box_points(box):
    return product(*(range(b + 1) for b in box))


def _a_family(n):
    # two smooth branches tangent to order n: y^2 = x^(2n)
    top = BranchParametrization.from_strings("t", "t^%d" % n, TRUNCATION)
    bot = BranchParametrization.from_strings("t", "-1*t^%d" % n, TRUNCATION)
    return Curve([top, bot])


def _plus(v, margin):
    return tuple(a + margin for a in v)


@_criterion(1, "reference hilbert grids reproduced exactly")
def test_criterion_01_reference_hilbert_grids():
    timings = []
    for name, grid in (("a3", REFERENCE_A3), ("d5", REFERENCE_D5)):
        corner = (len(grid[0]) - 1, len(grid) - 1)
        start = time.monotonic()
        table = build_table(corpus_curve(name), corner)
        for v2, row in enumerate(grid):
            for v1, expected in enumerate(row):
                assert table.value((v1, v2)) == expected, (name, v1, v2)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, (name, elapsed)
        timings.append("%s %.2fs" % (name, elapsed))
    return ", ".join(timings)


@_criterion(2, "closed-form family matches its piecewise formula")
def test_criterion_02_closed_form_family():
    for n in range(1, 5):
        box = (n + 3, n + 3)
        table = build_table(_a_family(n), box)
        for v in _box_points(box):
            assert table.value(v) == h_a_odd(n, *v), (n, v)


@_criterion(3, "poincare series match their known closed forms")
def test_criterion_03_poincare_closed_forms():
    cases = []
    for n in range(1, 5):
        expected = {(k, k): 1 for k in range(n)}
        cases.append((_a_family(n), expected))
    cases.append((corpus_curve("d5"), {(0, 0): 1, (1, 3): 1}))
    for curve, expected in cases:
        table = build_table(curve)
        box = _plus(table.invariants.conductor, 2)
        series = poincare_from_hilbert(table, box)
        for v in _box_points(box):
            assert series.coefficient(v) == expected.get(v, 0), v


@_criterion(4, "series inversion round-trips the hilbert table")
def test_criterion_04_inversion_round_trip():
    for name in CORPUS:
        curve = corpus_curve(name)
        table = build_table(curve)
        box = _plus(table.invariants.conductor, 2)
        poincares = {}
        for mask in range(1, 1 << curve.r):
            idx = [i for i in range(curve.r) if mask >> i & 1]
            sub_box = tuple(box[i] for i in idx)
            sub_table = build_table(curve.subcurve(idx), sub_box)
            poincares[mask] = poincare_from_hilbert(sub_table, sub_box)
        for v in _box_points(box):
            assert hilbert_from_poincare(poincares, v) == table.value(v), \
                (name, v)


@_criterion(5, "conductor reflection symmetry holds on the full box")
def test_criterion_05_symmetry():
    for name in CORPUS:
        table = build_table(corpus_curve(name))
        l = table.invariants.conductor
        delta = table.invariants.delta
        for v in _box_points(l):
            mirror = tuple(a - b for a, b in zip(l, v))
            assert table.value(mirror) - table.value(v) == \
                delta - sum(v), (name, v)


@_criterion(6, "graded homology routes agree at every box point")
def test_criterion_06_graded_homology_routes():
    start = time.monotonic()
    points = 0
    for name in CORPUS:
        table = build_table(corpus_curve(name))
        box = _plus(table.invariants.conductor, 2)
        for v in _box_points(box):
            groups = grv_homology(table, v)
            assert groups == grv_homology_formula(table, v), (name, v)
            points += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, elapsed
    return "%d points, %.1fs" % (points, elapsed)


@_criterion(7, "euler characteristics reassemble the poincare series")
def test_criterion_07_euler_identity():
    for name in CORPUS:
        table = build_table(corpus_curve(name))
        box = _plus(table.invariants.conductor, 2)
        series = poincare_from_hilbert(table, box)
        for v in _box_points(box):
            groups = grv_homology_formula(table, v)
            chi = sum(rank if q % 2 == 0 else -rank
                      for q in groups.degrees()
                      for rank in (groups.rank(q),))
            assert chi == series.coefficient(v), (name, v)


@_criterion(8, "motivic series: polynomial, reflection, q=1, signs")
def test_criterion_08_motivic_checks():
    for name in ("a3", "d5"):
        table = build_table(corpus_curve(name))
        inv = table.invariants
        l = inv.conductor
        series = motivic_normalized(table)
        # support inside [0, l], reflection pairing coefficient by
        # coefficient
        for (v, m), coeff in series.coeffs.items():
            if coeff == 0:
                continue
            assert all(0 <= a <= b for a, b in zip(v, l)), (name, v)
            mirror = tuple(b - a for a, b in zip(v, l))
            assert series.coefficient(mirror, m + inv.delta - sum(v)) \
                == coeff, (name, v, m)
        # q = 1 of the per-point polynomials recovers the plain
        # coefficients, and the single-point numerators alternate in
        # sign starting from (-1)^h(v)
        box = _plus(l, 2)
        for v in _box_points(box):
            poly = hv_polynomial(table, v)
            assert sum(poly.values()) == pi_value(table, v), (name, v)
            h = table.value(v)
            for m, coeff in poly.items():
                sign = 1 if (h + m) % 2 == 0 else -1
                assert sign * coeff >= 0, (name, v, m)


@_criterion(9, "arrangement homology suite over the matroid zoo")
def test_criterion_09_arrangement_suite():
    matroids = []
    for n in range(1, 5):
        matroids.append(Matroid.boolean(n))
    for r in range(1, 6):
        matroids.append(Matroid.generic_lines(r))
    seen = set()
    for name in CORPUS:
        table = build_table(corpus_curve(name))
        box = _plus(table.invariants.conductor, 1)
        for v in _box_points(box):
            m = Matroid.from_local_matroid(table, v)
            key = (m.n, tuple(sorted(m.rank.items())))
            if key not in seen:
                seen.add(key)
                matroids.append(m)
    for m in matroids:
        arr = arrangement_poincare(m)
        proj = projective_poincare(m)
        os = os_homology(m)
        for k in range(m.n + 1):
            expected = arr[k] if k < len(arr) else 0
            assert os.rank(k) == expected, (m.rank, k)
            assert os.torsion(k) == (), (m.rank, k)
        du = du_homology(m)
        floor = -(2 * m.n + 4)
        for q in range(0, floor - 1, -1):
            expected = proj[-q] if -q < len(proj) else 0
            assert du.rank(q) == expected, (m.rank, q)
            assert du.torsion(q) == (), (m.rank, q)
        assert all(floor <= q <= 0 for q in du.degrees()), m.rank
        assert d0_structure_checks(m) is True, m.rank
    return "%d matroids" % len(matroids)


@_criterion(10, "one-branch structure record verified in full")
def test_criterion_10_r1_structure():
    for name in ("line", "cusp", "t2t5"):
        curve = corpus_curve(name)
        table = build_table(curve)
        mu = table.invariants.mu
        record = r1_structure(table)
        # homology supported exactly on semigroup members, one copy in
        # degree -2 h(v)
        for v, groups in record.hl.items():
            if table.in_semigroup((v,)):
                assert groups == GradedGroup(
                    {-2 * table.value((v,)): (1, ())}), (name, v)
            else:
                assert groups.total_rank() == 0, (name, v)
        # second page support and reflection symmetry
        assert all(0 <= v <= mu for v in record.e2_a), name
        assert all(0 <= v + 1 <= mu for v in record.e2_alpha), name
        assert {mu - v for v in record.e2_a} == set(record.e2_a), name
        assert {mu - 2 - v for v in record.e2_alpha} == \
            set(record.e2_alpha), name
        # signed second-page counts equal the polynomial invariant
        signed = {}
        for v in record.e2_a:
            signed[v] = signed.get(v, 0) + 1
        for v in record.e2_alpha:
            signed[v + 1] = signed.get(v + 1, 0) - 1
        poly = alexander(table)
        for e in range(mu + 1):
            assert signed.get(e, 0) == poly.coefficient((e,)), (name, e)
        assert all(0 <= e <= mu for e, c in signed.items() if c), name


@_criterion(11, "two-branch case table matches direct homology")
def test_criterion_11_r2_classification():
    labels_seen = set()
    for name in ("a3", "a5", "a7", "d5"):
        table = build_table(corpus_curve(name))
        box = _plus(table.invariants.conductor, 2)
        for v in _box_points(box):
            case = r2_classify(table, v, grv_homology(table, v))
            labels_seen.add(case.label)
            assert case.label in "abcde", (name, v)
            member = table.in_semigroup(v)
            assert (case.label in ("d", "e")) == member, (name, v)
            assert (case.groups.total_rank() > 0) == member, (name, v)
            assert case.groups == grv_homology_formula(table, v), (name, v)
    assert labels_seen == set("abcde")


@_criterion(12, "sublevel complexes are contractible")
def test_criterion_12_sublevel_contractibility():
    rng = random.Random(20260817)
    point = GradedGroup({0: (1, ())})
    checks = 0
    for name in CORPUS:
        table = build_table(corpus_curve(name))
        l = table.invariants.conductor
        bases = [tuple(0 for _ in l)]
        for _ in range(2):
            bases.append(tuple(rng.randint(0, c) for c in l))
        for u in bases:
            h = table.value(u)
            for k in range(h, h + 4):
                assert sk_homology(table, u, k) == point, (name, u, k)
                checks += 1
    return "%d complexes" % checks
