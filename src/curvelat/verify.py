r"""
The self-verification battery.

It builds the Hilbert table of every nonempty branch subset exactly
once: the full curve over its conductor plus a margin, and each proper
subset over that box restricted to its branches.  Every check reads
those tables, and none builds one of its own.
"""

from .errors import ConsistencyError
from .hilbert import (box_points, build_table, invariants,
                      large_n_step_check, semigroup, symmetry_check)
from .latthom import (euler_check, grv_homology, r1_structure,
                      r2_classify, sk_homology)
from .oslattice import GradedGroup, Matroid, d0_structure_checks
from .series import (alexander, hilbert_from_poincare, motivic_normalized,
                     poincare_from_hilbert, torres_restriction_check)


def _verify_round_trip(table, box):
    # builds the table of every proper branch subset over box restricted
    # to its branches and returns all tables by bitmask; the full mask
    # is the curve itself
    curve = table.curve
    full = (1 << curve.r) - 1
    tables, poincares = {}, {}
    for mask in range(1, full + 1):
        idx = [i for i in range(curve.r) if mask >> i & 1]
        sub_box = tuple(box[i] for i in idx)
        tables[mask] = (table if mask == full
                        else build_table(curve.subcurve(idx), sub_box))
        poincares[mask] = poincare_from_hilbert(tables[mask], sub_box)
    for v in box_points(table.invariants.conductor):
        if hilbert_from_poincare(poincares, v) != table.value(v):
            raise ConsistencyError(
                "series round trip fails at %s" % (v,))
    return tables


def _verify_motivic(table):
    inv = table.invariants
    series = motivic_normalized(table)
    for (v, m), coeff in series.coeffs.items():
        w = tuple(a - b for a, b in zip(inv.conductor, v))
        if series.coefficient(w, m + inv.delta - sum(v)) != coeff:
            raise ConsistencyError(
                "normalized series is not reflection symmetric at %s"
                % (v,))


def _verify_alexander(table):
    inv = table.invariants
    poly = alexander(table)
    if inv.r == 1:
        for k in range(inv.mu + 1):
            if poly.coefficient((k,)) != poly.coefficient((inv.mu - k,)):
                raise ConsistencyError(
                    "polynomial is not palindromic at degree %d" % k)
    else:
        sign = 1 if inv.r % 2 == 0 else -1
        top = tuple(x - 1 for x in inv.conductor)
        for (v, _m) in poly.coeffs:
            w = tuple(x - y for x, y in zip(top, v))
            if poly.coefficient(v) != sign * poly.coefficient(w):
                raise ConsistencyError(
                    "polynomial reflection fails at %s" % (v,))


def run(curve, deep=False):
    r"""
    Run the self-verification battery on a curve.

    Yields ("ok", stage) or ("skip", "stage (reason)") as each stage
    finishes; a failing check raises, usually ConsistencyError.  deep
    widens every box by 4 instead of 2, raises the U-truncation, and
    checks more sublevel complexes.
    """
    margin = 4 if deep else 2
    inv = invariants(curve)
    yield ("ok", "invariants")
    box = tuple(c + margin for c in inv.conductor)
    table = build_table(curve, box)
    yield ("ok", "hilbert-table")
    symmetry_check(table)
    yield ("ok", "symmetry")
    large_n_step_check(table)
    yield ("ok", "large-index-steps")
    semigroup(table)
    yield ("ok", "semigroup")
    tables = _verify_round_trip(table, box)
    yield ("ok", "series-round-trip")
    _verify_motivic(table)
    yield ("ok", "motivic")
    _verify_alexander(table)
    yield ("ok", "alexander")
    if curve.r >= 2:
        full = (1 << curve.r) - 1
        torres_restriction_check(
            table, [tables[full & ~(1 << rho)] for rho in range(curve.r)])
        yield ("ok", "restriction")
    else:
        yield ("skip", "restriction (single branch)")
    euler_check(table)
    yield ("ok", "euler")
    u_truncation = 4 * curve.r + 12 if deep else None
    pieces = {v: grv_homology(table, v, u_truncation=u_truncation)
              for v in box_points(tuple(c + 2 for c in inv.conductor))}
    yield ("ok", "graded-homology")
    zero = (0,) * curve.r
    mid = tuple(c // 2 for c in inv.conductor)
    for v in (zero, mid, inv.conductor):
        d0_structure_checks(Matroid.from_local_matroid(table, v))
    yield ("ok", "arrangement-structure")
    levels = 5 if deep else 3
    for k in range(levels):
        if sk_homology(table, zero, k) != GradedGroup({0: (1, ())}):
            raise ConsistencyError(
                "sublevel complex at level %d is not contractible" % k)
    yield ("ok", "sublevel-contractible")
    if curve.r == 1:
        r1_structure(table)
        yield ("ok", "branch-structure")
    elif curve.r == 2:
        for v, groups in pieces.items():
            r2_classify(table, v, groups)
        yield ("ok", "branch-structure")
    else:
        yield ("skip", "branch-structure (three or more branches)")
