r"""
The self-verification battery.

It builds the Hilbert table of every nonempty branch subset exactly
once: the full curve over its conductor plus a margin, and each proper
subset over that box restricted to its branches.  The checks read
those tables or the round trip's pi series, and none builds a table.
"""

from .errors import ConsistencyError, InsufficientTruncation
from .hilbert import (build_table, invariants, large_n_step_check,
                      local_field, local_matroid, semigroup, symmetry_check)
from .latthom import (euler_check, graded_pieces, r1_structure,
                      r2_classify, sk_homology)
from .oslattice import GradedGroup, d0_structure_checks
from .series import (alexander, hilbert_from_poincare, motivic_normalized,
                     poincare_from_hilbert, torres_restriction_check)


def _verify_round_trip(table, box):
    # builds the table of every proper branch subset over box restricted
    # to its branches and returns the pi series of every nonempty subset
    # by bitmask; the full mask is the curve itself
    curve = table.curve
    full = (1 << curve.r) - 1
    poincares = {}
    for mask in range(1, full + 1):
        idx = [i for i in range(curve.r) if mask >> i & 1]
        sub_box = tuple(box[i] for i in idx)
        sub = (table if mask == full
               else build_table(curve.subcurve(idx), sub_box))
        poincares[mask] = poincare_from_hilbert(sub, sub_box)
    l = table.invariants.conductor
    rebuilt = hilbert_from_poincare(poincares, l)
    for (v, h), expected in zip(rebuilt.items(), table.grid(l)):
        if h != expected:
            raise ConsistencyError(
                "series round trip fails at %s" % (v,))
    return poincares


def _verify_motivic(table):
    inv = table.invariants
    series = motivic_normalized(table)
    for (v, m), coeff in series.coeffs.items():
        w = tuple(a - b for a, b in zip(inv.conductor, v))
        if series.coefficient(w, m + inv.delta - sum(v)) != coeff:
            raise ConsistencyError(
                "normalized series is not reflection symmetric at %s"
                % (v,))


def _verify_alexander(table, poly):
    inv = table.invariants
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
    finishes; a failing check raises, usually ConsistencyError.  The
    tables and the graded pieces cover the conductor plus 2, or plus 4
    when deep is set, which also checks more sublevel complexes; the
    Euler check stays on the conductor plus 1.  The large-index steps
    rank h up to the largest conductor entry plus 4, so a curve
    truncated below that raises InsufficientTruncation before any table
    is built.
    """
    margin = 4 if deep else 2
    inv = invariants(curve)
    yield ("ok", "invariants")
    need = max(inv.conductor) + 4
    if curve.truncation < need:
        raise InsufficientTruncation(
            "verify needs %d series terms but only %d are kept"
            % (need, curve.truncation))
    box = tuple(c + margin for c in inv.conductor)
    table = build_table(curve, box)
    yield ("ok", "hilbert-table")
    symmetry_check(table)
    yield ("ok", "symmetry")
    large_n_step_check(table)
    yield ("ok", "large-index-steps")
    semigroup(table)
    yield ("ok", "semigroup")
    poincares = _verify_round_trip(table, box)
    yield ("ok", "series-round-trip")
    _verify_motivic(table)
    yield ("ok", "motivic")
    poincare = poincares[(1 << curve.r) - 1]
    poly = alexander(table, poincare)
    _verify_alexander(table, poly)
    yield ("ok", "alexander")
    if curve.r >= 2:
        torres_restriction_check(table, poincares)
        yield ("ok", "restriction")
    else:
        yield ("skip", "restriction (single branch)")
    euler_check(table, poincare)
    yield ("ok", "euler")
    pieces = graded_pieces(table, box)
    yield ("ok", "graded-homology")
    zero = (0,) * curve.r
    mid = tuple(c // 2 for c in inv.conductor)
    for v in (zero, mid, inv.conductor):
        d0_structure_checks(local_matroid(table, v))
    yield ("ok", "arrangement-structure")
    levels = 5 if deep else 3
    for k in range(levels):
        if sk_homology(table, zero, k) != GradedGroup({0: (1, ())}):
            raise ConsistencyError(
                "sublevel complex at level %d is not contractible" % k)
    yield ("ok", "sublevel-contractible")
    if curve.r == 1:
        r1_structure(table, pieces)
        yield ("ok", "branch-structure")
    elif curve.r == 2:
        # the case and the piece both shift by h(v) along a local rank
        # vector, so the first point of each vector is classified
        ids = local_field(table, box)[1]
        classified = 0
        for (v, groups), i in zip(pieces.items(), ids):
            if i == classified:
                r2_classify(table, v, groups)
                classified += 1
        yield ("ok", "branch-structure")
    else:
        yield ("skip", "branch-structure (three or more branches)")
