r"""
The Hilbert function on a lattice box, the value semigroup, and the
numeric invariants of a curve germ.

The table builder fills [0, l] (l the conductor) with prefix ranks:
one integer echelon basis of jet columns per point of the first r - 1
coordinates, extended by the last branch's columns one at a time.
Beyond the conductor every unit step adds 1.  It then re-derives a
sample of cells from scratch with a full Bareiss rank (h_oracle) and
checks the step recursion (a direction-i step is 1 exactly when some
semigroup point agrees with v in coordinate i and dominates it
elsewhere) over the whole box.  Any mismatch raises ConsistencyError.
"""

from collections import namedtuple
from itertools import product
from math import gcd

from .curve import branch_delta, h_oracle, intersection_multiplicity
from .errors import ConsistencyError
from .oslattice import Matroid, arrangement_poincare

CurveInvariants = namedtuple("CurveInvariants", [
    "r", "delta", "delta_branches", "mu", "mu_branches",
    "pairwise", "conductor",
])


def invariants(curve):
    r"""
    Numeric invariants of the curve.

    Branch deltas come from semigroup gap counts, pairwise intersection
    numbers from the two-route scan in the curve module; the rest are
    the standard combinations: mu_i = 2 delta_i, the total delta adds
    pairwise intersections over branch pairs, mu = 2 delta - r + 1, and
    conductor_i = mu_i + sum of intersections with the other branches.
    The conductor is then verified against two direct matrix-rank
    values, h(l) = delta and h(l - e_i) = delta.

    Returns
    -------
    CurveInvariants
    """
    cached = getattr(curve, "_invariants", None)
    if cached is not None:
        return cached
    r = curve.r
    singles = [branch_delta(b) for b in curve.branches]
    delta_branches = [d for d, _ in singles]
    mu_branches = [2 * d for d in delta_branches]
    pairwise = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            m = intersection_multiplicity(curve, i, j)
            pairwise[i][j] = m
            pairwise[j][i] = m
    delta = sum(delta_branches) + sum(pairwise[i][j]
                                      for i in range(r)
                                      for j in range(i + 1, r))
    mu = 2 * delta - r + 1
    conductor = tuple(mu_branches[i] + sum(pairwise[i][j]
                                           for j in range(r) if j != i)
                      for i in range(r))
    if h_oracle(curve, conductor) != delta:
        raise ConsistencyError(
            "h at the conductor is %d, expected delta = %d"
            % (h_oracle(curve, conductor), delta))
    for i in range(r):
        if conductor[i] >= 1:
            lower = list(conductor)
            lower[i] -= 1
            if h_oracle(curve, tuple(lower)) != delta:
                raise ConsistencyError(
                    "h one below the conductor in direction %d is %d, "
                    "expected delta = %d"
                    % (i, h_oracle(curve, tuple(lower)), delta))
    result = CurveInvariants(r=r, delta=delta, delta_branches=delta_branches,
                             mu=mu, mu_branches=mu_branches,
                             pairwise=pairwise, conductor=conductor)
    curve._invariants = result
    return result


def box_points(box):
    r"""Every lattice point of [0, box], in lexicographic order."""
    return product(*(range(b + 1) for b in box))


class HilbertTable:
    r"""
    Filled box of h values with total evaluation.

    Lookups outside the stored box walk back to the box corner: beyond
    the conductor every unit step raises h by exactly 1, and the corner
    dominates the conductor by construction.
    """

    def __init__(self, curve, corner, values, inv):
        self.curve = curve
        self.corner = corner
        self.values = values
        self.invariants = inv

    def value(self, v):
        r"""h at an integer vector of length r (negatives clamp to 0)."""
        if len(v) != len(self.corner):
            raise ValueError("expected %d coordinates, got %d"
                             % (len(self.corner), len(v)))
        v = tuple(max(int(c), 0) for c in v)
        clipped = tuple(min(c, m) for c, m in zip(v, self.corner))
        extra = sum(c - m for c, m in zip(v, clipped))
        return self.values[clipped] + extra

    def step(self, v, i):
        r"""h(v + e_i) - h(v), always 0 or 1."""
        ahead = [c + 1 if j == i else c for j, c in enumerate(v)]
        return self.value(ahead) - self.value(v)

    def in_semigroup(self, v):
        r"""True when every coordinate step at v equals 1."""
        if any(c < 0 for c in v):
            return False
        return all(self.step(v, i) == 1 for i in range(len(v)))


def _spot_check(curve, values, corner):
    # re-derive a deterministic ~10% of cells from the matrix rank route
    for v, h in values.items():
        acc = 0
        for c in v:
            acc = (acc * 1000003 + c) % 2147483648
        if acc % 10 == 0 and max(v) <= curve.truncation:
            direct = h_oracle(curve, v)
            if direct != h:
                raise ConsistencyError(
                    "table value %d at %s but direct rank is %d"
                    % (h, v, direct))


def _echelon_insert(basis, column):
    # basis maps a pivot k to a gcd-normalized integer vector whose
    # first nonzero entry is at k; returns basis itself when column is
    # in its span, else a new dict with one more pivot
    w = column
    k = next((j for j, x in enumerate(w) if x), None)
    while k in basis:
        b = basis[k]
        g = gcd(w[k], b[k])
        f, p = w[k] // g, b[k] // g
        w = [p * x - f * y for x, y in zip(w, b)]
        k = next((j for j in range(k + 1, len(w)) if w[j]), None)
    if k is None:
        return basis
    g = gcd(*w)
    return {**basis, k: [x // g for x in w]}


def _fill_to_conductor(curve, l):
    # h on [0, l] as ranks of jet columns, in lexicographic order.  h(v)
    # needs the monomials of degree < max(v); those of degree >= max(v)
    # vanish in every column e < v_i, so the monomials of degree
    # < max(l) serve the whole box, and rows zero in every column of
    # the box are dropped.  invariants() has evaluated h at l, so the
    # truncation covers every column.
    top = max(l)
    monomials = [(a, total - a) for total in range(top)
                 for a in range(total + 1)]
    columns = [[[branch.jet(a, b)[e] for a, b in monomials]
                for e in range(n)]
               for branch, n in zip(curve.branches, l)]
    live = [k for k in range(len(monomials))
            if any(col[k] for cols in columns for col in cols)]
    columns = [[[col[k] for k in live] for col in cols] for cols in columns]
    values = {}

    def sweep(prefix, basis):
        # basis spans the columns e < prefix_j of each branch j
        if len(prefix) == len(columns):
            values[prefix] = len(basis)
            return
        cols = columns[len(prefix)]
        for e, col in enumerate(cols):
            sweep(prefix + (e,), basis)
            basis = _echelon_insert(basis, col)
        sweep(prefix + (len(cols),), basis)

    sweep((), {})
    return values


def _step_rule_sweep(table, bound):
    # second route: a step is 1 exactly when a semigroup witness agrees
    # in that coordinate and dominates elsewhere; witnesses may be
    # capped at max(conductor, v) componentwise because the semigroup
    # is closed under componentwise minima with its far region
    l = table.invariants.conductor
    r = len(l)
    for v in box_points(bound):
        for i in range(r):
            cap = [max(l[j], v[j]) for j in range(r)]
            ranges = [range(v[j], cap[j] + 1) if j != i
                      else range(v[i], v[i] + 1) for j in range(r)]
            witness = any(table.in_semigroup(u) for u in product(*ranges))
            if table.step(v, i) != (1 if witness else 0):
                raise ConsistencyError(
                    "step rule fails at %s direction %d" % (v, i))


def build_table(curve, box=None):
    r"""
    Fill h over [0, corner] and run both consistency routes.

    Cells of [0, l] (l the conductor) are prefix ranks of integer jet
    columns: for each point of the first r - 1 coordinates, an echelon
    basis of that prefix's columns is extended by the last branch's
    columns one at a time, and the rank after each column is the next
    h.  Every other cell is filled in lexicographic order as its
    neighbor's value plus 1, one step back in the first direction i
    with v_i > l_i.  A sample of cells is then recomputed by h_oracle,
    a full Bareiss rank, and the step rule is checked over the box.

    Parameters
    ----------
    curve : Curve
    box : tuple of ints, optional
        Requested box; the stored corner is max(box, conductor) + 2
        in every coordinate.  Defaults to the conductor.

    Returns
    -------
    HilbertTable
    """
    inv = invariants(curve)
    r = curve.r
    l = inv.conductor
    if box is None:
        box = l
    box = tuple(max(int(b), 0) for b in box)
    bound = tuple(max(b, c) for b, c in zip(box, l))
    corner = tuple(b + 2 for b in bound)
    below = _fill_to_conductor(curve, l)
    values = {}
    for v in box_points(corner):
        for i in range(r):
            if v[i] - 1 >= l[i]:
                values[v] = values[v[:i] + (v[i] - 1,) + v[i + 1:]] + 1
                break
        else:
            values[v] = below[v]
    table = HilbertTable(curve, corner, values, inv)
    _spot_check(curve, values, corner)
    _step_rule_sweep(table, bound)
    return table


def semigroup(table, box=None):
    r"""
    Value semigroup points inside a box, sorted lexicographically,
    read off the given HilbertTable.

    The default box is the conductor plus 1 in every coordinate, which
    shows the full gap structure together with one layer of the far
    region in which every lattice point is a member.  Every point of
    the box that dominates the conductor must be a member, otherwise
    ConsistencyError is raised.
    """
    l = table.invariants.conductor
    if box is None:
        box = tuple(c + 1 for c in l)
    members = set(v for v in box_points(box) if table.in_semigroup(v))
    for v in box_points(box):
        if all(a >= b for a, b in zip(v, l)) and v not in members:
            raise ConsistencyError(
                "%s dominates the conductor but is not a member" % (v,))
    return sorted(members)


def symmetry_check(table):
    r"""
    Verify h(l - v) - h(v) = delta - |v| for every v in [0, l] on the
    given HilbertTable.

    Returns True, or raises ConsistencyError at the first failure.
    """
    inv = table.invariants
    l = inv.conductor
    for v in box_points(l):
        mirrored = tuple(a - b for a, b in zip(l, v))
        if table.value(mirrored) - table.value(v) != inv.delta - sum(v):
            raise ConsistencyError(
                "symmetry fails at %s: h(l-v)=%d, h(v)=%d, delta-|v|=%d"
                % (v, table.value(mirrored), table.value(v),
                   inv.delta - sum(v)))
    return True


def large_n_step_check(table):
    r"""
    Verify directly from matrix ranks that steps are 1 far out: for
    every direction i and every n from conductor_i to conductor_i + 3,
    h increases by exactly 1 in direction i at a spread of sample
    points with v_i = n, computing each sample's five values once.
    Only the curve and conductor of the table are read; every value
    comes from h_oracle.

    Returns True, or raises ConsistencyError.
    """
    curve = table.curve
    l = table.invariants.conductor
    r = len(l)
    for i in range(r):
        samples = [sorted({0, 1, l[j], l[j] + 1}) if j != i else [l[i]]
                   for j in range(r)]
        for base in product(*samples):
            line = [base[:i] + (n,) + base[i + 1:]
                    for n in range(l[i], l[i] + 5)]
            h = [h_oracle(curve, v) for v in line]
            for v, here, ahead in zip(line, h, h[1:]):
                if ahead - here != 1:
                    raise ConsistencyError(
                        "step beyond the conductor is %d at %s "
                        "direction %d" % (ahead - here, v, i))
    return True


def local_matroid(table, v):
    r"""
    Rank function of the local matroid at v: for each subset K of
    branch indices (as a bitmask), rank(K) = h(v + e_K) - h(v).

    Only reads the ranks; Matroid.from_local_matroid checks the matroid
    axioms on them.

    Returns
    -------
    dict mapping bitmask to rank
    """
    r = len(v)
    base = table.value(v)
    rank = {}
    for mask in range(1 << r):
        w = tuple(v[j] + (1 if mask >> j & 1 else 0) for j in range(r))
        rank[mask] = table.value(w) - base
    return rank


def char_poly(table, v):
    r"""
    Characteristic polynomial of the local matroid at v, as a tuple of
    coefficients indexed by exponent: sum over subsets K of
    (-1)^|K| t^(rank(full) - rank(K)).

    Zero whenever v is outside the value semigroup.
    """
    # the coefficient of t^(full - k) is (-1)^k times the coefficient of
    # t^k in the arrangement polynomial sum (-1)^|K| (-t)^rank(K)
    poincare = arrangement_poincare(Matroid.from_local_matroid(table, v))
    return tuple((-1) ** k * c for k, c in enumerate(poincare))[::-1]
