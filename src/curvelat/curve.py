r"""
Branch parametrizations and the valuation-matrix route to the Hilbert
function.

A curve germ is described by its branches, each given parametrically as
a pair of polynomials (x(t), y(t)).  The fundamental quantity is
h(v) = codimension of the set of functions whose order on branch i is
at least v_i; everything else in the package is derived from it.  This
module computes h(v) directly as the rank of a matrix of monomial jet
coefficients, with no recursion and no caching, so it can serve as the
ground-truth route against which faster routes are checked.
"""

from fractions import Fraction
from math import gcd

from .errors import (
    ConsistencyError,
    InsufficientTruncation,
    InvalidParametrization,
    NonStabilizing,
    PrimitivityError,
)
from .exactalg import TruncSeries, parse_poly, rank_rational, series_mul


class BranchParametrization:
    r"""
    One branch (x(t), y(t)) with both coordinates truncated at the same
    order.

    Constructor constraints: the coordinates may not both be zero, each
    nonzero coordinate must vanish at t = 0, and the exponents appearing
    across both coordinates must have gcd 1 (otherwise the parametric
    description traverses its image multiple times and is rejected).
    """

    def __init__(self, x, y):
        if x.truncation != y.truncation:
            raise InvalidParametrization(
                "coordinate truncations differ: %d vs %d"
                % (x.truncation, y.truncation))
        if x.is_zero() and y.is_zero():
            raise InvalidParametrization("both coordinates are zero")
        exps = sorted(set(x.coeffs) | set(y.coeffs))
        if exps[0] == 0:
            raise InvalidParametrization(
                "coordinate does not vanish at t = 0")
        g = 0
        for e in exps:
            g = gcd(g, e)
        if g != 1:
            raise PrimitivityError(
                "exponent gcd is %d, parametrization is not primitive" % g)
        self.x = x
        self.y = y
        self.truncation = x.truncation

    @classmethod
    def from_strings(cls, x_text, y_text, truncation):
        r"""Parse coordinate polynomials and build the branch."""
        return cls(parse_poly(x_text, truncation),
                   parse_poly(y_text, truncation))

    def multiplicity(self):
        r"""Smallest order among the nonzero coordinates."""
        orders = [s.order() for s in (self.x, self.y) if not s.is_zero()]
        return min(orders)

    def monomial(self, a, b):
        r"""The series x(t)^a * y(t)^b."""
        xa = self._power(self.x, a, "_xpow")
        yb = self._power(self.y, b, "_ypow")
        return series_mul(xa, yb)

    def _power(self, base, n, slot):
        cache = self.__dict__.setdefault(slot, {})
        if n not in cache:
            if n == 0:
                cache[n] = TruncSeries({0: Fraction(1)}, self.truncation)
            else:
                cache[n] = series_mul(self._power(base, n - 1, slot), base)
        return cache[n]


class Curve:
    r"""A curve germ given by one or more branch parametrizations."""

    def __init__(self, branches):
        if not branches:
            raise InvalidParametrization("a curve needs at least one branch")
        t = branches[0].truncation
        for b in branches:
            if b.truncation != t:
                raise InvalidParametrization(
                    "branches have different truncations")
        self.branches = list(branches)
        self.truncation = t

    @property
    def r(self):
        return len(self.branches)

    def subcurve(self, indices):
        r"""The curve formed by the selected branches, in given order."""
        return Curve([self.branches[i] for i in indices])


def _clamp(v):
    return tuple(max(int(c), 0) for c in v)


def h_oracle(curve, v):
    r"""
    Hilbert value h(v) as a matrix rank, directly from the definition.

    Functions are represented by the monomials x^a y^b with a + b below
    max(v); the matrix row of a monomial lists, branch by branch, the
    coefficients of t^0 .. t^(v_i - 1) of the monomial composed with the
    branch, and h(v) is the rank.  Negative coordinates are clamped to
    zero first.

    Parameters
    ----------
    curve : Curve
    v : tuple of ints, one per branch

    Returns
    -------
    int

    Raises
    ------
    InsufficientTruncation
        If some clamped coordinate exceeds the series truncation.
    """
    if len(v) != curve.r:
        raise ValueError("expected %d coordinates, got %d"
                         % (curve.r, len(v)))
    v = _clamp(v)
    m = max(v)
    if m == 0:
        return 0
    if curve.truncation < m:
        raise InsufficientTruncation(
            "need %d series terms but only %d are kept"
            % (m, curve.truncation))
    monomials = [(a, total - a) for total in range(m)
                 for a in range(total + 1)]
    rows = []
    for a, b in monomials:
        row = []
        for i, branch in enumerate(curve.branches):
            composed = branch.monomial(a, b)
            row.extend(composed.coefficient(e) for e in range(v[i]))
        rows.append(row)
    return rank_rational(rows)


def branch_delta(branch):
    r"""
    Delta invariant and semigroup conductor of a single branch.

    Scans n = 0, 1, 2, ... deciding membership of n in the value
    semigroup by whether h(n+1) - h(n) = 1, and stops once a run of
    consecutive members as long as the branch multiplicity is seen;
    from then on every integer is a member, so the gap list is
    complete.

    Returns
    -------
    (delta, conductor) : pair of ints

    Raises
    ------
    NonStabilizing
        If the run certificate is not reached within the truncation.
    """
    sub = Curve([branch])
    a = branch.multiplicity()
    gaps = []
    run = 0
    prev = 0
    n = 0
    while n + 1 <= branch.truncation:
        cur = h_oracle(sub, (n + 1,))
        if cur - prev == 1:
            run += 1
            if run >= a:
                conductor = gaps[-1] + 1 if gaps else 0
                return len(gaps), conductor
        else:
            gaps.append(n)
            run = 0
        prev = cur
        n += 1
    raise NonStabilizing(
        "semigroup membership not certified within truncation %d"
        % branch.truncation)


def _implicit_polynomial(branch):
    # exact implicit equation of the branch, for the resultant route
    import sympy

    t, x, y = sympy.symbols("t x y")
    if branch.x.is_zero():
        return x, (x, y)
    if branch.y.is_zero():
        return y, (x, y)
    px = sum(sympy.Rational(c) * t ** e for e, c in branch.x.coeffs.items())
    py = sum(sympy.Rational(c) * t ** e for e, c in branch.y.coeffs.items())
    f = sympy.resultant(sympy.expand(x - px), sympy.expand(y - py), t)
    return sympy.expand(f), (x, y)


def _intersection_by_resultant(bi, bj):
    # order of branch i's equation along branch j; None when identical
    import sympy

    t = sympy.Symbol("t")
    f, (x, y) = _implicit_polynomial(bi)
    px = sum(sympy.Rational(c) * t ** e for e, c in bj.x.coeffs.items())
    py = sum(sympy.Rational(c) * t ** e for e, c in bj.y.coeffs.items())
    g = sympy.expand(f.subs({x: px, y: py}))
    if g == 0:
        return None
    poly = sympy.Poly(g, t)
    return min(e for (e,), c in poly.terms())


def intersection_multiplicity(curve, i, j):
    r"""
    Intersection multiplicity of branches i and j.

    Primary route: the count of missing jets
    g(k) = h_i(k) + h_j(k) - h_{ij}(k, k) stabilizes to the
    intersection multiplicity; the scan accepts once the value repeats
    past the conductors of both branches plus the candidate value.  The
    result is then cross-checked against the order of one branch's
    implicit equation composed with the other parametrization and a
    ConsistencyError is raised if the two routes disagree.

    Raises
    ------
    NonStabilizing
        If the scan is not accepted within the truncation (in
        particular when the two branches coincide).
    """
    if i == j:
        raise ValueError("intersection of a branch with itself")
    bi, bj = curve.branches[i], curve.branches[j]
    pair = Curve([bi, bj])
    di, ci = branch_delta(bi)
    dj, cj = branch_delta(bj)
    k0 = max(ci, cj)
    sub_i = Curve([bi])
    sub_j = Curve([bj])
    accepted = None
    prev_g = None
    k = 1
    while k <= curve.truncation:
        g = (h_oracle(sub_i, (k,)) + h_oracle(sub_j, (k,))
             - h_oracle(pair, (k, k)))
        if g == prev_g and k >= k0 + g + 1:
            accepted = g
            break
        prev_g = g
        k += 1
    if accepted is None:
        raise NonStabilizing(
            "intersection scan did not stabilize within truncation %d"
            % curve.truncation)
    check = _intersection_by_resultant(bi, bj)
    if check is None:
        raise NonStabilizing("branches have identical images")
    if check != accepted:
        raise ConsistencyError(
            "intersection multiplicity: jet scan gives %d, resultant "
            "route gives %d" % (accepted, check))
    return accepted
