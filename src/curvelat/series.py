r"""
Generating series built from the Hilbert table: the Hilbert series
itself, the alternating-sum series pi and h rebuilt from it, the
q-refined series and its normalized polynomial form, and, read off pi
series already computed, the annihilating polynomials and the
restriction identity relating a curve's series to the series of the
curve with one branch removed.

The q-polynomial at a point is the running signed count of h on its
unit cube; pi there stays its own alternating sum, for the Euler check.

A BoxSeries stores finitely many terms c * t^v * q^m with v inside a
box; series in the t variables alone keep m = 0 everywhere.
"""

from itertools import accumulate

from .errors import ConsistencyError, PolynomialityViolation, SupportViolation
from .hilbert import box_points
from .oslattice import signed_rank_count


class BoxSeries:
    r"""
    Finitely supported exponent-to-coefficient map.

    Keys of coeffs are (v, m) with v a tuple of length r and m the
    q exponent; zero coefficients are dropped.  box is the corner of
    the region in which the t support is meaningful (series data
    outside the box was never computed, not proven zero).
    """

    def __init__(self, r, box, coeffs):
        self.r = r
        self.box = tuple(box)
        self.coeffs = {}
        for (v, m), c in coeffs.items():
            if c != 0:
                self.coeffs[(tuple(v), m)] = c

    def coefficient(self, v, m=0):
        return self.coeffs.get((tuple(v), m), 0)

    def __eq__(self, other):
        return (isinstance(other, BoxSeries) and self.r == other.r
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "BoxSeries(%s)" % canonical_str(self)


def canonical_str(series):
    r"""
    Deterministic rendering: terms ascend lexicographically by t
    exponent vector with the q exponent last, every sign is written,
    products use '*', powers use '^', and the t variable is named t
    for one branch and t1..tr otherwise.
    """
    if not series.coeffs:
        return "0"
    names = (["t"] if series.r == 1
             else ["t%d" % (i + 1) for i in range(series.r)])
    parts = []
    for (v, m) in sorted(series.coeffs, key=lambda km: (km[0], km[1])):
        c = series.coeffs[(v, m)]
        factors = []
        for i, e in enumerate(v):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append("%s^%d" % (names[i], e))
        if m == 1:
            factors.insert(0, "q")
        elif m > 1:
            factors.insert(0, "q^%d" % m)
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def hilbert_series(table, box):
    r"""Sum of h(v) t^v over the box."""
    coeffs = {(v, 0): table.value(v) for v in box_points(box)}
    return BoxSeries(len(box), box, coeffs)


def pi_value(table, v):
    r"""
    Alternating sum over all subsets K of branches (the empty set
    included) of (-1)^(|K|-1) h(v + e_K).
    """
    return sum(h if mask.bit_count() % 2 else -h
               for mask, h in enumerate(table.cube(v)))


def poincare_from_hilbert(table, box):
    r"""The series of pi values over the box."""
    coeffs = {(v, 0): pi_value(table, v) for v in box_points(box)}
    return BoxSeries(len(box), box, coeffs)


def hilbert_from_poincare(poincares, box):
    r"""
    Rebuild h on [0, box] from the pi series of every nonempty branch
    subset: h(v) is the sum over nonempty K of (-1)^(|K|-1) times the
    sum of the K-subcurve pi values over the box from 0 to v restricted
    to K minus 1, read off running sums of each series built one axis
    at a time.

    Parameters
    ----------
    poincares : dict mapping bitmask to BoxSeries
        The series for the subcurve with the masked branches, indexed
        in increasing branch order; every box must reach box - 1 on its
        coordinates, and a missing bitmask raises ValueError.
    box : tuple of ints

    Returns
    -------
    dict mapping every point of [0, box] to h there
    """
    r = len(box)
    sums = []  # (branches of K, signed running sums of its series)
    for mask in range(1, 1 << r):
        if mask not in poincares:
            raise ValueError("no pi series for bitmask %d" % mask)
        idx = [i for i in range(r) if mask >> i & 1]
        upper = tuple(box[i] - 1 for i in idx)
        p = poincares[mask]
        if any(b < u for b, u in zip(p.box, upper)):
            raise ValueError("subcurve series box is too small")
        sign = 1 if len(idx) % 2 else -1
        acc = {w: sign * p.coefficient(w) for w in box_points(upper)}
        for axis in range(len(upper)):
            for w in box_points(upper):
                if w[axis]:
                    acc[w] += acc[w[:axis] + (w[axis] - 1,) + w[axis + 1:]]
        sums.append((idx, acc))
    # a point with some v_i = 0, i in K, reads no K term
    return {v: sum(acc.get(tuple(v[i] - 1 for i in idx), 0)
                   for idx, acc in sums)
            for v in box_points(box)}


def hv_polynomial(table, v):
    r"""
    The q-polynomial at a single lattice point: the alternating sum
    over subsets K of q^(h(v + e_K)), divided exactly by 1 - q.

    The coefficient of q^m is the signed count of the cube's values up
    to m (see oslattice.signed_rank_count), read off h itself.

    Parameters
    ----------
    table : HilbertTable
    v : tuple of ints

    Returns
    -------
    dict mapping q-exponent to nonzero integer coefficient
    """
    running = accumulate(signed_rank_count(table.cube(v))[:-1])
    return {m: c for m, c in enumerate(running) if c}


def motivic_series(table, box):
    r"""
    The q-refined series: the coefficient of t^v is the polynomial
    [sum over subsets K of (-1)^|K| q^(h(v + e_K))] / (1 - q), which
    hv_polynomial reads at v.
    """
    r = len(box)
    coeffs = {}
    for v in box_points(box):
        for m, c in hv_polynomial(table, v).items():
            coeffs[(v, m)] = c
    return BoxSeries(r, box, coeffs)


def motivic_normalized(table):
    r"""
    The q-refined series multiplied by the product of (1 - t_i q),
    which collapses it to a polynomial supported in the conductor box.

    The series is computed on [0, l + 1] (l the conductor): a term of
    the product there is pushed only from points of that box, so it is
    exact, and any term outside [0, l] raises PolynomialityViolation.
    The returned polynomial is supported in [0, l].
    """
    l = table.invariants.conductor
    r = len(l)
    wide = tuple(c + 1 for c in l)
    g = motivic_series(table, wide)
    coeffs = {}
    for (v, m), c in g.coeffs.items():
        for mask in range(1 << r):
            size = mask.bit_count()
            w = tuple(a + (mask >> i & 1) for i, a in enumerate(v))
            if all(a <= b for a, b in zip(w, wide)):
                key = (w, m + size)
                coeffs[key] = coeffs.get(key, 0) + (-1) ** size * c
    result = {}
    for (v, m), c in coeffs.items():
        if c == 0:
            continue
        if any(a > b for a, b in zip(v, l)):
            raise PolynomialityViolation(
                "normalized q series has a term at %s outside the "
                "conductor box" % (v,))
        result[(v, m)] = c
    return BoxSeries(r, l, result)


def alexander(table, poincare):
    r"""
    The annihilating polynomial of the curve, read off poincare, the pi
    series of the given HilbertTable, over [0, l + 2] (l the conductor);
    a series box below l + 2 raises ValueError.

    For one branch this is the pi series times (1 - t): supported in
    [0, mu] (mu = l), palindromic, and it is checked to vanish for two
    steps beyond mu.  For several branches it is the pi series itself,
    a polynomial supported in [0, l - 1], checked two steps past l.
    Violations raise SupportViolation.
    """
    inv = table.invariants
    l = inv.conductor
    wide = tuple(c + 2 for c in l)
    if any(b < w for b, w in zip(poincare.box, wide)):
        raise ValueError("series box %s is below l + 2" % (poincare.box,))
    if inv.r == 1:
        mu = inv.mu
        coeffs = {}
        for k in range(wide[0] + 1):
            c = poincare.coefficient((k,)) - poincare.coefficient((k - 1,))
            if c:
                if k > mu:
                    raise SupportViolation(
                        "one-branch polynomial has a term at degree %d "
                        "past mu = %d" % (k, mu))
                coeffs[((k,), 0)] = c
        return BoxSeries(1, (mu,), coeffs)
    coeffs = {}
    for v in box_points(wide):
        c = poincare.coefficient(v)
        if c:
            if any(a > b - 1 for a, b in zip(v, l)):
                raise SupportViolation(
                    "polynomial has a term at %s outside the open "
                    "conductor box" % (v,))
            coeffs[(v, 0)] = c
    return BoxSeries(inv.r, tuple(c - 1 for c in l), coeffs)


def torres_restriction_check(table, poincares):
    r"""
    Verify the restriction identity for every branch rho: the full pi
    series at t_rho = 1 equals the pi series of the curve without
    branch rho times 1 - t^s, s_j the intersection number of branches
    rho and j, on the whole box of the latter.  Both are read from
    poincares, the bitmask -> pi series dict of hilbert_from_poincare;
    the table gives the invariants.  The full series is a polynomial in
    [0, l - 1] (l the conductor), so a full box below l - 1, or a
    missing mask, raises ValueError.

    Returns True, or raises ConsistencyError.
    """
    inv = table.invariants
    r = inv.r
    if r < 2:
        raise ValueError("restriction needs at least two branches")
    every = (1 << r) - 1
    missing = {every, *(every ^ 1 << i for i in range(r))} - set(poincares)
    if missing:
        raise ValueError("no pi series for bitmask %d" % min(missing))
    full = poincares[every]
    if any(b < c - 1 for b, c in zip(full.box, inv.conductor)):
        raise ValueError("full series box %s is below l - 1" % (full.box,))
    for rho in range(r):
        sub = poincares[every ^ 1 << rho]
        collapsed = {}
        for (v, _m), c in full.coeffs.items():
            w = v[:rho] + v[rho + 1:]
            collapsed[w] = collapsed.get(w, 0) + c
        shift = inv.pairwise[rho][:rho] + inv.pairwise[rho][rho + 1:]
        for w in box_points(sub.box):
            prev = tuple(a - s for a, s in zip(w, shift))
            expected = sub.coefficient(w) - sub.coefficient(prev)
            if collapsed.get(w, 0) != expected:
                raise ConsistencyError(
                    "restriction identity fails at %s: %d vs %d"
                    % (w, collapsed.get(w, 0), expected))
    return True
