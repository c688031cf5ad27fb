r"""
Generating series built from the Hilbert table: the Hilbert series
itself, the alternating-sum series pi, the q-refined series and its
normalized polynomial form, the one- and multi-variable annihilating
polynomials, and the restriction identity relating a curve's series to
the series of the curve with one branch removed.

A BoxSeries stores finitely many terms c * t^v * q^m with v inside a
box; series in the t variables alone keep m = 0 everywhere.
"""

from .errors import ConsistencyError, PolynomialityViolation, SupportViolation
from .hilbert import box_points


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


def _shift(v, mask):
    return tuple(c + (1 if mask >> i & 1 else 0) for i, c in enumerate(v))


def hilbert_series(table, box):
    r"""Sum of h(v) t^v over the box."""
    coeffs = {(v, 0): table.value(v) for v in box_points(box)}
    return BoxSeries(len(box), box, coeffs)


def pi_value(table, v):
    r"""
    Alternating sum over all subsets K of branches (the empty set
    included) of (-1)^(|K|-1) h(v + e_K).
    """
    r = len(v)
    total = 0
    for mask in range(1 << r):
        sign = 1 if mask.bit_count() % 2 else -1
        total += sign * table.value(_shift(v, mask))
    return total


def poincare_from_hilbert(table, box):
    r"""The series of pi values over the box."""
    coeffs = {(v, 0): pi_value(table, v) for v in box_points(box)}
    return BoxSeries(len(box), box, coeffs)


def hilbert_from_poincare(poincares, v):
    r"""
    Rebuild h(v) from the pi series of every nonempty branch subset:
    sum over nonempty K of (-1)^(|K|-1) times the sum of the K-subcurve
    pi values over the box from 0 to v restricted to K minus 1.

    Parameters
    ----------
    poincares : dict mapping bitmask to BoxSeries
        The series for the subcurve with the masked branches, indexed
        in increasing branch order; every box must reach v - 1 on its
        coordinates.
    v : tuple of ints

    Returns
    -------
    int
    """
    r = len(v)
    total = 0
    for mask in range(1, 1 << r):
        idx = [i for i in range(r) if mask >> i & 1]
        upper = [v[i] - 1 for i in idx]
        if any(u < 0 for u in upper):
            continue
        p = poincares[mask]
        for b, u in zip(p.box, upper):
            if b < u:
                raise ValueError("subcurve series box is too small")
        part = sum(c for (w, m), c in p.coeffs.items()
                   if m == 0 and all(a <= b for a, b in zip(w, upper)))
        total += (-1) ** (len(idx) - 1) * part
    return total


def hv_polynomial(table, v):
    r"""
    The q-polynomial at a single lattice point: the alternating sum
    over subsets K of q^(h(v + e_K)), divided exactly by 1 - q.

    Parameters
    ----------
    table : HilbertTable
    v : tuple of ints

    Returns
    -------
    dict mapping q-exponent to nonzero integer coefficient; the
    division must be exact, otherwise ConsistencyError is raised.
    """
    r = len(v)
    num = {}
    for mask in range(1 << r):
        size = mask.bit_count()
        e = table.value(_shift(v, mask))
        num[e] = num.get(e, 0) + (-1) ** size
    out = {}
    acc = 0
    top = max(num)
    for m in range(top + 1):
        acc += num.get(m, 0)
        if m < top:
            if acc != 0:
                out[m] = acc
        elif acc != 0:
            raise ConsistencyError(
                "alternating q sum at %s is not divisible by 1 - q"
                % (v,))
    return out


def motivic_series(table, box):
    r"""
    The q-refined series: the coefficient of t^v is the polynomial
    [sum over subsets K of (-1)^|K| q^(h(v + e_K))] / (1 - q).

    The division must be exact; a nonzero remainder raises
    ConsistencyError.
    """
    r = len(box)
    coeffs = {}
    for v in box_points(box):
        for m, c in hv_polynomial(table, v).items():
            coeffs[(v, m)] = c
    return BoxSeries(r, box, coeffs)


def motivic_normalized(table, margin=2):
    r"""
    The q-refined series multiplied by the product of (1 - t_i q),
    which collapses it to a polynomial supported in the conductor box.

    The series is computed margin steps past the conductor in every
    direction and any surviving term outside [0, conductor] raises
    PolynomialityViolation; the returned polynomial is supported in
    [0, conductor].
    """
    if margin < 2:
        raise ValueError("margin must be at least 2")
    inv = table.invariants
    l = inv.conductor
    r = len(l)
    wide = tuple(c + margin for c in l)
    g = motivic_series(table, wide)
    coeffs = {}
    for (v, m), c in g.coeffs.items():
        for mask in range(1 << r):
            size = mask.bit_count()
            w = _shift(v, mask)
            if all(a <= b for a, b in zip(w, wide)):
                key = (w, m + size)
                coeffs[key] = coeffs.get(key, 0) + (-1) ** size * c
    # terms at the outer rim carry truncation noise from the factors,
    # so only the band strictly inside the computed box is meaningful
    trusted = tuple(c + margin - 1 for c in l)
    result = {}
    for (v, m), c in coeffs.items():
        if c == 0 or any(a > b for a, b in zip(v, trusted)):
            continue
        if any(a > b for a, b in zip(v, l)):
            raise PolynomialityViolation(
                "normalized q series has a term at %s outside the "
                "conductor box" % (v,))
        result[(v, m)] = c
    return BoxSeries(r, l, result)


def alexander(table, margin=2):
    r"""
    The annihilating polynomial of the curve, read off the given
    HilbertTable.

    For one branch this is the pi series times (1 - t): supported in
    [0, mu], palindromic, and it is checked to vanish for margin steps
    beyond mu.  For several branches it is the pi series itself, which
    is a polynomial supported in [0, conductor - 1]; the support check
    runs margin steps past the conductor.  Violations raise
    SupportViolation.
    """
    inv = table.invariants
    l = inv.conductor
    r = inv.r
    if r == 1:
        mu = inv.mu
        wide = mu + margin
        pis = [pi_value(table, (v,)) for v in range(wide + 1)]
        coeffs = {}
        for k in range(wide + 1):
            c = pis[k] - (pis[k - 1] if k else 0)
            if c:
                if k > mu:
                    raise SupportViolation(
                        "one-branch polynomial has a term at degree %d "
                        "past mu = %d" % (k, mu))
                coeffs[((k,), 0)] = c
        return BoxSeries(1, (mu,), coeffs)
    wide = tuple(c + margin for c in l)
    coeffs = {}
    for v in box_points(wide):
        c = pi_value(table, v)
        if c:
            if any(a > b - 1 for a, b in zip(v, l)):
                raise SupportViolation(
                    "polynomial has a term at %s outside the open "
                    "conductor box" % (v,))
            coeffs[(v, 0)] = c
    return BoxSeries(r, tuple(c - 1 for c in l), coeffs)


def torres_restriction_check(table, sub_tables):
    r"""
    Verify the restriction identity for every branch rho: the full pi
    series evaluated at t_rho = 1, multiplied by the geometric series
    in the single monomial whose exponent on each remaining branch j
    is the intersection of branch rho with branch j, equals the pi
    series of the curve without branch rho, on the comparison box (that
    subcurve's conductor plus 2).

    Both sides are read off the given tables: the full series once off
    table, and sub_tables[rho] must be the table of the curve without
    branch rho, otherwise ValueError is raised.

    Returns True, or raises ConsistencyError.
    """
    inv = table.invariants
    r = inv.r
    if r < 2:
        raise ValueError("restriction needs at least two branches")
    branches = table.curve.branches
    if ([sub.curve.branches for sub in sub_tables]
            != [branches[:i] + branches[i + 1:] for i in range(r)]):
        raise ValueError("sub_tables[rho] must be the table of the curve "
                         "without branch rho")
    full = alexander(table)
    for remove, sub in enumerate(sub_tables):
        keep = [i for i in range(r) if i != remove]
        box = tuple(c + 2 for c in sub.invariants.conductor)
        lhs = poincare_from_hilbert(sub, box)
        collapsed = {}
        for (v, _m), c in full.coeffs.items():
            w = tuple(v[i] for i in keep)
            collapsed[w] = collapsed.get(w, 0) + c
        values = {w: collapsed.get(w, 0) for w in box_points(box)}
        shift = tuple(inv.pairwise[remove][j] for j in keep)
        for w in sorted(values, key=sum):
            prev = tuple(a - s for a, s in zip(w, shift))
            if all(a >= 0 for a in prev):
                values[w] += values[prev]
        for w in box_points(box):
            if values[w] != lhs.coefficient(w):
                raise ConsistencyError(
                    "restriction identity fails at %s: %d vs %d"
                    % (w, values[w], lhs.coefficient(w)))
    return True
