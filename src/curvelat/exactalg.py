r"""
Exact scalar and linear algebra: truncated power series over the
rationals, a parser for polynomial input strings, the one integer
elimination kernel and the ranks built on it, and Smith normal form
over the integers by one elimination loop on sparse rows, whose every
pass splits off a pivot or leaves an entry smaller than it.

All arithmetic is exact.  Rationals are ``fractions.Fraction``.  A
matrix is a list of sparse rows, dicts mapping an index to its entry;
the kernel's vectors hold nonzero ints, with the pivot at the least index.
``echelon_insert`` extends a basis without changing it, and
``rank_sparse`` grows one basis in place.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import index

from .errors import PolySyntaxError


class TruncSeries:
    r"""
    Power series in one variable kept modulo t^truncation.

    Coefficients are stored sparsely as a dict mapping exponent to a
    nonzero Rational; every stored exponent is below the truncation.
    """

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation):
        self.truncation = truncation
        self.coeffs = {}
        for e, c in coeffs.items():
            c = Fraction(c)
            if c != 0 and e < truncation:
                self.coeffs[e] = c

    def coefficient(self, e):
        r"""Coefficient of t^e, zero when absent."""
        return self.coeffs.get(e, Fraction(0))

    def order(self):
        r"""
        Smallest exponent with nonzero coefficient, or None when the
        series is zero modulo t^truncation.
        """
        return min(self.coeffs) if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, TruncSeries)
                and self.truncation == other.truncation
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.truncation, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                if e == 0:
                    parts.append(str(c))
                elif e == 1:
                    parts.append("%s*t" % c)
                else:
                    parts.append("%s*t^%d" % (c, e))
            body = " + ".join(parts)
        return "TruncSeries(%s + O(t^%d))" % (body, self.truncation)


def series_mul(a, b):
    r"""Product, truncated to the smaller of the two truncations."""
    t = min(a.truncation, b.truncation)
    coeffs = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if e < t:
                coeffs[e] = coeffs.get(e, Fraction(0)) + ca * cb
    return TruncSeries(coeffs, t)


# ---------------------------------------------------------------------------
# polynomial parser
#
#   expr  := term (('+'|'-') term)*
#   term  := [coeff '*']? 't' ['^' nat]?  |  coeff
#   coeff := int | int '/' posint
#
# whitespace is ignored; error offsets point into the original string.


def parse_poly(text, truncation):
    r"""
    Parse a polynomial in t into a TruncSeries.

    Parameters
    ----------
    text : str
        Input such as "t^3", "1 + 2*t - 1/2*t^4", "-1*t^2", "0".
    truncation : int
        Exponent cutoff of the resulting series; terms at or beyond it
        are parsed but dropped.

    Returns
    -------
    TruncSeries

    Raises
    ------
    PolySyntaxError
        On any grammar violation, with the 0-based offset of the
        offending character.
    """
    n = len(text)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_digits(what):
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise PolySyntaxError("expected %s" % what, start)
        return int(text[start:pos])

    def parse_int():
        nonlocal pos
        skip_ws()
        neg = False
        if pos < n and text[pos] == "-":
            neg = True
            pos += 1
        value = parse_digits("integer")
        return -value if neg else value

    def parse_coeff():
        nonlocal pos
        num = parse_int()
        skip_ws()
        if pos < n and text[pos] == "/":
            pos += 1
            skip_ws()
            den_start = pos
            den = parse_digits("denominator")
            if den == 0:
                raise PolySyntaxError("zero denominator", den_start)
            return Fraction(num, den)
        return Fraction(num)

    def parse_term():
        # returns (coefficient, exponent)
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == "t":
            pos += 1
            return Fraction(1), parse_exponent()
        coeff = parse_coeff()
        skip_ws()
        if pos < n and text[pos] == "*":
            pos += 1
            skip_ws()
            if pos >= n or text[pos] != "t":
                raise PolySyntaxError("expected 't' after '*'", pos)
            pos += 1
            return coeff, parse_exponent()
        return coeff, 0

    def parse_exponent():
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            return parse_digits("exponent")
        return 1

    coeffs = {}

    def add_term(c, e):
        if e < truncation:
            coeffs[e] = coeffs.get(e, Fraction(0)) + c

    skip_ws()
    if pos >= n:
        raise PolySyntaxError("empty polynomial", pos)
    c, e = parse_term()
    add_term(c, e)
    while True:
        skip_ws()
        if pos >= n:
            break
        op = text[pos]
        if op not in "+-":
            raise PolySyntaxError("expected '+' or '-'", pos)
        pos += 1
        c, e = parse_term()
        add_term(c if op == "+" else -c, e)
    return TruncSeries(coeffs, truncation)


# ---------------------------------------------------------------------------
# exact linear algebra


def _reduce(basis, w):
    # w reduced at its least index k by the basis vector b led there, as
    # (p/g) w - (f/g) b (f, p their entries at k, g = gcd(f, p)), until k
    # is at no pivot; returns k (None in the span) and w made primitive
    k = min(w) if w else None
    while k in basis:
        b = basis[k]
        g = gcd(w[k], b[k])
        f, p = w[k] // g, b[k] // g
        w = w.copy() if p == 1 else {j: p * x for j, x in w.items()}
        _add_multiple(w, b, -f)
        k = min(w) if w else None
    c = gcd(*w.values())
    return k, {j: x // c for j, x in w.items()} if c > 1 else w


def echelon_insert(basis, vector):
    r"""
    Insert a sparse integer vector into an echelon basis, a dict mapping
    each pivot k to a primitive sparse vector whose least index is k.
    The persistent use of the one reduction step: no argument changes,
    and the result is ``basis`` itself for a vector in its span, else a
    new dict with one more pivot, whose vector may be ``vector`` itself.
    """
    k, w = _reduce(basis, vector)
    return basis if k is None else {**basis, k: w}


def rank_sparse(rows):
    r"""
    Rank of sparse integer rows, by the one-shot use of the reduction
    step: one basis grows in place, and the rows are not changed.
    """
    basis = {}
    for row in rows:
        k, w = _reduce(basis, row)
        if k is not None:
            basis[k] = w
    return len(basis)


def rank_rational(rows):
    r"""
    Rank of a matrix of sparse rows of ints or Fractions.  Each row goes
    into ``rank_sparse`` as its nonzero entries; a row not all ints is
    first scaled by the lcm of its entries' ``denominator`` (ints and
    Fractions both have it, and ``numerator``).  The rows are not
    changed.  A dense row (a list) or an entry that is not an int or a
    Fraction raises TypeError.
    """
    sparse = []
    for row in rows:
        entries = _entries(row)
        if not set(map(type, row.values())) <= {int}:
            try:
                den = lcm(*[x.denominator for x in row.values()])
                entries = [(j, x.numerator * (den // x.denominator))
                           for j, x in entries]
            except AttributeError:
                raise TypeError("entries must be ints or Fractions") from None
        sparse.append({j: x for j, x in entries if x})
    return rank_sparse(sparse)


SNFResult = namedtuple("SNFResult", ["divisors", "rank"])


def smith_normal_form(rows):
    r"""
    Smith normal form of an integer matrix.

    The matrix is kept as sparse rows, dicts mapping a column to its
    nonzero entry.  Each pass takes an entry p of least absolute value
    as the pivot and reduces its column by row operations and its row by
    column operations, leaving remainders of absolute value below |p|.
    When none is left and p divides every other entry, the pass splits
    off |p|; otherwise it adds a row with an entry x that p does not
    divide to the pivot row, whose entry at that column becomes x mod p.
    So the loop ends: each pass either splits off a pivot or leaves an
    entry smaller than its pivot.  A unit pivot is split off in one pass.

    Parameters
    ----------
    rows : list of sparse rows of ints, which are not changed

    Returns
    -------
    SNFResult
        divisors is the full invariant factor chain (1s included), each
        positive and dividing the next; rank is its length.

    A dense row (a list) or an entry that is not an int (a Fraction or
    a float) raises TypeError.
    """
    live = [{j: y for j, x in _entries(row) if (y := index(x))}
            for row in rows]
    divisors = []
    while live := [row for row in live if row]:
        p = None
        for row in live:
            for k, x in row.items():
                if p is None or abs(x) < abs(p):
                    pivot, j, p = row, k, x
            if abs(p) == 1:
                break
        for row in live:
            if row is not pivot and j in row:
                _add_multiple(row, pivot, -(row[j] // p))
        steps = {k: x // p for k, x in pivot.items() if k != j}
        for row in live:
            if j in row:
                _add_multiple(row, steps, -row[j])
        if len(pivot) > 1 or any(j in row for row in live if row is not pivot):
            continue
        bad = next(((row, k) for row in live for k, x in row.items() if x % p),
                   None)
        if bad is None:
            divisors.append(abs(p))
            pivot.clear()
        else:
            row, k = bad
            pivot.update(row)
            pivot[k] %= p
    return SNFResult(divisors=divisors, rank=len(divisors))


def _entries(row):
    # the (index, entry) pairs of a sparse row; a dense row raises
    try:
        return row.items()
    except AttributeError:
        raise TypeError("rows must be sparse, dicts mapping an index to "
                        "its entry, not %s" % type(row).__name__) from None


def _add_multiple(row, other, q):
    # row += q * other, on sparse rows, dropping entries that become 0
    for k, x in other.items():
        y = row.get(k, 0) + q * x
        if y:
            row[k] = y
        else:
            row.pop(k, None)
