r"""
Exact scalar and linear algebra: truncated power series over the
rationals, a parser for polynomial input strings, rank by staircase
elimination over the integers, and Smith normal form over the
integers.

All arithmetic is exact.  Rationals are ``fractions.Fraction``,
matrices are plain lists of lists.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

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


def rank_rational(rows):
    r"""
    Rank of a matrix with integer or Rational entries.

    Each row is scaled by the lcm of its denominators, read through the
    ``numerator`` and ``denominator`` attributes that ints and Fractions
    both have, so an integer row (such as a row of jets) is copied as it
    is and never becomes Fractions.  Zero rows, which add nothing to
    the rank, are dropped.  The rank is then computed by staircase
    elimination over the integers: column by column, the first
    remaining row that is nonzero there becomes a pivot and leaves the
    matrix, and only the rows with an entry f != 0 in that column are
    rewritten, as (p/g) row - (f/g) pivot with p the pivot entry and
    g = gcd(p, f), then divided by their content.  Each step is an
    invertible row operation over Q, so the rank is the number of
    pivots; rows that become zero are dropped.

    Parameters
    ----------
    rows : list of lists of ints or Fractions

    Returns
    -------
    int
    """
    m = []
    for row in rows:
        if any(row):
            den = lcm(*[x.denominator for x in row])
            m.append([x.numerator * (den // x.denominator) for x in row])
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        if not m:
            break
        for i, top in enumerate(m):
            if top[col]:
                break
        else:
            continue
        del m[i]
        rank += 1
        p = top[col]
        rest = []
        for row in m:
            f = row[col]
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, top)]
                c = gcd(*row)
                if not c:
                    continue
                if c > 1:
                    row = [x // c for x in row]
            rest.append(row)
        m = rest
    return rank


SNFResult = namedtuple("SNFResult", ["divisors", "rank"])


def smith_normal_form(rows):
    r"""
    Smith normal form of an integer matrix.

    Parameters
    ----------
    rows : list of lists of ints

    Returns
    -------
    SNFResult
        divisors is the full invariant factor chain (1s included), each
        positive and dividing the next; rank is its length.
    """
    m = [[int(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    divisors = []
    top = 0
    while top < min(nrows, ncols):
        # smallest nonzero entry of the remaining block becomes the pivot
        piv = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        clean = False
        while not clean:
            clean = True
            for i in range(top + 1, nrows):
                if m[i][top] != 0:
                    q = m[i][top] // m[top][top]
                    for j in range(ncols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top] != 0:
                        m[top], m[i] = m[i], m[top]
                        clean = False
            for j in range(top + 1, ncols):
                if m[top][j] != 0:
                    q = m[top][j] // m[top][top]
                    for i in range(nrows):
                        m[i][j] -= q * m[i][top]
                    if m[top][j] != 0:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        clean = False
        # pivot must divide the rest of the block for the divisor chain
        adjusted = False
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if m[i][j] % m[top][top] != 0:
                    for jj in range(ncols):
                        m[top][jj] += m[i][jj]
                    adjusted = True
                    break
            if adjusted:
                break
        if adjusted:
            continue
        divisors.append(abs(m[top][top]))
        top += 1
    return SNFResult(divisors=divisors, rank=len(divisors))
