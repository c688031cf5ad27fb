r"""
Exact scalar and linear algebra: truncated power series over the
rationals, a parser for polynomial input strings, the one integer
elimination kernel (echelon_insert) and the rank built on it, and Smith
normal form over the integers by one elimination loop on sparse rows,
whose every pass splits off a pivot or leaves an entry smaller than it.

All arithmetic is exact.  Rationals are ``fractions.Fraction``,
matrices are plain lists of lists.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import compress, count
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


def echelon_insert(basis, vector):
    r"""
    Insert an integer vector into an echelon basis, a dict mapping each
    pivot k to a primitive vector whose first nonzero entry is at k.

    The vector is reduced at its leading entry against the basis vector
    with its pivot there, as (p/g) w - (f/g) b with f, p the two leading
    entries and g = gcd(f, p), and divided by its content, until that
    entry is at no pivot.  Neither argument is changed: the result is
    ``basis`` itself when the vector is in its span, else a new dict
    with one more pivot, whose vector may be ``vector`` itself.
    """
    w = vector
    k = next(compress(count(), w), None)
    while k in basis:
        b = basis[k]
        g = gcd(w[k], b[k])
        f, p = w[k] // g, b[k] // g
        w = [p * x - f * y for x, y in zip(w, b)]
        c = gcd(*w)
        if c > 1:
            w = [x // c for x in w]
        k = next(compress(count(k + 1), w[k + 1:]), None)
    if k is None:
        return basis
    c = gcd(*w)
    return {**basis, k: [x // c for x in w] if c > 1 else w}


def rank_rational(rows):
    r"""
    Rank of a matrix with integer or Rational entries.

    The rank is the number of pivots of the echelon basis that
    ``echelon_insert`` builds from the rows, one row at a time, starting
    from an empty basis.  A row of ints (such as a row of jets) goes
    into the kernel as it is and is not rescaled; any other row is
    first scaled by the lcm of its denominators, read through the
    ``numerator`` and ``denominator`` attributes that ints and Fractions
    both have.  The rows are not changed.  Rows of different lengths
    raise ValueError, and an entry that is not an int or a Fraction
    raises TypeError.

    Parameters
    ----------
    rows : list of lists of ints or Fractions

    Returns
    -------
    int
    """
    basis = {}
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError("rows of different lengths")
        if not set(map(type, row)) <= {int}:
            try:
                den = lcm(*[x.denominator for x in row])
                row = [x.numerator * (den // x.denominator) for x in row]
            except AttributeError:
                raise TypeError("entries must be ints or Fractions") from None
        basis = echelon_insert(basis, row)
    return len(basis)


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
    rows : list of lists of ints

    Returns
    -------
    SNFResult
        divisors is the full invariant factor chain (1s included), each
        positive and dividing the next; rank is its length.

    Rows of different lengths raise ValueError, and an entry that is
    not an int (a Fraction or a float) raises TypeError.
    """
    live = [{j: x for j, x in enumerate(map(index, row)) if x} for row in rows]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("rows of different lengths")
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


def _add_multiple(row, other, q):
    # row += q * other, on sparse rows, dropping entries that become 0
    for k, x in other.items():
        y = row.get(k, 0) + q * x
        if y:
            row[k] = y
        else:
            row.pop(k, None)
