r"""
Reference job of the curvelat benchmark: fixed work that does not depend
on the program under test.

Usage, from the root of a checkout:

    python3 bench/reference.py

It starts a fresh interpreter, as every benchmark child does, and does
three kinds of work that curvelat's own time is made of: exact Fraction
arithmetic (ranking a fixed 26x26 matrix by Gaussian elimination),
scattered reads of a large list (a walk through a fixed permutation of
2^19 entries) and building a dict of tuple keys.  It prints one line of
results, which ``run.py`` checks.  ``run.py`` runs this job next to
every timed child and divides the child's time by the job's, which
removes most of the shared host's drift in execution speed (see
``bench/README.md``).
"""

from fractions import Fraction

SIZE = 26
SLOTS = 1 << 19
STEPS = 300000
KEYS = 20000


def matrix(size):
    r"""A fixed matrix of small Fractions from a linear congruence."""
    x = 12345
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            x = (1103515245 * x + 12345) % 2 ** 31
            row.append(Fraction(x % 201 - 100, x % 7 + 1))
        rows.append(row)
    return rows


def rank(rows):
    rows = [list(row) for row in rows]
    found = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(found, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        for i in range(found + 1, len(rows)):
            factor = rows[i][col] / top[col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], top)]
        found += 1
    return found


def walk(slots, steps):
    r"""Follow i -> (a i + c) mod slots through a list, ``steps`` times."""
    following = [(k * 2654435761 + 12345) % slots for k in range(slots)]
    i = 0
    for _ in range(steps):
        i = following[i]
    return i


def churn(keys):
    table = {}
    for k in range(keys):
        table[(k, k * 7 % 13)] = [k, str(k)]
    return sum(len(value[1]) for value in table.values())


if __name__ == "__main__":
    print(rank(matrix(SIZE)), walk(SLOTS, STEPS), churn(KEYS))
