"""Cartan matrices of finite type.

Everything here is exact integer arithmetic.  The Cartan matrix alone
supplies every number the rest of the package needs; no inner product or
Euclidean realization is ever materialized.  The roots themselves, which
only the oracles read, are in schuprod.oracles.

All public indices (simple roots, word letters) are 1-based.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import chain
from math import gcd, lcm

from .errors import NotCartan, NotFiniteType
from .frozen import Frozen

# Off-diagonal Cartan numbers of finite type.
_ALLOWED_OFF_DIAGONAL = (0, -1, -2, -3)

# The largest rank accepted.  Validation is O(rank^2) on Dynkin diagrams
# and O(rank^3) on dense inputs, and a named type builds rank^2 cells, so
# larger inputs are refused before either.
MAX_RANK = 500


class CartanMatrix(Frozen):
    """Validated Cartan matrix.

    entries[i][j] is the Cartan number 2(b_i, b_j)/(b_j, b_j) of simple
    roots b_{i+1}, b_{j+1}: row i lists the pairings of root i against
    every coroot.  Rows and columns are stored 0-based, the public API
    is 1-based.  Construct through validate_cartan or
    cartan_matrix_by_name.
    """

    __slots__ = ("n", "entries", "__dict__")

    def __init__(self, n: int, entries: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    @cached_property
    def sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per row i, its nonzero entries (j, entries[i][j]), 0-based."""
        return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in self.entries)

    def pairing(self, i: int, j: int) -> int:
        """Cartan number of simple roots i and j, 1-based."""
        return self.entries[i - 1][j - 1]

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def validate_cartan(m) -> CartanMatrix:
    """Check a square integer matrix and return it as a CartanMatrix.

    Raises NotCartan if the shape constraints fail (not a list or tuple
    of lists or tuples, diagonal not 2, off-diagonal outside
    {0,-1,-2,-3}, asymmetric zero pattern) and NotFiniteType if the
    symmetrized matrix is not positive definite, in which case root
    generation would not terminate.
    """
    if not isinstance(m, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in m):
        raise NotCartan("matrix must be an array of arrays of integers")
    rows = [list(row) for row in m]
    n = len(rows)
    if n == 0:
        raise NotCartan("empty matrix")
    if n > MAX_RANK:
        raise NotCartan(f"rank {n} exceeds the bound {MAX_RANK}")
    if any(len(row) != n for row in rows):
        raise NotCartan(f"matrix is not square: {rows}")
    # One pass over the entry types; only a matrix that is not all plain
    # ints is walked entry by entry, to accept int subclasses other than
    # bool and to name the first entry refused.
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        for row in rows:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise NotCartan(f"non-integer entry {x!r}")
    for i in range(n):
        if rows[i][i] != 2:
            raise NotCartan(f"diagonal entry [{i + 1}][{i + 1}] = {rows[i][i]}, expected 2")
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] not in _ALLOWED_OFF_DIAGONAL:
                raise NotCartan(
                    f"off-diagonal entry [{i + 1}][{j + 1}] = {rows[i][j]} outside {{0,-1,-2,-3}}"
                )
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise NotCartan(f"asymmetric zero pattern at [{i + 1}][{j + 1}]")
    _check_finite_type(rows)
    return CartanMatrix(n, tuple(tuple(row) for row in rows))


def _check_finite_type(rows):
    """Positive definiteness of the symmetrization, by exact leading minors."""
    symmetrizer(rows)
    # The symmetrization scales row i by d_i > 0, which multiplies each
    # leading minor by a positive number: the integer matrix's leading
    # minors have the same signs, and need no fractions.
    for k, minor in enumerate(_leading_minors(rows), start=1):
        if minor <= 0:
            raise NotFiniteType(
                f"symmetrized matrix has non-positive leading {k}x{k} minor"
            )


def symmetrizer(rows) -> list[int]:
    """Positive integers d_i with d_i*rows[i][j] = d_j*rows[j][i], so that
    d_i is proportional to 1/(b_i, b_i) on each component; raises
    NotFiniteType if there is none.  Each component starts from 1 at its
    first node, and its ratios, kept as reduced int pairs, are scaled by
    the least common multiple of their denominators."""
    n = len(rows)
    # Propagate along the nonzero off-diagonal graph, component by component.
    d = [0] * n
    ratio: list = [None] * n
    for start in range(n):
        if d[start]:
            continue
        ratio[start] = (1, 1)
        stack, component = [start], [start]
        while stack:
            i = stack.pop()
            num, den = ratio[i]
            for j in range(n):
                if i == j or rows[i][j] == 0:
                    continue
                # d_j = d_i * rows[i][j] / rows[j][i], with den > 0.
                p, q = num * rows[i][j], den * rows[j][i]
                if q < 0:
                    p, q = -p, -q
                g = gcd(p, q)
                dj = p // g, q // g
                if ratio[j] is None:
                    ratio[j] = dj
                    component.append(j)
                    stack.append(j)
                elif ratio[j] != dj:
                    raise NotFiniteType("matrix is not symmetrizable")
        scale = lcm(*(ratio[j][1] for j in component))
        for j in component:
            d[j] = ratio[j][0] * scale // ratio[j][1]
    return d


def _leading_minors(rows):
    """The leading k x k minors of an integer matrix, k = 1..n, from one
    fraction-free (Bareiss) elimination without pivoting, done row by
    row and only on nonzero entries.

    Minor k depends only on the first k rows, so row k is reduced when it
    is reached, by the earlier pivot rows that meet its nonzero columns,
    in order; rows past the first failing minor are never reduced.  Each
    step is exact: the pivot of row k is the leading (k+1) x (k+1) minor.
    A row that a pivot row does not meet would only be scaled, by the
    ratio of that pivot to the one before; the ratios telescope, so the
    row keeps the minor of its last reduction and divides by it at the
    next one instead.  A Dynkin diagram is a forest of nodes of degree at
    most three, so each row meets a few pivot rows of a few entries, and
    the work is the O(n^2) scan of the rows; other inputs pass as
    finite type only up to their first failing minor, and cost at most
    O(n^3).  A zero minor leaves the next step without a divisor, so the
    minors stop after the first zero one.
    """
    # pivots[p]: the pivot of row p, its entries right of p when it was
    # reduced, and those columns with 0 in each, to fill in rows it meets.
    pivots = []
    prev = 1
    for k, row in enumerate(rows):
        row = {j: x for j, x in enumerate(row) if x}
        since = 1
        for p in range(k):
            head = row.pop(p, 0)
            if head:
                pivot, right, fill = pivots[p]
                at = right.get
                row = {
                    j: y
                    for j, x in (fill | row).items()
                    if (y := (pivot * x - head * at(j, 0)) // since)
                }
                since = pivot
        # Row k is now the reduced row times since / prev.
        pivot = row.get(k, 0) * prev // since
        yield pivot
        if not pivot:
            return
        right = {j: x * prev // since for j, x in row.items() if j > k}
        pivots.append((pivot, right, dict.fromkeys(right, 0)))
        prev = pivot


# Built-in Cartan matrices, indexed as in the standard Dynkin diagrams.
# B has the short simple root last, C the long one.  G2 is ordered with
# the long root first: the golden 5x5 word matrices pin that labeling.
_NAME_RE = re.compile(r"^([A-G])(\d+)$")


def _chain(n: int) -> list[list[int]]:
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = -1
    return rows


def _builtin_rows(letter: str, n: int) -> list[list[int]]:
    if letter == "A":
        if n < 1:
            raise NotCartan("type A needs rank >= 1")
        return _chain(n)
    if letter == "B":
        if n < 2:
            raise NotCartan("type B needs rank >= 2")
        rows = _chain(n)
        rows[n - 2][n - 1] = -2
        return rows
    if letter == "C":
        if n < 2:
            raise NotCartan("type C needs rank >= 2")
        rows = _chain(n)
        rows[n - 1][n - 2] = -2
        return rows
    if letter == "D":
        if n < 3:
            raise NotCartan("type D needs rank >= 3")
        rows = _chain(n)
        rows[n - 2][n - 1] = rows[n - 1][n - 2] = 0
        rows[n - 3][n - 1] = rows[n - 1][n - 3] = -1
        return rows
    if letter == "E":
        if n not in (6, 7, 8):
            raise NotCartan("type E exists for ranks 6, 7, 8")
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        edges += [(6, 7)] if n >= 7 else []
        edges += [(7, 8)] if n == 8 else []
        for a, b in edges:
            rows[a - 1][b - 1] = rows[b - 1][a - 1] = -1
        return rows
    if letter == "F":
        if n != 4:
            raise NotCartan("type F exists for rank 4")
        rows = _chain(4)
        rows[1][2] = -2
        rows[2][1] = -1
        return rows
    if letter == "G":
        if n != 2:
            raise NotCartan("type G exists for rank 2")
        return [[2, -3], [-1, 2]]
    raise NotCartan(f"unknown type letter {letter!r}")


def cartan_matrix_by_name(name: str) -> CartanMatrix:
    """Expand a named type like "G2", "A4" or "B3" from the built-in tables."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise NotCartan(f"cannot parse type name {name!r} (expected e.g. 'A4', 'G2')")
    n = int(m.group(2))
    if n > MAX_RANK:
        raise NotCartan(f"rank {n} exceeds the bound {MAX_RANK}")
    return validate_cartan(_builtin_rows(m.group(1), n))
