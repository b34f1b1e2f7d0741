"""Sparse homogeneous integer polynomials and the triangular operator.

The operator T_A attached to a strictly upper-triangular integer matrix
A sends a degree-k homogeneous polynomial in x_1..x_k to an integer.  It
is defined by three elimination laws, applied additively over the
expansion f = sum_r h_r * x_k^r with h_r free of x_k:

  1. a degree-k polynomial not involving x_k evaluates to 0;
  2. for k = 1, x_1 evaluates to 1;
  3. h * x_k^r with r >= 1 reduces to the rank-(k-1) evaluation of
     h * (a_{1,k} x_1 + ... + a_{k-1,k} x_{k-1})^(r-1).

This module implements the recursion above (triangular_eval,
triangular_eval_many); the independent closed-form route over balanced
flow matrices lives with the other oracles (oracles.triangular_eval_closed),
and tests fuzz that the two agree exactly.

The recursion runs on plain dicts from exponent tuples to coefficient
vectors, one entry per input polynomial, so several polynomials on the
same matrix share one elimination (the operator is linear; eliminate
takes that dict directly).  Each level applies law 3 by Horner's rule,
one multiplication by the elimination form per step.  It also prunes:
once a proper prefix x_1..x_i of a monomial carries degree above i,
later steps can only raise it, so the monomial cannot reach law 2 and is
dropped as it appears (vanishing_filter states the test; law 1 is its
longest prefix).

All coefficients are native ints, which are arbitrary precision, so the
exactness contract holds with no overflow concerns.
"""

from __future__ import annotations

from .errors import DegreeMismatch, VariableCountMismatch


class HomogPoly:
    """Homogeneous integer polynomial, keyed by exponent vectors.

    Immutable by convention: never mutate .terms after construction.
    Zero coefficients are dropped; every stored exponent vector must sum
    to the declared degree.
    """

    __slots__ = ("k", "degree", "terms")

    def __init__(self, k: int, degree: int, terms: dict):
        if k < 0 or degree < 0:
            raise ValueError("k and degree must be non-negative")
        clean = {}
        for exps, coeff in terms.items():
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != k or any(r < 0 for r in exps):
                raise ValueError(f"bad exponent vector {exps} for k={k}")
            if sum(exps) != degree:
                raise DegreeMismatch(
                    f"exponent vector {exps} has degree {sum(exps)}, expected {degree}"
                )
            clean[exps] = coeff
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HomogPoly is immutable")

    @classmethod
    def monomial(cls, k: int, exponents, coeff: int = 1) -> "HomogPoly":
        exps = tuple(exponents)
        return cls(k, sum(exps), {exps: coeff})

    @classmethod
    def one(cls, k: int) -> "HomogPoly":
        return cls(k, 0, {(0,) * k: 1})

    def coefficient(self, exponents) -> int:
        return self.terms.get(tuple(exponents), 0)

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.k == other.k
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.k, self.degree, frozenset(self.terms.items())))

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.k != other.k:
            raise VariableCountMismatch(f"{self.k} vs {other.k} variables")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return HomogPoly(self.k, self.degree, terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return HomogPoly(
                self.k, self.degree, {e: c * other for e, c in self.terms.items()}
            )
        return poly_mul(self, other)

    __rmul__ = __mul__


def poly_mul(p: HomogPoly, q: HomogPoly) -> HomogPoly:
    """Convolution product; degrees add, variable counts must match."""
    if p.k != q.k:
        raise VariableCountMismatch(f"{p.k} vs {q.k} variables")
    terms: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return HomogPoly(p.k, p.degree + q.degree, terms)


def _matrix_rows(a) -> tuple[tuple[int, ...], ...]:
    """Accept a RelativeCartanMatrix or any square row sequence; validate
    strict upper triangularity."""
    rows = tuple(tuple(r) for r in (a.entries if hasattr(a, "entries") else a))
    k = len(rows)
    for i, row in enumerate(rows):
        if len(row) != k:
            raise ValueError("matrix is not square")
        if any(row[j] != 0 for j in range(i + 1)):
            raise ValueError(f"row {i + 1} is not strictly upper triangular")
    return rows


def triangular_eval(a, p: HomogPoly) -> int:
    """Evaluate the triangular operator of matrix a on p (degree = k)."""
    return triangular_eval_many(a, [p])[0]


def triangular_eval_many(a, polys) -> list[int]:
    """Evaluate the triangular operator of matrix a on each polynomial
    (all of degree k = size of a) in a single elimination.

    The inputs are merged into one polynomial whose coefficients are
    vectors with one entry per input; the operator is linear, so entry j
    of the result is the value on polys[j].
    """
    rows = _matrix_rows(a)
    k = len(rows)
    n = len(polys)
    terms: dict[tuple, list[int]] = {}
    for j, p in enumerate(polys):
        if p.k != k:
            raise DegreeMismatch(f"polynomial in {p.k} variables, matrix of size {k}")
        if p.degree != k:
            raise DegreeMismatch(f"degree {p.degree} polynomial, expected degree {k}")
        for exps, coeff in p.terms.items():
            terms.setdefault(exps, [0] * n)[j] += coeff
    return eliminate(rows, terms, n)


def eliminate(rows, terms: dict, n: int) -> list[int]:
    """The operator of the strictly upper-triangular rows on each of n
    degree-k polynomials merged into terms: exponent tuple -> list of n
    coefficients, k = len(rows)."""
    terms = {e: vec for e, vec in terms.items() if not vanishing_filter(e)}
    for m in range(len(rows) - 1, -1, -1):
        if not terms:
            break
        terms = _eliminate_last(rows, m, terms)
    return list(terms.get((), [0] * n))


def _eliminate_last(rows, m: int, terms: dict) -> dict:
    """One level of the recursion: map a polynomial in x_1..x_{m+1} to one
    in x_1..x_m with the same operator value.

    Every input monomial passes the prefix test of vanishing_filter (so
    its last exponent r is at least 1).  Grouping by r and summing
    h_r * L^(r-1), with L the elimination form of column m+1, is done by
    Horner's rule, multiplying by L once per step.  A product monomial
    whose proper prefix already oversubscribes is dropped as soon as it
    appears, since later factors only raise its exponents; what is left
    after the last step also passes the prefix test.
    """
    groups: dict[int, dict] = {}
    for exps, vec in terms.items():
        groups.setdefault(exps[m], {})[exps[:m]] = vec
    column = [(i, rows[i][m]) for i in range(m) if rows[i][m]]
    acc: dict[tuple, list[int]] = {}
    for r in range(max(groups), 0, -1):
        if acc:
            acc = _times_linear(acc, column, m)
        for exps, vec in groups.get(r, {}).items():
            have = acc.get(exps)
            acc[exps] = vec if have is None else [x + y for x, y in zip(have, vec)]
    return {e: vec for e, vec in acc.items() if (not m or e[-1]) and any(vec)}


def _times_linear(terms: dict, column, m: int) -> dict:
    """Multiply by the linear form sum of a * x_{i+1} over (i, a) in
    column, keeping only monomials whose proper prefixes do not
    oversubscribe.  Raising x_{i+1} raises every prefix sum from i on, so
    it is allowed only past the last prefix that is already full."""
    out: dict[tuple, list[int]] = {}
    for exps, vec in terms.items():
        full = -1
        total = 0
        for j in range(m - 1):
            total += exps[j]
            if total > j:
                full = j
        for i, a in column:
            if i <= full:
                continue
            key = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
            have = out.get(key)
            if have is None:
                out[key] = [a * y for y in vec]
            else:
                out[key] = [x + a * y for x, y in zip(have, vec)]
    return out


def vanishing_filter(r) -> bool:
    """True when a proper prefix of the exponent vector oversubscribes
    its variables, which forces the operator to vanish on the monomial."""
    exps = tuple(r)
    total = 0
    for i in range(len(exps) - 1):
        total += exps[i]
        if total > i + 1:
            return True
    return False
