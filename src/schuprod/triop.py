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

The recursion evaluates several polynomials on the same matrix in one
elimination: the operator is linear, so eliminate takes one sparse
polynomial per input and carries, per monomial, the vector of their
coefficients.  Level m reads only column m of the matrix, so eliminate
takes the matrix as its sparse columns.  Each level applies law 3 by
Horner's rule, one multiplication by the elimination form per step.  It
also prunes: once a proper prefix x_1..x_i of a monomial carries degree
above i, later steps can only raise it, so the monomial cannot reach
law 2 and is dropped as it appears (vanishing_filter states the test;
law 1 is its longest prefix).

A monomial is one int, its key, from the subword solver (schubert) to
the end of eliminate, and inside eliminate a coefficient vector is one
int:

  * the exponent of x_{i+1} sits in bits [b*i, b*(i+1)), with
    b = key_width(k), so every exponent and every prefix sum of
    exponents (at most k) fits below the top bit of its b-bit lane.
    Multiplying monomials adds their keys, and raising x_{i+1} adds
    1 << b*i; multiplying by sum_j 1 << b*j puts the prefix sums in the
    lanes, so the prefix test is one multiplication, one addition, one
    mask and one bit_length;
  * the vector (c_0, ..., c_{n-1}) is the integer sum of c_j * 2^(W*j),
    n signed lanes of W bits.  Adding vectors and multiplying one by an
    integer are then single int operations.

Packed vectors are exact whatever their lanes hold: the elimination only
adds them, multiplies them by integers and drops those equal to 0, so by
linearity the packed result is exactly the sum of v_j * 2^(W*j) over the
true values v_j.  Lanes are only read (measured, refitted to another
width, unpacked) when each lies in [-2^(W-1), 2^(W-1)), and eliminate
proves that bound before every read rather than assuming it.  It keeps t
with every lane in [-2^t, 2^t) at each level boundary:

  * level m maps sum_r h_r x_{m+1}^r to sum_r h_r L^(r-1), restricted to
    monomials that pass the prefix test (each kept coefficient is the
    unrestricted one).  A new coefficient is a sum of old ones times
    coefficients of L^(r-1), whose absolute values add up to at most
    s^(r-1), s = sum_i |a_{i,m+1}|; so with R the level's top exponent its
    absolute value is at most 2^t * (1+s)^(R-1) < 2^(t+g), with
    g = bit_length((1+s)^(R-1)), and t grows by at most g;
  * before a level with t + g >= W, the lanes are measured, which gives
    the exact t, and refitted, wider or narrower, to the whole bytes that
    hold t + g + 9 bits: a spare byte past the level's need, so that the
    levels after it seldom measure again.  The input vector of a monomial
    is the sum of c * 2^(W*j) over the inputs j that carry it with
    coefficient c, in lanes with a spare byte past t = the bit length of
    the largest absolute coefficient, found in one pass.

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


def key_width(k: int) -> int:
    """The lane width b of a monomial key in k variables: the exponent of
    x_{i+1} sits in bits [b*i, b*(i+1))."""
    return (k + 1).bit_length() + 1


def triangular_eval(a, p: HomogPoly) -> int:
    """Evaluate the triangular operator of matrix a on p (degree = k)."""
    return triangular_eval_many(a, [p])[0]


def triangular_eval_many(a, polys) -> list[int]:
    """Evaluate the triangular operator of matrix a on each polynomial
    (all of degree k = size of a) in a single elimination.

    The operator is linear, so eliminate carries one coefficient per input
    through one elimination; entry j of the result is the value on polys[j].
    """
    rows = _matrix_rows(a)
    k = len(rows)
    for p in polys:
        if p.k != k:
            raise DegreeMismatch(f"polynomial in {p.k} variables, matrix of size {k}")
        if p.degree != k:
            raise DegreeMismatch(f"degree {p.degree} polynomial, expected degree {k}")
    columns = [[(i, row[m]) for i, row in enumerate(rows) if row[m]] for m in range(k)]
    b = key_width(k)
    keys = [{sum(e << b * i for i, e in enumerate(exps)): c for exps, c in p.terms.items()} for p in polys]
    return eliminate(columns, keys)


def eliminate(columns, polys) -> list[int]:
    """The operator of a strictly upper-triangular k x k matrix, given as
    its k columns, on each of the degree-k polynomials polys.

    Column m lists the nonzero entries (i, a_{i,m}) above the diagonal,
    sorted by row i (0-based); each polynomial is a dict from monomial key
    (key_width(k) lanes, see the module docstring) to int.  Packs the
    coefficients of the inputs on each monomial into one vector int,
    eliminates x_k, ..., x_2 one level at a time, and unpacks the
    coefficient of x_1, which law 2 makes the value (for k = 0, that of
    the empty monomial).
    """
    k = len(columns)
    b = key_width(k)
    # Lane j of key * ones is the prefix sum S_j of the exponents, and lane
    # j of ones * ones is j + 1.  Adding full sets lane j's guard bit,
    # 2^(b-1), exactly when x_1..x_{j+1} is full (S_j >= j+1), and no lane
    # carries, as S_j <= k < 2^(b-1); guards >> b keeps the guards of the
    # proper prefixes, the first k-1 lanes.
    ones = ((1 << b * k) - 1) // ((1 << b) - 1)
    guards = ones << b - 1
    full = guards - (ones * ones & (1 << b * k) - 1)
    # A proper prefix past full (S_j >= j+2) is vanishing_filter's test.
    over, proper = full - ones, guards >> b
    n = len(polys)
    bound = max((abs(c) for p in polys for c in p.values()), default=0).bit_length()
    lanes = _Lanes(n, bound + 8)
    packed: dict[int, int] = {}
    for j, poly in enumerate(polys):
        shift = lanes.width * j
        for key, coeff in poly.items():
            if not (key * ones + over) & proper:
                packed[key] = packed.get(key, 0) + (coeff << shift)
    # Level m = 0 would be law 2 alone: the value is the coefficient of x_1.
    for m in range(k - 1, 0, -1):
        if not packed:
            break
        column = [(1 << b * i, a) for i, a in columns[m]]
        top = max(packed) >> b * m
        growth = ((1 + sum([abs(a) for _, a in column])) ** (top - 1)).bit_length()
        if bound + growth >= lanes.width:
            bound = lanes.bits(packed.values())
            fitting = _Lanes(n, bound + growth + 8)
            if fitting.width != lanes.width:
                packed = lanes.relane(packed, fitting)
                lanes = fitting
        packed = _eliminate_last(packed, m, b, column, ones, full, guards >> b * (k - m + 1))
        bound += growth
    return lanes.unpack(packed.get(1 if k else 0, 0))


class _Lanes:
    """n signed lanes packed into one int, each a whole number of bytes
    wide: the vector (c_0, ..., c_{n-1}) is the integer sum of
    c_j * 2^(width*j).  A lane reads back correctly while it lies in
    [-2^(width-1), 2^(width-1))."""

    __slots__ = ("n", "width", "ones", "offset")

    def __init__(self, n: int, bound: int):
        """Lanes for values in [-2^bound, 2^bound)."""
        self.n = n
        self.width = width = 8 * (bound // 8 + 1)
        self.ones = ((1 << width * n) - 1) // ((1 << width) - 1)
        # Adding the offset biases every lane into [0, 2^width), so no lane borrows.
        self.offset = self.ones << width - 1

    def unpack(self, packed: int) -> list[int]:
        biased = packed + self.offset
        mask = (1 << self.width) - 1
        half = 1 << self.width - 1
        return [(biased >> self.width * j & mask) - half for j in range(self.n)]

    def relane(self, packed: dict, other: "_Lanes") -> dict:
        """The same vectors in other's lanes, for entries that fit the
        narrower of the two: each lane, biased into that width, is copied
        byte by byte."""
        size, new = self.width // 8, other.width // 8
        shared = min(size, new)
        bias = 1 << 8 * shared - 1
        old_bias, new_bias = bias * self.ones, bias * other.ones
        out = {}
        for key, vec in packed.items():
            raw = (vec + old_bias).to_bytes(self.n * size, "little")
            cut = bytearray(self.n * new)
            for t in range(shared):
                cut[t::new] = raw[t::size]
            out[key] = int.from_bytes(cut, "little") - new_bias
        return out

    def bits(self, vecs) -> int:
        """The least t with every lane of every packed vector in
        [-2^t, 2^t).  Biased by the offset and with each lane's top bit
        flipped back, a vector holds its lanes in two's complement, where
        bit i of x ^ (x >> 1) is set when bits i and i+1 of x differ: below
        a lane's top bit (the sign) the highest such bit is bit t-1 of that
        lane.  OR-ing over the vectors and then over the lanes keeps the
        largest."""
        offset = self.offset
        seen = 0
        for packed in vecs:
            raw = (packed + offset) ^ offset
            seen |= raw ^ raw >> 1
        n, width = self.n, self.width
        while n > 1:
            half = n // 2
            cut = width * (n - half)
            seen = (seen & (1 << cut) - 1) | seen >> cut
            n -= half
        return (seen & (1 << width - 1) - 1).bit_length()


def _eliminate_last(packed: dict, m: int, b: int, column, ones: int, full: int, guards: int) -> dict:
    """One level of the recursion: map a polynomial in x_1..x_{m+1} to one
    in x_1..x_m with the same operator value.

    Every input monomial passes the prefix test of vanishing_filter (so
    its last exponent r is at least 1).  Grouping by r and summing
    h_r * L^(r-1), with L the elimination form of column m+1, is done by
    Horner's rule, multiplying by L once per step.  A product monomial
    whose proper prefix already oversubscribes is dropped as soon as it
    appears, since later factors only raise its exponents; what is left
    after the last step also passes the prefix test.

    Raising x_{i+1} raises every prefix sum from i on, so it is allowed
    only past the last proper prefix that is already full.  With ones and
    full from eliminate and the guards of the m-1 proper prefixes, the
    highest guard bit set, of lane j at b*j + b - 1, gives the first index
    allowed, j + 1, as bit_length // b.
    """
    top = b * m
    groups: dict[int, list] = {}
    for key, vec in packed.items():
        groups.setdefault(key >> top, []).append((key & (1 << top) - 1, vec))
    # tails[lo]: the column's entries of rows lo and on.  The column is
    # sorted by row, so that is the suffix from its first such entry, and
    # every lo up to an entry's row shares the suffix the entry starts.
    tails: list[list] = []
    for j, (inc, _) in enumerate(column):
        tails += [column[j:]] * (inc.bit_length() // b + 1 - len(tails))
    tails += [[]] * (m - len(tails))
    acc: dict[int, int] = {}
    for r in range(max(groups), 0, -1):
        if acc:
            product: dict[int, int] = {}
            get = product.get
            for key, vec in acc.items():
                for inc, a in tails[((key * ones + full) & guards).bit_length() // b]:
                    raised = key + inc
                    product[raised] = get(raised, 0) + a * vec
            acc = product
        for key, vec in groups.get(r, ()):
            acc[key] = acc.get(key, 0) + vec
    last = b * (m - 1)
    return {key: vec for key, vec in acc.items() if vec and key >> last}


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
