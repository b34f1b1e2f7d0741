"""Second routes that tests and the selftest check the pipeline against.

The triangular operator has a closed form: a sum over balanced flow
matrices (triangular_eval_closed), independent of the recursion in triop.

Chevalley's formula gives every product with a degree-1 class, for every
type and parabolic subset, from the root system alone (chevalley).

For the type-A Grassmannian case, Littlewood-Richardson coefficients are
counted directly: fillings of the skew shape nu/lambda with content mu,
rows weakly increasing, columns strictly increasing, whose reverse
reading word is a ballot sequence.  Nothing here touches the subword
pipeline; that independence is the whole point of the module.

The positive roots (positive_roots, in simple-root coordinates) and every
reduced word of an element (all_reduced_words) are here too: the pipeline
never lists them, only the oracles and the tests do.

The dictionary between coset-minimal elements of the symmetric group
and partitions in a box uses the one-line permutation recovered from
the canonical form, with lambda_j = pi(k+1-j) - (k+1-j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DegreeMismatch, NotGrassmannianPermutation, SizeMismatch
from .frozen import Frozen
from .rootsys import CartanMatrix, symmetrizer
from .triop import _matrix_rows
from .weyl import (
    ParabolicSubset,
    WeylElement,
    Word,
    apply_simple_reflection,
    climb,
    element_of_word,
    is_minimal_rep,
    left_multiply,
    reduced_word,
)

Partition = tuple[int, ...]


class Root(Frozen):
    """Root in simple-root coordinates; either all coords >= 0 or all <= 0."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        if not coords or all(x == 0 for x in coords):
            raise ValueError("root must be nonzero")
        if any(x > 0 for x in coords) and any(x < 0 for x in coords):
            raise ValueError(f"mixed-sign coordinates are not a root: {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def is_positive(self) -> bool:
        return any(x > 0 for x in self.coords)


def simple_root(i: int, n: int) -> Root:
    """The i-th simple root (1-based) of a rank-n system."""
    if not 1 <= i <= n:
        raise IndexError(f"simple-root index {i} out of range 1..{n}")
    return Root(tuple(1 if j == i - 1 else 0 for j in range(n)))


def cartan_pair(b, i: int, c: CartanMatrix) -> int:
    """Pairing of a root b with the i-th simple root (1-based).

    Linear in b: the sum of coords[k] * entries[k][i] over k.
    """
    coords = b.coords if isinstance(b, Root) else tuple(b)
    if not 1 <= i <= c.n:
        raise IndexError(f"simple-root index {i} out of range 1..{c.n}")
    if len(coords) != c.n:
        raise ValueError(f"coordinate vector has length {len(coords)}, expected {c.n}")
    return sum(coords[k] * c.entries[k][i - 1] for k in range(c.n))


def reflect_root(i: int, coords, c: CartanMatrix) -> tuple[int, ...]:
    """Simple reflection s_i acting on root coordinates."""
    p = cartan_pair(coords, i, c)
    out = list(coords)
    out[i - 1] -= p
    return tuple(out)


def positive_roots(c: CartanMatrix) -> list[Root]:
    """All positive roots, as closure of the simple roots under up-steps:
    s_i on a root whose pairing p with simple root i is negative, which
    adds -p to coordinate i; each non-simple root is one from a lower one.

    Deterministic order: by height, then lexicographically on coordinates.
    Finiteness is guaranteed by the finite-type validation.
    """
    columns = [[(k, row[i]) for k, row in enumerate(c.entries) if row[i]] for i in range(c.n)]
    seen = {simple_root(i, c.n).coords for i in range(1, c.n + 1)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for coords in frontier:
            for i, column in enumerate(columns):
                p = sum(coords[k] * a for k, a in column)
                if p < 0:
                    image = coords[:i] + (coords[i] - p,) + coords[i + 1:]
                    if image not in seen:
                        seen.add(image)
                        fresh.append(image)
        frontier = fresh
    return [Root(t) for t in sorted(seen, key=lambda t: (sum(t), t))]


def descents(e: WeylElement) -> list[int]:
    """Left descents: the i with l(s_i * e) < l(e), read off sign-wise."""
    return [i + 1 for i, x in enumerate(e.rho_image) if x < 0]


def all_reduced_words(e: WeylElement, c: CartanMatrix) -> list[Word]:
    """Every reduced word of e, in lexicographic order."""
    memo: dict[tuple[int, ...], list[Word]] = {}

    def rec(cur: WeylElement) -> list[Word]:
        if cur.is_identity:
            return [()]
        cached = memo.get(cur.rho_image)
        if cached is None:
            cached = [
                (i,) + rest
                for i in descents(cur)
                for rest in rec(left_multiply(i, cur, c))
            ]
            memo[cur.rho_image] = cached
        return cached

    return rec(e)


def _as_partition(p) -> Partition:
    part = tuple(int(x) for x in p)
    if any(x <= 0 for x in part):
        raise ValueError(f"partition parts must be positive: {part}")
    if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
        raise ValueError(f"partition must be weakly decreasing: {part}")
    return part


def _contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def lr_coefficient(lam, mu, nu) -> int:
    """Number of Littlewood-Richardson tableaux of shape nu/lam, content mu.

    Backtracks cell by cell in reverse reading order (rows top to bottom,
    each row right to left) so the ballot condition can be checked as
    each entry is placed.  Requires |nu| = |lam| + |mu|.
    """
    lam, mu, nu = _as_partition(lam), _as_partition(mu), _as_partition(nu)
    if sum(nu) != sum(lam) + sum(mu):
        raise SizeMismatch(f"|nu|={sum(nu)} but |lam|+|mu|={sum(lam) + sum(mu)}")
    if not _contains(nu, lam):
        return 0
    if not mu:
        return 1  # empty content: only the empty filling of the empty shape

    m = len(mu)
    rows = len(nu)
    lam_padded = lam + (0,) * (rows - len(lam))
    # (row, col) cells in reverse reading order.
    cells = [
        (ri, col)
        for ri in range(rows)
        for col in range(nu[ri] - 1, lam_padded[ri] - 1, -1)
    ]
    grid = [[0] * nu[ri] for ri in range(rows)]
    counts = [0] * (m + 1)
    total = 0

    def fill(pos: int):
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        ri, col = cells[pos]
        right = grid[ri][col + 1] if col + 1 < nu[ri] else m
        above = grid[ri - 1][col] if ri > 0 and col >= lam_padded[ri - 1] else 0
        for v in range(above + 1, right + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # ballot: v may never outnumber v-1 in any prefix
            counts[v] += 1
            grid[ri][col] = v
            fill(pos + 1)
            grid[ri][col] = 0
            counts[v] -= 1

    fill(0)
    return total


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions fitting in rows x cols, in lexicographic order."""
    out: list[Partition] = []

    def rec(prefix, bound):
        out.append(tuple(prefix))
        if len(prefix) == rows:
            return
        for part in range(1, bound + 1):
            prefix.append(part)
            rec(prefix, part)
            prefix.pop()

    rec([], cols)
    return sorted(set(out))


def _require_standard_a(c: CartanMatrix) -> None:
    n = c.n
    for i in range(n):
        for j in range(n):
            expected = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            if c.entries[i][j] != expected:
                raise ValueError(
                    "permutation realization needs the built-in type A matrix"
                )


def permutation_of_element(e: WeylElement, c: CartanMatrix) -> tuple[int, ...]:
    """One-line permutation of an element of the rank-(n-1) symmetric group.

    The canonical form is the permuted staircase up to a global shift;
    normalizing the shift and inverting recovers pi with pi(i) < pi(i+1)
    exactly at the ascents of the element.
    """
    _require_standard_a(c)
    n = c.n + 1
    suffix = [0] * n
    for m in range(n - 2, -1, -1):
        suffix[m] = suffix[m + 1] + e.rho_image[m]
    total = sum(suffix)
    base = n * (n - 1) // 2
    shift, residue = divmod(total - base, n)
    if residue != 0:
        raise ValueError(f"canonical form {e.rho_image} is not an orbit point")
    inv = [n - (y - shift) for y in suffix]
    if sorted(inv) != list(range(1, n + 1)):
        raise ValueError(f"canonical form {e.rho_image} is not an orbit point")
    pi = [0] * n
    for pos, val in enumerate(inv):
        pi[val - 1] = pos + 1
    return tuple(pi)


def grassmannian_dictionary(e: WeylElement, k: int, c: CartanMatrix) -> Partition:
    """Partition in the k x (n-k) box matching a coset-minimal element
    whose only allowed descent is k.  Bijective, with |partition| = l(e)."""
    pi = permutation_of_element(e, c)
    n = len(pi)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    bad = [i for i in range(1, n) if pi[i - 1] > pi[i] and i != k]
    if bad:
        raise NotGrassmannianPermutation(
            f"descents at {bad} outside the allowed position {k}"
        )
    lam = tuple(pi[k - j] - (k + 1 - j) for j in range(1, k + 1))
    lam = tuple(x for x in lam if x > 0)
    # lam[0] = pi[k] - k <= n - k holds for every permutation; the size
    # check catches an element whose stored length disagrees with its image.
    if sum(lam) != e.length:
        raise ValueError(f"partition {lam} of {e.rho_image} does not have size l={e.length}")
    return lam


def inverse(e: WeylElement, c: CartanMatrix) -> WeylElement:
    return element_of_word(tuple(reversed(reduced_word(e, c))), c)


def root_image(e: WeylElement, root, c: CartanMatrix) -> Root:
    """e acting on a root (simple-root coordinates)."""
    coords = root.coords if isinstance(root, Root) else tuple(root)
    for letter in reversed(reduced_word(e, c)):
        coords = reflect_root(letter, coords, c)
    return Root(coords)


def inversion_count(e: WeylElement, c: CartanMatrix) -> int:
    """Number of positive roots sent negative by e."""
    return sum(1 for b in positive_roots(c) if not root_image(e, b, c).is_positive)


@dataclass(frozen=True)
class FlowMatrix:
    """Strictly upper-triangular non-negative matrix balancing an
    exponent vector: column sum i = r_i - 1 + row sum i for every i."""

    k: int
    entries: tuple[tuple[int, ...], ...]

    def column_sum(self, j: int) -> int:
        return sum(self.entries[i][j] for i in range(self.k))

    def row_sum(self, i: int) -> int:
        return sum(self.entries[i])

    def balances(self, r) -> bool:
        exps = tuple(r)
        return all(
            self.column_sum(i) == exps[i] - 1 + self.row_sum(i) for i in range(self.k)
        )


def flow_matrices(r) -> list[FlowMatrix]:
    """All flow matrices balancing r, columns filled left to right and
    entries enumerated lexicographically."""
    exps = tuple(r)
    k = len(exps)
    out: list[FlowMatrix] = []
    cols: list[tuple[int, ...]] = []
    rem: list[int] = []  # unplaced row budget of completed columns

    def fill_column(j, i, col, colsum):
        if i == j:
            budget = colsum - exps[j] + 1
            if budget < 0:
                return
            rem.append(budget)
            cols.append(tuple(col))
            descend(j + 1)
            rem.pop()
            cols.pop()
            return
        for v in range(rem[i] + 1):
            rem[i] -= v
            col.append(v)
            fill_column(j, i + 1, col, colsum + v)
            col.pop()
            rem[i] += v

    def descend(j):
        if j == k:
            if all(x == 0 for x in rem):
                entries = tuple(
                    tuple(cols[b][a] if a < b else 0 for b in range(k))
                    for a in range(k)
                )
                out.append(FlowMatrix(k, entries))
            return
        fill_column(j, 0, [], 0)

    descend(0)
    return out


def triangular_eval_closed(a, r) -> int:
    """Closed-form evaluation on the monomial with exponent vector r:
    sum over balanced flow matrices of the product of column-wise
    multinomials times matrix entries raised to the flow values."""
    rows = _matrix_rows(a)
    exps = tuple(r)
    k = len(rows)
    if len(exps) != k or any(x < 0 for x in exps):
        raise DegreeMismatch(f"exponent vector {exps} does not fit a {k}x{k} matrix")
    if sum(exps) != k:
        raise DegreeMismatch(f"exponent vector {exps} has degree {sum(exps)}, expected {k}")
    total = 0
    for fm in flow_matrices(exps):
        term = 1
        for j in range(k):
            colsum = 0
            denom = 1
            for i in range(j):
                cij = fm.entries[i][j]
                colsum += cij
                denom *= factorial(cij)
                term *= rows[i][j] ** cij
            term = term * factorial(colsum) // denom
        total += term
    return total


def chevalley(i: int, w: WeylElement, c: CartanMatrix, parabolic=()) -> dict[WeylElement, int]:
    """The class of s_i times the class of w in H*(G/P), by Chevalley's
    formula: the sum of <omega_i, beta^vee> times the class of w s_beta
    over the positive roots beta with l(w s_beta) = l(w) + 1 and w s_beta
    in W^P.  Only the nonzero terms are kept.

    With beta = sum k_m b_m, its fundamental-weight coordinates are
    <beta, b_j^vee> = sum k_m C[m][j], and (b_m, b_m) is proportional to
    1/d_m for the symmetrizer d, so beta^vee = 2 beta / (beta, beta) has
    coordinate k_m (b_m, b_m) / (beta, beta) on b_m^vee.  The canonical
    form of w s_beta is w(rho - <rho, beta^vee> beta) = w(rho) -
    <rho, beta^vee> w(beta), and its length is the number of down-steps
    from it to rho.
    """
    p = ParabolicSubset.of(parabolic)
    if i in p.indices:
        raise ValueError(f"s_{i} lies in W_P, so it has no Schubert class in G/P")
    n, rows = c.n, c.entries
    norms = [Fraction(1, d) for d in symmetrizer(rows)]  # (b_m, b_m), one scale per component
    word = reduced_word(w, c)
    terms: dict[WeylElement, int] = {}
    for beta in positive_roots(c):
        k = beta.coords
        if not k[i - 1]:
            continue  # <omega_i, beta^vee> = 0
        weight = tuple(sum(k[m] * rows[m][j] for m in range(n)) for j in range(n))
        size = sum(k[m] * weight[m] * norms[m] for m in range(n)) / 2  # (beta, beta)
        rho_pairing = sum(k[m] * norms[m] for m in range(n)) / size
        for letter in reversed(word):
            weight = apply_simple_reflection(letter, weight, c)
        image = tuple(int(x - rho_pairing * y) for x, y in zip(w.rho_image, weight))
        length = climb(c, tuple(-x for x in image))[1]
        if length == w.length + 1:
            x = WeylElement(image, length)
            if is_minimal_rep(x, p, c):
                terms[x] = int(k[i - 1] * norms[i - 1] / size)
    return terms
