"""Weyl group elements in canonical form.

An element w is stored as the image of the regular weight vector
rho = (1,...,1) (fundamental-weight coordinates) under w, together with
its cached length.  The group acts simply transitively on the orbit of a
regular point, so this image is a complete canonical form.  A simple
reflection acts by s_i(v)_j = v_j - v_i * C_ij, so left multiplication
is a single integer row operation on the nonzero entries of row i (at
most four in a Dynkin diagram; CartanMatrix.sparse_rows lists them once
per matrix), and the sign of coordinate i of w(rho) tells whether
s_i * w is shorter or longer than w.  That one fact drives everything
below: enumeration, length bookkeeping, descent tests and reduced-word
extraction, all float-free.  Enumeration of the minimal coset
representatives of W/W' applies it to the weight lambda_P stabilised by
W' in place of rho: the representatives are in bijection with the orbit
of lambda_P, and the whole group is the case W' = 1.  The walk builds
each representative once, from its canonical parent (peel the smallest
left descent, as reduced_word does), on weights packed into one int of
16-bit lanes, so a step is one row subtraction and the parent test one
AND (see coset_levels).

Convention for words: (i_1,...,i_k) spells the composite map
s_{i_1} . s_{i_2} ... s_{i_k} with the rightmost factor applied first.
Letters are 1-based simple-root indices.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import GroupTooLarge
from .frozen import Frozen
from .rootsys import CartanMatrix

Word = tuple[int, ...]

DEFAULT_MAX_GROUP_ORDER = 10**6


class WeylElement(Frozen):
    """Canonical form of a group element: w(rho) plus cached length."""

    __slots__ = ("rho_image", "length")

    def __init__(self, rho_image: tuple[int, ...], length: int):
        if 0 in rho_image:
            raise ValueError(f"{rho_image} is not in the regular orbit")
        _set_rho_image(self, rho_image)
        _set_length(self, length)

    # The walks build and hash tens of thousands of elements: plain slot
    # reads are faster here than the attrgetter key of Frozen, and equal
    # elements have equal images, so the image alone is the hash.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rho_image == other.rho_image and self.length == other.length
        return NotImplemented

    def __hash__(self):
        return hash(self.rho_image)

    @property
    def is_identity(self) -> bool:
        return self.length == 0


# The slots' own setters, which skip the lookup of object.__setattr__.
_set_rho_image = WeylElement.rho_image.__set__
_set_length = WeylElement.length.__set__


class ParabolicSubset(Frozen):
    """Set of 1-based simple-root indices whose reflections generate W'."""

    __slots__ = ("indices",)

    def __init__(self, indices: frozenset[int]):
        object.__setattr__(self, "indices", indices)

    @classmethod
    def of(cls, indices: "Iterable[int] | ParabolicSubset") -> "ParabolicSubset":
        """From an iterable of distinct indices; a ParabolicSubset comes back as is."""
        if isinstance(indices, ParabolicSubset):
            return indices
        idx = sorted(int(i) for i in indices)
        if len(set(idx)) != len(idx):
            raise ValueError(f"parabolic indices must be distinct, got {format_word(idx)}")
        return cls(frozenset(idx))

    def validate(self, c: CartanMatrix) -> None:
        bad = [i for i in self.indices if not 1 <= i <= c.n]
        if bad:
            raise IndexError(f"parabolic indices {bad} out of range 1..{c.n}")

    def weight(self, c: CartanMatrix) -> tuple[int, ...]:
        """lambda_P: coordinate i is 0 for i in the subset, else 1."""
        return tuple(0 if i in self.indices else 1 for i in range(1, c.n + 1))


def identity(c: CartanMatrix) -> WeylElement:
    return WeylElement((1,) * c.n, 0)


def apply_simple_reflection(i: int, v, c: CartanMatrix) -> tuple[int, ...]:
    """s_i acting on a weight vector; involutive: row i's nonzero columns change."""
    if not 1 <= i <= c.n:
        raise IndexError(f"simple-root index {i} out of range 1..{c.n}")
    vi = v[i - 1]
    out = list(v)
    for j, a in c.sparse_rows[i - 1]:
        out[j] -= vi * a
    return tuple(out)


def left_multiply(i: int, e: WeylElement, c: CartanMatrix) -> WeylElement:
    """s_i * e, with exact length bookkeeping (up iff coordinate i > 0)."""
    step = 1 if e.rho_image[i - 1] > 0 else -1
    return WeylElement(apply_simple_reflection(i, e.rho_image, c), e.length + step)


def _check_word(word, c: CartanMatrix) -> Word:
    w = tuple(int(i) for i in word)
    bad = [i for i in w if not 1 <= i <= c.n]
    if bad:
        raise IndexError(f"word letters {bad} out of range 1..{c.n}")
    return w


def element_of_word(word, c: CartanMatrix) -> WeylElement:
    """Evaluate a word (reduced or not) to its canonical element.

    The rightmost letter acts first, so the fold is a sequence of left
    multiplications; the length comes out exact even for non-reduced words.
    """
    e = identity(c)
    for letter in reversed(_check_word(word, c)):
        e = left_multiply(letter, e, c)
    return e


def reduced_word(e: WeylElement, c: CartanMatrix) -> Word:
    """Deterministic reduced word: peel the smallest descent until identity."""
    letters = []
    cur = e
    while not cur.is_identity:
        i = next((i for i, x in enumerate(cur.rho_image, 1) if x < 0), None)
        if i is None:
            raise ValueError(f"{cur.rho_image} is not a valid canonical form")
        letters.append(i)
        cur = left_multiply(i, cur, c)
    return tuple(letters)


def multiply(a: WeylElement, b: WeylElement, c: CartanMatrix) -> WeylElement:
    """Group product a * b via a's reduced word acting on b."""
    out = b
    for letter in reversed(reduced_word(a, c)):
        out = left_multiply(letter, out, c)
    return out


def climb(c: CartanMatrix, weight, indices=None, limit=None) -> tuple[tuple[int, ...], int]:
    """Apply up-steps s_i (coordinate i > 0, i among indices, all by
    default) to a weight until none is left, or limit steps are taken:
    the end point and the step count.  From lambda_P each step lengthens
    a representative by one (see coset_levels), so the count is
    l(w0) - l(w0_P), or limit if that is smaller.  Neither depends on the
    order of the steps, and step i changes only the coordinates that row
    i of the Cartan matrix reaches, so each is O(1) for a sparse matrix."""
    allowed = dict.fromkeys(range(1, c.n + 1) if indices is None else indices)
    rows = c.sparse_rows
    weight = list(weight)
    ascents = [i for i in allowed if weight[i - 1] > 0]
    steps = 0
    while ascents and steps != limit:
        i = ascents.pop()
        if (vi := weight[i - 1]) > 0:
            steps += 1
            for j, a in rows[i - 1]:
                weight[j] -= vi * a
                if weight[j] > 0 and j + 1 in allowed:
                    ascents.append(j + 1)
    return tuple(weight), steps


def longest_element(c: CartanMatrix, indices=None) -> WeylElement:
    """Longest element of the subgroup generated by the simple reflections
    of indices (1-based; all of them by default): the climb from rho ends
    where every index is a descent, which in a finite Coxeter group only
    the longest element is."""
    return WeylElement(*climb(c, identity(c).rho_image, indices))


def opposition(c: CartanMatrix) -> tuple[tuple[int, ...], int]:
    """The opposition involution theta and l(w0): w0 sends a weight v to
    -theta(v), coordinate i of w0(v) being -v[theta[i]] (0-based).  The
    climb from the regular dominant weight (1, 2, ..., n) ends at its image
    under w0, which spells theta out, in l(w0) steps."""
    end, length = climb(c, range(1, c.n + 1))
    return tuple(-a - 1 for a in end), length


def poincare_dual(x: WeylElement, w0_p: WeylElement, opposite, c: CartanMatrix) -> WeylElement:
    """x∨ = w0·x·w0_P, given the longest element w0_P of W' and
    opposite = opposition(c).

    For x minimal in its coset xW', x·w0_P is the longest element of that
    coset, so x∨ is minimal in its coset and has length
    l(w0) - l(w0_P) - l(x).  The Schubert class of x∨ is the Poincaré
    dual of the class of x in G/P.  w0 is applied to y = x·w0_P as the
    linear map -theta on y(rho), so each dual costs O(rank) past y.
    """
    theta, top = opposite
    y = multiply(x, w0_p, c)
    return WeylElement(tuple(-y.rho_image[t] for t in theta), top - y.length)


def enumerate_group(
    c: CartanMatrix, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[WeylElement]:
    """All elements of W, in the order of minimal_coset_reps: W is W/W'
    for the empty parabolic subset, whose weight lambda_P is rho."""
    return minimal_coset_reps(c, (), max_order)


def is_minimal_rep(e: WeylElement, p: ParabolicSubset, c: CartanMatrix) -> bool:
    """Shortest-in-coset test: e sends every simple root a_i of the
    parabolic to a positive root, that is <rho, e(a_i^v)> > 0, which is
    coordinate i of e^-1(rho).  The letters of e's reduced word, applied
    to rho in order, give e^-1(rho); the empty subset needs no word."""
    if not p.indices:
        return True
    image = identity(c).rho_image
    for letter in reduced_word(e, c):
        image = apply_simple_reflection(letter, image, c)
    return all(image[i - 1] > 0 for i in p.indices)


# coset_levels packs a weight into one int: coordinate j (1-based) sits in
# lane n - j of _LANE bits, coordinate 1 in the top lane, biased by _SIGN.
# A lane's top bit is then set exactly when its coordinate is >= 0, int
# order is tuple order, and adding a multiple of a packed Cartan row
# carries into no other lane while every coordinate stays in range.  It
# does: each coordinate of x(lambda_P) or x(rho) is <lambda_P, b> or
# <rho, b> for a coroot b = x^-1(a_i^v), so its size is at most the
# height of the highest coroot, h - 1, with h the largest Coxeter number
# of a component (n + 1, 2n or 2n - 2 on the classical types of rank n, at
# most 30 on the exceptional ones).  So |coordinate| <= 2 * MAX_RANK - 1 =
# 999 < 2**15, and the lane width is fixed.
_LANE = 16
_SIGN = 1 << _LANE - 1


def coset_levels(
    c: CartanMatrix, p, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> Iterator[tuple[WeylElement, ...]]:
    """The minimal-length representatives of the cosets w W', level by
    level: level 0, 1, 2, ... in turn, each a tuple sorted on the
    canonical form, built only when the caller asks for it.

    p is a ParabolicSubset or an iterable of 1-based indices; the empty
    set gives all of W, the full set just the identity.  Raises
    GroupTooLarge as soon as the levels built so far hold more than
    max_order representatives.

    The walk is on the orbit of lambda_P, the sum of the fundamental
    weights outside p (coordinate i is 0 for i in p, else 1).  W' is its
    stabiliser, so x -> x(lambda_P) is a bijection from the
    representatives onto the orbit, and coordinate i of x(lambda_P), the
    pairing of lambda_P with x^-1(a_i), is positive exactly when s_i * x
    is a representative one longer (0: same coset, negative: shorter).
    Peeling a left descent keeps a representative minimal (Deodhar's
    lemma), so each x != 1 has one canonical parent, s_d * x for its
    smallest left descent d: the first negative coordinate of
    x(lambda_P), the letter reduced_word peels first.  Level l + 1 is
    therefore built from level l by the up-steps s_i * y whose
    coordinates 1..i-1 are all >= 0, and each representative is built
    exactly once, with no repeat to find.

    If f is the smallest descent of y, an up-step i < f always passes
    (s_i lowers no coordinate but i), and one i > f can pass only when
    row i reaches coordinate f, so only those are tested.  The weights
    are packed ints (see _LANE): a step is one subtraction of a multiple
    of a packed row, the test one AND against the sign bits of the lanes
    of coordinates 1..i-1, each level sorts ints, and each
    representative's canonical form is unpacked once, when it is built.
    """
    p = ParabolicSubset.of(p)
    p.validate(c)
    n = c.n
    shifts = range(_LANE * (n - 1), -1, -_LANE)
    signs = sum(_SIGN << s for s in shifts)
    # Flipping each lane's top bit turns coordinate + _SIGN into the
    # coordinate's 16-bit two's complement, which unpack reads.
    unpack = struct.Struct(f">{n}h").unpack
    size = 2 * n

    def pack(v) -> int:
        return signs + sum(a << s for a, s in zip(v, shifts))

    rows = [0, *(sum(a << shifts[j] for j, a in row) for row in c.sparse_rows)]
    above = [0, *(signs >> s << s for s in range(_LANE * n, 0, -_LANE))]
    # The up-steps to try from a representative with smallest descent f:
    # 1..f-1, then the neighbours of f past it; n + 1 stands for the
    # identity, which has no descent.
    steps = [
        (),
        *(tuple(range(1, f)) + tuple(j + 1 for j, _ in row if j >= f) for f, row in enumerate(c.sparse_rows, 1)),
        tuple(range(1, n + 1)),
    ]
    # With p empty, lambda_P is rho and one packed weight serves both.
    whole = not p.indices
    start = identity(c)
    # An entry: packed x(rho), x, packed x(lambda_P), x's smallest descent.
    level = [(pack(start.rho_image), start, pack(p.weight(c)), n + 1)]
    walked, length = 1, 0
    while level:
        level.sort(key=itemgetter(0))
        yield tuple([entry[1] for entry in level])
        length += 1
        fresh = []
        for rho_code, y, code, f in level:
            rho = y.rho_image
            lam = rho if whole else unpack((code ^ signs).to_bytes(size, "big"))
            for i in steps[f]:
                if (vi := lam[i - 1]) > 0:
                    x = code - vi * rows[i]
                    if x & above[i] == above[i]:
                        x_rho = x if whole else rho_code - rho[i - 1] * rows[i]
                        fresh.append((x_rho, WeylElement(unpack((x_rho ^ signs).to_bytes(size, "big")), length), x, i))
                        walked += 1
                        if walked > max_order:
                            raise GroupTooLarge(f"representative set exceeds max_order={max_order}")
        level = fresh


def minimal_coset_reps(
    c: CartanMatrix, p, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[WeylElement]:
    """Every minimal coset representative of W/W', by length, then
    lexicographically on the canonical form: coset_levels run to the end."""
    return [e for level in coset_levels(c, p, max_order) for e in level]


def parse_word(text: str) -> Word:
    """Parse a comma-separated word like "2,1,2,1,2"; empty means identity."""
    text = text.strip()
    if not text or text == "e":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}: {exc}") from None


def format_word(word) -> str:
    return ",".join(str(i) for i in word)


def element_to_dict(e: WeylElement, c: CartanMatrix) -> dict:
    """JSON-friendly form: {word, length, rho_image}."""
    return {
        "word": list(reduced_word(e, c)),
        "length": e.length,
        "rho_image": list(e.rho_image),
    }
