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
of lambda_P, and the whole group is the case W' = 1.  The walk splits
W/W' at a maximal parabolic W_J into W/W_J times W_J/W', lengths adding.
Each factor is walked once from canonical parents (peel the smallest left
descent, as reduced_word does) on weights packed into one int of 16-bit
lanes, so a step is one row subtraction and the parent test one AND; each
level of the product is then a few reflections of big ints that pack a
whole level of the second factor each (see coset_levels).

Convention for words: (i_1,...,i_k) spells the composite map
s_{i_1} . s_{i_2} ... s_{i_k} with the rightmost factor applied first.
Letters are 1-based simple-root indices.
"""

from __future__ import annotations

import gc
import struct
from itertools import chain, count, repeat
from threading import Lock
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
        idx = sorted(_integers(indices, "parabolic index"))
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


def _integers(values, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints.  Like validate_cartan, it takes int
    and its subclasses but bool, and refuses anything else, a float or a
    string too, naming the first entry refused."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        for x in values:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"{what} {x!r} is not an integer")
        values = tuple(map(int, values))
    return values


def _check_word(word, c: CartanMatrix) -> Word:
    w = _integers(word, "word letter")
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
# order is tuple order, and so is the order of the big-endian bytes, and
# adding a multiple of a packed Cartan row carries into no other lane
# while every coordinate stays in range.  It does: the walks pack x(lambda)
# for weights lambda of 0s and 1s only (lambda_P, rho, a fundamental
# weight), and each coordinate of x(lambda) is <lambda, b> for a coroot
# b = x^-1(a_i^v), so its size is at most the height of the highest
# coroot, h - 1, with h the largest Coxeter number of a component (n + 1,
# 2n or 2n - 2 on the classical types of rank n, at most 30 on the
# exceptional ones).  So |coordinate| <= 2 * MAX_RANK - 1 = 999 < 2**15,
# and the lane width is fixed.  Images laid end to end, one block of n
# lanes each, make one int, and by the same bound a reflection of every
# block at once leaves each lane in range, so no block borrows from the
# next.
_LANE = 16
_SIGN = 1 << _LANE - 1
_building = Lock()


def _packed_rows(c: CartanMatrix) -> tuple[range, list[int]]:
    """The lane shift of each coordinate, and rows[i], row i of the Cartan
    matrix packed (rows[0] is 0): s_i subtracts coordinate i times rows[i]."""
    shifts = range(_LANE * (c.n - 1), -1, -_LANE)
    return shifts, [0, *(sum(a << shifts[j] for j, a in row) for row in c.sparse_rows)]


def _orbit_levels(c: CartanMatrix, weight, letters, max_order: int) -> Iterator[list[tuple[int, int, int]]]:
    """The orbit of a weight of 0s and 1s under the reflections s_i, i in
    letters, walked level by level from canonical parents (as coset_levels
    explains, with the letters in place of 1..n).  Each level is a list of
    (code, i, parent): code packs x(weight), i is the step letter, the
    smallest descent of x among the letters (0 for the identity), and
    parent is the index of s_i * x in the level before.  Raises
    GroupTooLarge once more than max_order images are walked.

    If f is the smallest descent of y, an up-step i < f always passes (s_i
    lowers no coordinate but i), and one i > f can pass only when row i
    reaches coordinate f, so only those are tested.  A step is one
    subtraction of a multiple of a packed row, and the parent test one AND
    against the sign bits of the letters below i."""
    n = c.n
    shifts, rows = _packed_rows(c)
    signs = int.from_bytes(b"\x80\x00" * n, "big")
    # Flipping each lane's top bit turns coordinate + _SIGN into the
    # coordinate's 16-bit two's complement, which unpack reads.
    unpack = struct.Struct(f">{n}h").unpack
    allowed = set(letters)
    # above[f]: the sign bits of the letters below f.  steps[f]: the letters
    # below f, then f's neighbours past it; steps[0], the up-steps from the
    # identity, which has no descent, is every letter.
    above, steps, below, bits = [0], [()], (), 0
    for f, row in enumerate(c.sparse_rows, 1):
        above.append(bits)
        steps.append(below + tuple(j + 1 for j, _ in row if j >= f and j + 1 in allowed))
        if f in allowed:
            below += (f,)
            bits |= _SIGN << shifts[f - 1]
    steps[0] = below
    level = [(signs + sum(a << s for a, s in zip(weight, shifts)), 0, 0)]
    walked = 1
    while level:
        yield level
        fresh = []
        for parent, (code, f, _) in enumerate(level):
            image = unpack((code ^ signs).to_bytes(2 * n, "big"))
            for i in steps[f]:
                if (vi := image[i - 1]) > 0:
                    x = code - vi * rows[i]
                    if x & above[i] == above[i]:
                        fresh.append((x, i, parent))
                        walked += 1
                        if walked > max_order:
                            raise GroupTooLarge(f"representative set exceeds max_order={max_order}")
        level = fresh


# A split probe walks at most this many representatives of one orbit, so
# the choice costs milliseconds even where every candidate orbit is huge
# (E8 with only nodes 4 and 5 outside W' has orbits of 483,840 and
# 241,920); the smallest orbit of every flag is far below it (E8: 240,
# a classical type of rank n: 2n at most).
_PROBE = 10**4


def _paths_through(c: CartanMatrix) -> list[int]:
    """For each node (0-based), the number of paths of the Dynkin diagram,
    single nodes included, that pass through it.  The simple roots along a
    path sum to a positive root, with coefficient 1 at each of its nodes, so
    this is a lower bound on dim G/P for the maximal parabolic of the
    other nodes (and equals it in type A).  The diagram is a forest, and
    the paths through k are those of its component, m(m + 1)/2 for m
    nodes, less those inside one branch at k."""
    n = c.n
    neighbours = [[j for j, _ in row if j != i] for i, row in enumerate(c.sparse_rows)]
    parent, size, component = [-1] * n, [1] * n, [0] * n
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root], order = True, [root]
        for x in order:
            for y in neighbours[x]:
                if not seen[y]:
                    seen[y], parent[y] = True, x
                    order.append(y)
        for x in reversed(order[1:]):
            size[parent[x]] += size[x]
        for x in order:
            component[x] = len(order)
    paths = []
    for x in range(n):
        branches = [size[y] for y in neighbours[x] if parent[y] == x]
        if parent[x] >= 0:
            branches.append(component[x] - size[x])
        paths.append((component[x] * (component[x] + 1) - sum(b * (b + 1) for b in branches)) // 2)
    return paths


def _split_node(c: CartanMatrix, p: ParabolicSubset, max_order: int) -> int:
    """The index k outside p whose W/W_J, the orbit of the fundamental
    weight of k, is smallest, ties to the smaller index; 0 when p holds
    every index.  The walk of W/W' makes one big-int reflection per element
    of W/W_J per level, so this split keeps that count smallest, and it
    follows the diagram, not the labels: a large first factor, such as
    E7/P{7} split at node 4 (10,080 elements), is never taken.

    Each candidate is probed by an _orbit_levels walk capped at the
    smallest orbit found so far (at first, at _PROBE or max_order).  An
    orbit has at least dim + 1 elements, one per level, so a candidate is
    ruled out before any walk when a lower bound on dim (_paths_through),
    or else a climb to the cap, reaches the cap; leaves of the diagram go
    first, as the small orbits usually sit there.  When no orbit fits under
    the first cap the largest index outside p is taken.
    """
    n = c.n
    outside = [k for k in range(1, n + 1) if k not in p.indices]
    if len(outside) < 2:
        return outside[0] if outside else 0
    paths = _paths_through(c)
    best, smallest = outside[-1], None
    cap = min(max_order, _PROBE)
    for k in sorted(outside, key=lambda k: (len(c.sparse_rows[k - 1]), k)):
        weight = [int(i == k) for i in range(1, n + 1)]
        if paths[k - 1] >= cap or climb(c, weight, limit=cap)[1] >= cap:
            continue
        try:
            size = sum(map(len, _orbit_levels(c, weight, range(1, n + 1), cap)))
        except GroupTooLarge:
            continue
        if smallest is None or size < smallest or k < best:
            best, smallest, cap = k, size, size
    return best


def coset_levels(
    c: CartanMatrix, p, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> Iterator[tuple[WeylElement, ...]]:
    """The minimal-length representatives of the cosets w W', level by
    level: level 0, 1, 2, ... in turn, each a tuple sorted on the
    canonical form, built only when the caller asks for it.

    p is a ParabolicSubset or an iterable of 1-based indices; the empty
    set gives all of W, the full set just the identity.  Raises
    GroupTooLarge, before any of a level is built, once the levels so far
    and that level would hold more than max_order representatives; each
    factor walk below also stops once it alone passes max_order, which it
    can only do when the product would.

    The representatives are listed by a walk on the orbit of lambda_P, the
    sum of the fundamental weights outside p (coordinate i is 0 for i in
    p, else 1).  W' is its stabiliser, so x -> x(lambda_P) is a bijection
    from the representatives onto the orbit, and coordinate i of
    x(lambda_P), the pairing of lambda_P with x^-1(a_i), is positive
    exactly when s_i * x is a representative one longer (0: same coset,
    negative: shorter).  Peeling a left descent keeps a representative
    minimal (Deodhar's lemma), so each x != 1 has one canonical parent,
    s_d * x for its smallest left descent d: the first negative coordinate
    of x(lambda_P), the letter reduced_word peels first.  Level l + 1 is
    therefore built from level l by the up-steps s_i * y whose coordinates
    1..i-1 are all >= 0, and each representative is built exactly once,
    with no repeat to find (_orbit_levels).

    That walk takes its steps one at a time, so it walks two small
    factors only.  With k an index outside p (_split_node picks the one
    whose W/W_J is smallest) and J the others, each representative is
    u * v, lengths adding, for exactly one minimal representative u of
    W/W_J (the orbit of the fundamental weight of k) and one v of W_J/W'
    (the W_J-orbit of lambda_P): Bjorner and Brenti,
    Combinatorics of Coxeter Groups, Prop. 2.4.4.  Level l is made of the
    pairs of lengths (a, l - a).  The packed rho-images of the v of one
    length are one int, a block of lanes each, so u(v(rho)) for all of them
    is one reflection of that int for u's parent: u = s_d * parent, and
    s_d subtracts rows[d] times lane d from every block.  The level's
    blocks are sorted as bytes, which is the canonical order, and each
    representative is built once, from its unpacked image.  For p maximal
    W_J is W' and the second factor is the identity alone.
    """
    p = ParabolicSubset.of(p)
    p.validate(c)
    n = c.n
    size = 2 * n
    shifts, rows = _packed_rows(c)
    k = _split_node(c, p, max_order)
    lefts = _orbit_levels(c, [int(i == k) for i in range(1, n + 1)], range(1, n + 1), max_order)
    rights = _orbit_levels(c, p.weight(c), [i for i in range(1, n + 1) if i != k], max_order)
    # left[a]: (lane shift of d, rows[d], parent) for each u of length a.
    # right[b]: (the packed rho-images of the v of length b as one int,
    # their number, lane n of each block as a mask, _SIGN in lane n of each
    # block).  images[a]: one int per u of length a, packing u(v(rho)) for
    # the v that level `length` pairs it with.
    left, right, images, walked = [], [], {}, 0
    rhos = [int.from_bytes(b"\x80\x01" * n, "big")]
    pad = bytes(size - 2)
    for length in count():
        # The walk allocates no cycles, so the collector only costs here.
        # Its switch is process-wide: one lock keeps two walks in two threads
        # from restoring each other's setting out of order, and costs no
        # parallelism, since a build holds the interpreter throughout.
        with _building:
            collecting = gc.isenabled()
            gc.disable()
            try:
                if (us := next(lefts, None)) is not None:
                    left.append([(shifts[d - 1], rows[d], parent) for _, d, parent in us])
                if (vs := next(rights, None)) is not None:
                    rhos = [_reflect(rhos[parent], shifts[d - 1], rows[d], 0xFFFF, _SIGN) for _, d, parent in vs]
                    right.append((
                        int.from_bytes(b"".join([rho.to_bytes(size, "big") for rho in rhos]), "big"),
                        len(rhos),
                        int.from_bytes((pad + b"\xff\xff") * len(rhos), "big"),
                        int.from_bytes((pad + b"\x80\x00") * len(rhos), "big"),
                    ))
                pairs = range(max(0, length + 1 - len(right)), min(length + 1, len(left)))
                if not pairs:
                    return
                walked += sum(len(left[a]) * right[length - a][1] for a in pairs)
                if walked > max_order:
                    raise GroupTooLarge(f"representative set exceeds max_order={max_order}")
                fresh = {}
                for a in pairs:
                    z, _, mask, bias = right[length - a]
                    if a:
                        prev = images[a - 1]
                        fresh[a] = [_reflect(prev[parent], shift, row, mask, bias) for shift, row, parent in left[a]]
                    else:
                        fresh[a] = [z]
                images = fresh
                data = b"".join([z.to_bytes(right[length - a][1] * size, "big") for a, zs in images.items() for z in zs])
                level = _sorted_elements(data, n, length)
            finally:
                if collecting:
                    gc.enable()
        yield level


def _sorted_elements(data: bytes, n: int, length: int) -> tuple[WeylElement, ...]:
    """The elements of the given length whose packed rho-images are the
    2n-byte blocks of data, in canonical order: the blocks sorted as bytes,
    then unbiased all at once and unpacked."""
    size = 2 * n
    blocks = sorted([block for (block,) in struct.iter_unpack(f"{size}s", data)])
    signed = int.from_bytes(b"".join(blocks), "big") ^ int.from_bytes(b"\x80\x00" * (n * len(blocks)), "big")
    images = struct.iter_unpack(f">{n}h", signed.to_bytes(len(data), "big"))
    return tuple(map(WeylElement, images, repeat(length)))


def _reflect(z: int, shift: int, row: int, mask: int, bias: int) -> int:
    """s_d on every block of z at once, for the shift and packed row of d,
    the mask of lane n in each block and _SIGN there: lane d of each block,
    unbiased, times the row, subtracted."""
    return z - ((z >> shift & mask) - bias) * row


def minimal_coset_reps(
    c: CartanMatrix, p, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[WeylElement]:
    """Every minimal coset representative of W/W', by length, then
    lexicographically on the canonical form: coset_levels run to the end."""
    return list(chain.from_iterable(coset_levels(c, p, max_order)))


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
