import random
import re
import time
from fractions import Fraction

import pytest

from schuprod import (
    NotCartan,
    NotFiniteType,
    cartan_matrix_by_name,
    enumerate_group,
    positive_roots,
    validate_cartan,
)
from schuprod.oracles import Root, cartan_pair, reflect_root, simple_root
from schuprod.rootsys import MAX_RANK, _builtin_rows, _leading_minors, symmetrizer

RANK_LE_4_TYPES = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4",
    "F4", "G2",
]


def test_g2_matrix_valid():
    c = validate_cartan([[2, -1], [-3, 2]])
    assert c.n == 2
    assert c.as_lists() == [[2, -1], [-3, 2]]


def test_rank_one_valid():
    assert validate_cartan([[2]]).n == 1


def test_singular_symmetrization_rejected():
    # Independent check first: the matrix is already symmetric and its
    # determinant vanishes, so it cannot be positive definite.
    m = [[2, -2], [-2, 2]]
    det = Fraction(m[0][0]) * m[1][1] - Fraction(m[0][1]) * m[1][0]
    assert det == 0
    with pytest.raises(NotFiniteType):
        validate_cartan(m)


def test_affine_loop_rejected():
    with pytest.raises(NotFiniteType):
        validate_cartan([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


@pytest.mark.parametrize("rows", [
    *(cartan_matrix_by_name(name).entries for name in ("A3", "B4", "C4", "D5", "E8", "F4", "G2")),
    # C2 + G2 + A1, with the components interleaved.
    [[2, 0, -2, 0, 0], [0, 2, 0, -1, 0], [-1, 0, 2, 0, 0], [0, -3, 0, 2, 0], [0, 0, 0, 0, 2]],
], ids=["A3", "B4", "C4", "D5", "E8", "F4", "G2", "C2+G2+A1"])
def test_symmetrizer_is_positive_integers(rows):
    d = symmetrizer(rows)
    assert all(type(x) is int and x > 0 for x in d)
    n = len(rows)
    assert all(d[i] * rows[i][j] == d[j] * rows[j][i] for i in range(n) for j in range(n))


def test_unsymmetrizable_cycle_rejected():
    # Around the cycle 1-2-3 the ratios multiply to 2, not 1.
    with pytest.raises(NotFiniteType, match="not symmetrizable"):
        symmetrizer([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


@pytest.mark.parametrize(
    "rows",
    [
        [[1]],
        [[2, -1], [-1, 3]],
        [[2, 1], [1, 2]],
        [[2, -1], [0, 2]],
        [[2, -4], [-1, 2]],
        [[2, -1, 0], [-1, 2, -1]],
    ],
)
def test_malformed_matrices_rejected(rows):
    with pytest.raises(NotCartan):
        validate_cartan(rows)


def test_non_integer_entries_rejected():
    with pytest.raises(NotCartan):
        validate_cartan([[2.0, -1.0], [-1.0, 2.0]])


@pytest.mark.parametrize(
    "rows, named",
    [
        ([[2, -1], [-1, True]], "True"),
        ([[2, False], [0, 2]], "False"),
        ([[2, -1], [-1.0, 2]], "-1.0"),
        ([[2, "-1"], [-1, 2]], "'-1'"),
        # The first refused entry in reading order is the one named.
        ([[2, -1, 0], [-1, 2, 0.0], [None, "x", 2]], "0.0"),
    ],
)
def test_each_refused_entry_is_named(rows, named):
    with pytest.raises(NotCartan, match=rf"^non-integer entry {re.escape(named)}$"):
        validate_cartan(rows)


def test_int_subclass_entries_accepted():
    class Small(int):
        pass

    c = validate_cartan([[Small(2), Small(-1)], [-1, 2]])
    assert c.entries == ((2, -1), (-1, 2))
    assert c == cartan_matrix_by_name("A2")


def test_builtin_tables():
    for name in RANK_LE_4_TYPES + ["E6", "E7", "E8"]:
        c = cartan_matrix_by_name(name)
        assert c.n == int(name[1:])
    b3 = cartan_matrix_by_name("B3")
    c3 = cartan_matrix_by_name("C3")
    assert b3.pairing(2, 3) == -2 and b3.pairing(3, 2) == -1
    assert c3.pairing(2, 3) == -1 and c3.pairing(3, 2) == -2
    # G2 is labeled with the long root first; the relative-matrix golden
    # fixtures pin this node order.
    assert cartan_matrix_by_name("G2").as_lists() == [[2, -3], [-1, 2]]


@pytest.mark.parametrize("name", ["H3", "G3", "F5", "E9", "B1", "A0", "xyz", "A"])
def test_unknown_names_rejected(name):
    with pytest.raises(NotCartan):
        cartan_matrix_by_name(name)


def test_reducible_matrix_accepted():
    c = validate_cartan([[2, 0], [0, 2]])
    assert len(positive_roots(c)) == 2


def test_root_validation():
    with pytest.raises(ValueError):
        Root((1, -1))
    with pytest.raises(ValueError):
        Root((0, 0))
    assert Root((0, -2)).is_positive is False


def test_cartan_pair_examples(g2):
    # The worked rank-2 pairing of the short root against the long coroot
    # is -1; with the long root labeled first that is entry (2, 1).
    assert cartan_pair(simple_root(2, 2), 1, g2) == -1
    assert cartan_pair(simple_root(1, 2), 2, g2) == -3
    assert cartan_pair(simple_root(2, 2), 2, g2) == 2
    assert cartan_pair((1, 1), 2, g2) == -3 + 2

    # Same hand sums over the other node order of the same group.
    flipped = validate_cartan([[2, -1], [-3, 2]])
    assert cartan_pair(simple_root(1, 2), 2, flipped) == -1
    assert cartan_pair((1, 1), 1, flipped) == 2 + (-3)


def test_cartan_pair_linearity(a3):
    rng = random.Random(1)
    for _ in range(50):
        x = [rng.randint(-4, 4) for _ in range(3)]
        y = [rng.randint(-4, 4) for _ in range(3)]
        z = [a + b for a, b in zip(x, y)]
        for i in (1, 2, 3):
            assert cartan_pair(z, i, a3) == cartan_pair(x, i, a3) + cartan_pair(y, i, a3)


def test_cartan_pair_index_errors(g2):
    with pytest.raises(IndexError):
        cartan_pair((1, 0), 3, g2)
    with pytest.raises(ValueError):
        cartan_pair((1, 0, 0), 1, g2)


def test_positive_roots_g2_frozen(g2):
    # Long root first: the short-root chain climbs in the second coordinate.
    coords = [r.coords for r in positive_roots(g2)]
    assert coords == [(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3)]
    flipped = validate_cartan([[2, -1], [-3, 2]])
    assert [r.coords for r in positive_roots(flipped)] == [
        (0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2),
    ]


def test_positive_roots_small(a1, a2):
    assert [r.coords for r in positive_roots(a1)] == [(1,)]
    assert {r.coords for r in positive_roots(a2)} == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize(
    "name,count",
    [("A3", 6), ("A4", 10), ("B2", 4), ("B3", 9), ("C3", 9), ("D4", 12), ("F4", 24)],
)
def test_positive_root_counts(name, count):
    assert len(positive_roots(cartan_matrix_by_name(name))) == count


@pytest.mark.parametrize("name", RANK_LE_4_TYPES)
def test_reflection_closure(name):
    c = cartan_matrix_by_name(name)
    plus = {r.coords for r in positive_roots(c)}
    full = plus | {tuple(-x for x in t) for t in plus}
    for t in full:
        for i in range(1, c.n + 1):
            assert reflect_root(i, t, c) in full


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "G2"])
def test_count_matches_longest_element(name):
    c = cartan_matrix_by_name(name)
    longest = max(e.length for e in enumerate_group(c))
    assert len(positive_roots(c)) == longest


def _gaussian_leading_minor(rows, k) -> Fraction:
    """Reference: the leading k x k minor by exact Gaussian elimination
    with row pivoting on Fractions, one k at a time."""
    a = [[Fraction(x) for x in row[:k]] for row in rows[:k]]
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, k):
            f = a[r][col] / a[col][col]
            for j in range(col, k):
                a[r][j] -= f * a[col][j]
    return det


@pytest.mark.parametrize(
    "letter,n,ks",
    [
        ("A", 40, (1, 2, 3, 20, 39, 40)),
        ("A", 60, (1, 2, 30, 59, 60)),
        ("B", 9, None),
        ("C", 9, None),
        ("D", 8, None),
        ("E", 8, None),
        ("F", 4, None),
        ("G", 2, None),
    ],
)
def test_bareiss_minors_match_gaussian_elimination(letter, n, ks):
    rows = _builtin_rows(letter, n)
    minors = list(_leading_minors(rows))
    assert len(minors) == n
    for k in ks or range(1, n + 1):
        assert minors[k - 1] == _gaussian_leading_minor(rows, k)


@pytest.mark.parametrize(
    "rows,k",
    [
        ([[2, -2], [-2, 2]], 2),
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 3),
        # Zero 2x2 minor with two rows still below it: the elimination
        # must stop there instead of dividing by that zero.
        ([[2, -2, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 2),
        ([[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]], 3),
        ([[2, -3], [-3, 2]], 2),
    ],
)
def test_non_finite_type_names_the_first_failing_minor(rows, k):
    with pytest.raises(NotFiniteType, match=f"non-positive leading {k}x{k} minor"):
        validate_cartan(rows)
    minors = list(_leading_minors(rows))
    assert all(m > 0 for m in minors[:k - 1]) and minors[k - 1] <= 0
    for j, minor in enumerate(minors, start=1):
        assert minor == _gaussian_leading_minor(rows, j)


def test_sparse_finite_type_check_at_large_rank():
    # The pivots touch only nonzero entries: A400, relabelled at random, is
    # validated in well under a second, where the dense elimination took
    # about 2.5 s; closing its path into a cycle (affine type) makes the
    # full determinant, and only it, vanish.
    rows = _builtin_rows("A", 400)
    perm = list(range(400))
    random.Random(7).shuffle(perm)
    start = time.perf_counter()
    validate_cartan([[rows[a][b] for b in perm] for a in perm])
    assert time.perf_counter() - start < 1.5
    rows[0][399] = rows[399][0] = -1
    with pytest.raises(NotFiniteType, match="non-positive leading 400x400 minor"):
        validate_cartan(rows)


def test_dense_non_finite_input_stops_at_its_first_failing_minor():
    # A path of 250 nodes, each joined to all of 250 more: the first 250
    # minors are those of A250, and minor 251 is negative.  The rows past
    # it are never reduced, so the check takes well under a second, where
    # a dense elimination of all rows took about 7 s and one in Fractions
    # about 70 s.
    n, h = 500, 250
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(h - 1):
        rows[i][i + 1] = rows[i + 1][i] = -1
    for i in range(h):
        for j in range(h, n):
            rows[i][j] = rows[j][i] = -1
    start = time.perf_counter()
    with pytest.raises(NotFiniteType, match="non-positive leading 251x251 minor"):
        validate_cartan(rows)
    assert time.perf_counter() - start < 3.5


def test_positive_roots_of_a_large_rank_finish():
    # Up-steps only, each pairing from a column's nonzero entries: A120's
    # 7,260 roots take well under a second, where a dense pairing on every
    # (root, index) pair took about 12 s.
    c = cartan_matrix_by_name("A120")
    start = time.perf_counter()
    roots = positive_roots(c)
    assert time.perf_counter() - start < 5
    assert len(roots) == 120 * 121 // 2
    assert roots[-1].coords == (1,) * 120


@pytest.mark.parametrize("name", ["A501", "D1000000", "B1000000000000"])
def test_named_rank_past_the_bound_is_refused_before_building(name):
    with pytest.raises(NotCartan, match=f"exceeds the bound {MAX_RANK}"):
        cartan_matrix_by_name(name)


def test_matrix_rank_past_the_bound_is_refused():
    rows = [[2 if i == j else 0 for j in range(MAX_RANK + 1)] for i in range(MAX_RANK + 1)]
    with pytest.raises(NotCartan, match=f"rank {MAX_RANK + 1} exceeds the bound {MAX_RANK}"):
        validate_cartan(rows)
