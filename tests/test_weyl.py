import itertools
import random
import re
import time

import pytest

from schuprod import (
    GroupTooLarge,
    all_reduced_words,
    cartan_matrix_by_name,
    element_of_word,
    enumerate_group,
    minimal_coset_reps,
    positive_roots,
    reduced_word,
    weyl,
)
from schuprod.weyl import (
    WeylElement,
    apply_simple_reflection,
    climb,
    element_to_dict,
    format_word,
    identity,
    longest_element,
    multiply,
    opposition,
    parse_word,
    poincare_dual,
)
from schuprod.oracles import descents, inverse, inversion_count, root_image
from schuprod.rootsys import MAX_RANK, CartanMatrix, validate_cartan

RANK_LE_4_TYPES = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4",
    "F4", "G2",
]


def test_reflection_example(g2):
    # Hand computation of v_j - v_1 * C[1][j] over the short-root-first
    # matrix, and its twin over the built-in long-root-first table.
    short_first = validate_cartan([[2, -1], [-3, 2]])
    assert apply_simple_reflection(1, (1, 1), short_first) == (-1, 2)
    assert apply_simple_reflection(1, (1, 1), g2) == (-1, 4)


def test_reflection_involution():
    # s_i(v)_j = v_j - v_i * C_ij and s_i^2 = 1 at every rank, on matrices
    # built directly as well: B3, and one that no validation would pass.
    rng = random.Random(3)
    direct = [
        CartanMatrix(3, ((2, -1, 0), (-1, 2, -2), (0, -1, 2))),
        CartanMatrix(4, tuple(tuple(2 if i == j else rng.randint(-3, 3) for j in range(4)) for i in range(4))),
    ]
    for c in [cartan_matrix_by_name(name) for name in RANK_LE_4_TYPES + ["A400"]] + direct:
        for _ in range(40 if c.n <= 4 else 2):
            v = tuple(rng.randint(-5, 5) for _ in range(c.n))
            for i in range(1, c.n + 1):
                image = apply_simple_reflection(i, v, c)
                assert image == tuple(v[j] - v[i - 1] * c.entries[i - 1][j] for j in range(c.n))
                assert apply_simple_reflection(i, image, c) == v
        for i in (0, c.n + 1):
            with pytest.raises(IndexError):
                apply_simple_reflection(i, v, c)


class _Unreadable:
    """Stands in for CartanMatrix.entries: any use of it fails."""

    def _refuse(self, *args):
        raise AssertionError("CartanMatrix.entries read")

    __getattribute__ = __getitem__ = __iter__ = __len__ = __hash__ = __eq__ = __bool__ = _refuse


def test_weyl_layer_reads_only_the_sparse_rows():
    # With sparse_rows cached and entries made unreadable, the walk, the
    # climb, words, the coset test and the duals answer as before.
    def answers(c):
        p = weyl.ParabolicSubset.of((2, 3))
        group, reps = minimal_coset_reps(c, ()), minimal_coset_reps(c, p)
        opposite, w0_p = opposition(c), longest_element(c, p.indices)
        return (
            group,
            reps,
            weyl.climb(c, p.weight(c)),
            weyl.climb(c, range(1, c.n + 1), (1, 2), limit=3),
            element_of_word((1, 2, 3, 4, 3, 2), c),
            [reduced_word(e, c) for e in group],
            [weyl.is_minimal_rep(e, p, c) for e in group],
            longest_element(c),
            [poincare_dual(x, w0_p, opposite, c) for x in reps],
        )

    expected = answers(cartan_matrix_by_name("F4"))
    c = cartan_matrix_by_name("F4")
    c.sparse_rows
    object.__setattr__(c, "entries", _Unreadable())
    assert answers(c) == expected


def test_reflection_fixes_wall_points(a3, g2):
    assert apply_simple_reflection(1, (0, 5), g2) == (0, 5)
    assert apply_simple_reflection(2, (3, 0, -1), a3) == (3, 0, -1)


def test_element_of_empty_word(g2):
    e = element_of_word((), g2)
    assert e == identity(g2)
    assert e.rho_image == (1, 1) and e.length == 0


def test_squares_cancel(g2, a3):
    assert element_of_word((1, 1), g2).is_identity
    assert element_of_word((2, 2, 3, 3), a3).is_identity


def test_g2_worked_element(g2):
    w = element_of_word((2, 1, 2, 1, 2), g2)
    assert w.length == 5
    assert len(reduced_word(w, g2)) == 5


def test_length_identity(g2):
    assert len(reduced_word(identity(g2), g2)) == 0


def test_longest_element_length_equals_root_count(a2):
    longest = max(e.length for e in enumerate_group(a2))
    assert longest == 3 == len(positive_roots(a2))


def test_canonical_form_is_regular():
    with pytest.raises(ValueError):
        WeylElement((1, 0), 1)


def test_reduced_word_identity(g2):
    assert reduced_word(identity(g2), g2) == ()


def test_reduced_word_g2_worked_element(g2):
    w = element_of_word((2, 1, 2, 1, 2), g2)
    word = reduced_word(w, g2)
    assert len(word) == 5
    assert element_of_word(word, g2) == w


def test_reduced_word_round_trip_a3_exhaustive(a3):
    for e in enumerate_group(a3):
        word = reduced_word(e, a3)
        assert len(word) == e.length
        assert element_of_word(word, a3) == e
        if word:
            assert word[0] == min(descents(e))  # deterministic tie-break


def test_all_reduced_words(a2, a3):
    w0 = max(enumerate_group(a2), key=lambda e: e.length)
    assert sorted(all_reduced_words(w0, a2)) == [(1, 2, 1), (2, 1, 2)]
    w0 = max(enumerate_group(a3), key=lambda e: e.length)
    words = all_reduced_words(w0, a3)
    assert len(words) == 16
    assert len(set(words)) == 16
    for word in words:
        assert len(word) == 6 and element_of_word(word, a3) == w0


@pytest.mark.parametrize(
    "name,order",
    [
        ("A1", 2), ("A2", 6), ("A3", 24), ("A4", 120),
        ("B2", 8), ("B3", 48), ("C3", 48),
        ("D4", 192), ("F4", 1152), ("G2", 12),
    ],
)
def test_group_orders(name, order):
    elements = enumerate_group(cartan_matrix_by_name(name))
    assert len(elements) == order
    assert len({e.rho_image for e in elements}) == order
    lengths = [e.length for e in elements]
    assert lengths == sorted(lengths)  # enumeration ordered by length


@pytest.mark.parametrize(
    "name,enumerate_",
    [
        ("A3", lambda a3: enumerate_group(a3, max_order=5)),
        ("E6", lambda e6: minimal_coset_reps(e6, (2, 3, 4, 5, 6), max_order=10)),
    ],
    ids=["A3-group", "E6-P1"],
)
def test_group_too_large(name, enumerate_):
    with pytest.raises(GroupTooLarge):
        enumerate_(cartan_matrix_by_name(name))


@pytest.mark.parametrize("p", [(), (1,)], ids=["A30-flag", "A30-P1"])
def test_group_bound_refuses_a_level_before_building_it(monkeypatch, p):
    # Level 3 of the A30 flag alone has 4,929 elements: the walk refuses it
    # from the sizes of its factors, before any of its elements is built.
    made = []

    class Counting(WeylElement):
        def __init__(self, rho_image, length):
            made.append(rho_image)
            super().__init__(rho_image, length)

    c = cartan_matrix_by_name("A30")
    monkeypatch.setattr(weyl, "WeylElement", Counting)
    with pytest.raises(GroupTooLarge):
        minimal_coset_reps(c, p, max_order=1000)
    assert len(made) <= 1000
    # The bound is exact: levels 0-3 fit in their own count, and one less
    # refuses level 3.
    levels = list(itertools.islice(weyl.coset_levels(c, p), 4))
    bound = sum(map(len, levels))
    assert list(itertools.islice(weyl.coset_levels(c, p, max_order=bound), 4)) == levels
    walk = weyl.coset_levels(c, p, max_order=bound - 1)
    assert [next(walk) for _ in range(3)] == levels[:3]
    with pytest.raises(GroupTooLarge):
        next(walk)


def test_a_huge_group_is_refused_within_a_second():
    # Level 2 of the A500 flag has 125,249 elements; the walk of its
    # factor W(A499) stops at the bound.
    c = cartan_matrix_by_name("A500")
    start = time.perf_counter()
    with pytest.raises(GroupTooLarge):
        minimal_coset_reps(c, (), max_order=10**4)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name,max_len", [("B2", 4), ("G2", 4), ("A3", 3)])
def test_canonical_soundness_exhaustive(name, max_len):
    # Equal canonical forms must mean equal actions, and conversely; the
    # action is compared on the standard weight basis.
    c = cartan_matrix_by_name(name)
    basis = [tuple(1 if j == i else 0 for j in range(c.n)) for i in range(c.n)]

    def act(word, v):
        for i in reversed(word):
            v = apply_simple_reflection(i, v, c)
        return v

    letters = tuple(range(1, c.n + 1))
    words = [w for r in range(max_len + 1) for w in itertools.product(letters, repeat=r)]
    for w1, w2 in itertools.combinations(words, 2):
        same_element = element_of_word(w1, c) == element_of_word(w2, c)
        same_action = all(act(w1, v) == act(w2, v) for v in basis)
        assert same_element == same_action


@pytest.mark.parametrize("name", RANK_LE_4_TYPES)
def test_braid_relations(name):
    c = cartan_matrix_by_name(name)
    order_of = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(1, c.n + 1):
        for j in range(i + 1, c.n + 1):
            m = order_of[c.pairing(i, j) * c.pairing(j, i)]
            assert element_of_word((i, j) * m, c).is_identity
            assert not element_of_word((i, j) * (m - 1), c).is_identity


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "G2"])
def test_inversion_count_matches_length(name):
    c = cartan_matrix_by_name(name)
    for e in enumerate_group(c):
        assert inversion_count(e, c) == e.length == len(reduced_word(e, c))


def test_root_image_permutes_roots(b2):
    all_roots = {r.coords for r in positive_roots(b2)}
    all_roots |= {tuple(-x for x in t) for t in all_roots}
    for e in enumerate_group(b2):
        image = {root_image(e, t, b2).coords for t in all_roots}
        assert image == all_roots


def test_parabolic_subset_refuses_repeated_indices(a3):
    from schuprod.weyl import ParabolicSubset

    assert ParabolicSubset.of([3, 1]).indices == frozenset({1, 3})
    with pytest.raises(ValueError, match="^parabolic indices must be distinct, got 1,1,3$"):
        ParabolicSubset.of((3, 1, 1))
    with pytest.raises(ValueError, match="distinct"):
        minimal_coset_reps(a3, (2, 2))


@pytest.mark.parametrize("bad", [1.7, 1.0, "2", True], ids=["float", "whole-float", "string", "bool"])
def test_indices_and_letters_must_be_ints(a3, bad):
    # No silent coercion: int() would read 1.7 as 1 and "2" as 2.
    from schuprod.weyl import ParabolicSubset

    refused = re.escape(f"{bad!r} is not an integer")
    with pytest.raises(ValueError, match=f"^parabolic index {refused}$"):
        ParabolicSubset.of([3, bad, 2.5])
    with pytest.raises(ValueError, match=f"^word letter {refused}$"):
        element_of_word([bad, 2], a3)


def test_int_subclasses_pass_as_their_ints(a3):
    from schuprod.weyl import ParabolicSubset

    class Letter(int):
        pass

    assert ParabolicSubset.of([Letter(2)]) == ParabolicSubset.of([2])
    assert element_of_word([Letter(1), Letter(2)], a3) == element_of_word([1, 2], a3)


def test_minimal_coset_reps_trivial_cases(a3):
    assert minimal_coset_reps(a3, (1, 2, 3)) == [identity(a3)]
    assert minimal_coset_reps(a3, ()) == enumerate_group(a3)


def test_minimal_coset_reps_grassmannian(a3):
    reps = minimal_coset_reps(a3, (1, 3))
    assert len(reps) == 6

    # Brute-force the definition: each representative is the unique
    # shortest element of its coset w W'.
    subgroup = [e for e in enumerate_group(a3)
                if set(reduced_word(e, a3)) <= {1, 3}]
    assert len(subgroup) == 4
    for rep in reps:
        coset = [multiply(rep, h, a3) for h in subgroup]
        shortest = min(coset, key=lambda e: e.length)
        assert shortest == rep
        assert sum(1 for e in coset if e.length == rep.length) == 1
    # The cosets partition the group.
    union = {multiply(rep, h, a3).rho_image for rep in reps for h in subgroup}
    assert len(union) == 24


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "C3", "D4", "F4"])
def test_minimal_reps_match_group_filter(name):
    # The direct enumeration must agree with filtering the whole group
    # through the shortest-in-coset test, for every parabolic subset.
    from schuprod.weyl import ParabolicSubset, is_minimal_rep

    c = cartan_matrix_by_name(name)
    full = enumerate_group(c)
    for r in range(c.n + 1):
        for p in itertools.combinations(range(1, c.n + 1), r):
            ps = ParabolicSubset.of(p)
            assert minimal_coset_reps(c, p) == [
                e for e in full if is_minimal_rep(e, ps, c)
            ]


def test_e6_counts():
    c = cartan_matrix_by_name("E6")
    assert len(enumerate_group(c)) == 51840
    # the 27-element minuscule quotient, enumerated without the full group
    reps = minimal_coset_reps(c, (2, 3, 4, 5, 6))
    assert len(reps) == 27
    assert max(e.length for e in reps) == 16


def _dedupe_walk(c, p, depth=None):
    """The walk's reference: breadth-first up-steps from lambda_P over
    apply_simple_reflection, a dict of the level being built dropping the
    repeats; the rho image follows each new weight by the same letter.
    Returns the levels' sorted rho images and the largest |coordinate| of
    any weight or image reached."""
    level = {tuple(0 if i in p else 1 for i in range(1, c.n + 1)): (1,) * c.n}
    levels, largest = [], 1
    while level and (depth is None or len(levels) <= depth):
        levels.append(sorted(level.values()))
        fresh = {}
        for weight, image in level.items():
            for i, a in enumerate(weight, 1):
                if a > 0 and (up := apply_simple_reflection(i, weight, c)) not in fresh:
                    fresh[up] = apply_simple_reflection(i, image, c)
                    largest = max(largest, *map(abs, up), *map(abs, fresh[up]))
        level = fresh
    return levels, largest


def _coxeter_number(name):
    family, rank = name[0], int(name[1:])
    classical = {"A": rank + 1, "B": 2 * rank, "C": 2 * rank, "D": 2 * rank - 2}
    return classical.get(family) or {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}[name]


def _walk_cases():
    """(name, p, depth, last): the walk of W/W' on the named matrix, with
    node last moved to index n if last is given, up to level depth."""
    names = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4", "B5", "C3", "C4", "D4", "D5", "D6", "E6", "F4", "G2"]
    for name in names:
        n = int(name[1:])
        # The flag, W' = <s_1> on small ranks, and the two maximal parabolics
        # at the ends of the diagram (a Grassmannian and a partial flag).
        subsets = {(), tuple(range(2, n + 1)), tuple(range(1, n))}
        if n <= 5:
            subsets.add((1,))
        for p in sorted(subsets, key=lambda p: (len(p), p)):
            yield name, p, None, None
    yield "E7", tuple(range(1, 7)), None, None
    yield "E7", (7,), 10, None
    yield "E8", tuple(range(1, 8)), None, None
    yield "A500", tuple(range(2, 501)), None, None
    yield "C500", tuple(range(2, 501)), None, None
    # The walk splits W/W' at the node outside W' with the smallest W/W_J,
    # ties to the smaller index; each relabelling below moves one node to
    # index n, the standard labelling above covers node n.  E6/P{1,6}
    # splits at node 2, and E6/P{1,2,6} at node 3, tied with node 5.
    for name, n in (("E6", 6), ("D4", 4)):
        for last in range(1, n):
            yield name, (), None, last
    yield "E6", (1,), None, None
    yield "E6", (1, 6), None, None
    yield "E6", (1, 2, 6), None, None
    yield "A7", (2, 5), None, None
    yield "B4", (2, 4), None, None
    yield "E7", (), 8, None
    yield "E8", (), 6, None


def _walk_case_id(case):
    name, p, depth, last = case
    subset = "flag" if not p else f"P{p[0]}-{p[-1]}" if len(p) > 2 else "P" + ",".join(map(str, p))
    return (
        f"{name}-{subset}"
        + (f"-levels0to{depth}" if depth is not None else "")
        + (f"-node{last}last" if last is not None else "")
    )


@pytest.mark.parametrize(
    "name,p,depth,last", list(_walk_cases()), ids=[_walk_case_id(case) for case in _walk_cases()]
)
def test_coset_levels_match_a_dedupe_walk(name, p, depth, last):
    # The product walk on packed weights must give, level by level, the
    # elements and the order of a plain dedupe walk.
    c = cartan_matrix_by_name(name)
    if last is not None:
        order = [i for i in range(c.n) if i != last - 1] + [last - 1]
        c = validate_cartan([[c.entries[a][b] for b in order] for a in order])
    expected, largest = _dedupe_walk(c, p, depth)
    walked = []
    for d, level in enumerate(weyl.coset_levels(c, p)):
        assert all(e.length == d for e in level)
        walked.append([e.rho_image for e in level])
        if d == depth:
            break
    assert walked == expected
    # Every coordinate fits a packed lane, with room to spare.
    assert largest <= _coxeter_number(name) - 1
    assert 2 * MAX_RANK - 1 < 2**15


def _relabelled(name, last):
    """The named matrix with node last moved to index n (None: as named)."""
    c = cartan_matrix_by_name(name)
    if last is None:
        return c
    order = [i for i in range(c.n) if i != last - 1] + [last - 1]
    return validate_cartan([[c.entries[a][b] for b in order] for a in order])


@pytest.mark.parametrize(
    "name,p,last",
    [("E6", (), last) for last in (None, 1, 2, 3, 4, 5)]
    + [("D4", (), last) for last in (None, 1, 2)]
    + [("E6", (1, 6), None), ("E6", (1, 2, 6), None), ("E6", (2,), 1), ("E7", (7,), None),
       ("F4", (), None), ("F4", (), 2), ("B4", (), 1), ("C4", (2,), None), ("G2", (), None), ("A5", (3,), 1)]
    + [("B5", (1, 3, 4), None), ("D7", (1, 3, 4, 5, 7), None), ("B8", (1, 2, 4, 5, 6, 7), None)],
)
def test_walk_splits_at_the_smallest_first_factor(name, p, last):
    # Against every candidate's orbit of its fundamental weight, W/W_J,
    # walked whole (a maximal W_J is a single-candidate split).  In the last
    # three cases both candidates have the same dim G/P_k, and the larger
    # index, with fewer diagram paths through it, has the smaller orbit.
    c = _relabelled(name, last)
    outside = [k for k in range(1, c.n + 1) if k not in p]
    sizes = {k: len(minimal_coset_reps(c, [i for i in range(1, c.n + 1) if i != k])) for k in outside}
    assert weyl._split_node(c, weyl.ParabolicSubset.of(p)) == min(outside, key=lambda k: (sizes[k], k))


@pytest.mark.parametrize("name", ["A1", "A5", "B4", "C4", "D4", "D6", "E6", "E7", "E8", "F4", "G2"])
def test_paths_through_a_node_bound_its_grassmannian_dimension(name):
    # Each path through k is the support of a root with coefficient 1 at k,
    # so the count is at most dim G/P_k, the climb's step count from the
    # fundamental weight of k; in type A every such root is a path.
    c = cartan_matrix_by_name(name)
    dims = [climb(c, [int(i == k) for i in range(1, c.n + 1)])[1] for k in range(1, c.n + 1)]
    paths = weyl._paths_through(c)
    assert all(0 < p <= d for p, d in zip(paths, dims))
    assert (paths == dims) == name.startswith("A")


def test_split_probes_stay_bounded():
    # E8 with only nodes 4 and 5 outside W': orbits of 483,840 and 241,920,
    # told apart by two climbs, never walked; the A500 flag's 498 inner
    # nodes are ruled out by their paths after the first leaf's climb.
    start = time.perf_counter()
    e8 = weyl.ParabolicSubset.of((1, 2, 3, 6, 7, 8))
    assert weyl._split_node(cartan_matrix_by_name("E8"), e8) == 5
    assert weyl._split_node(cartan_matrix_by_name("A500"), weyl.ParabolicSubset.of(())) == 1
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("name", ["B5", "C5", "D5", "D6", "D7", "F4", "E6", "E7"])
def test_split_orbit_is_a_smallest_one_on_every_candidate_set(name):
    # Every set of two or more nodes outside W': the chosen node's orbit is
    # as small as the smallest candidate's.
    c = cartan_matrix_by_name(name)
    nodes = range(1, c.n + 1)
    sizes = {k: len(minimal_coset_reps(c, [i for i in nodes if i != k])) for k in nodes}
    for r in range(2, c.n + 1):
        for outside in itertools.combinations(nodes, r):
            p = weyl.ParabolicSubset.of([i for i in nodes if i not in outside])
            assert sizes[weyl._split_node(c, p)] == min(sizes[k] for k in outside), outside


def test_split_walks_no_orbit(monkeypatch):
    # The E8 flag's split comes from climbs and path counts alone.
    def refused(*args):
        raise AssertionError("_split_node walked an orbit")

    monkeypatch.setattr(weyl, "_orbit_levels", refused)
    assert weyl._split_node(cartan_matrix_by_name("E8"), weyl.ParabolicSubset.of(())) == 8


@pytest.mark.parametrize(
    "name,p", [("A3", (1, 3)), ("A3", (2,)), ("B3", (1, 2)), ("G2", (2,))]
)
def test_lagrange_count(name, p):
    c = cartan_matrix_by_name(name)
    w_order = len(enumerate_group(c))
    sub_order = len(enumerate_group(validate_cartan([[c.pairing(i, j) for j in p] for i in p])))
    assert len(minimal_coset_reps(c, p)) * sub_order == w_order


def test_multiply_matches_word_concatenation(b2):
    rng = random.Random(11)
    elements = enumerate_group(b2)
    for _ in range(60):
        a, b = rng.choice(elements), rng.choice(elements)
        via_words = element_of_word(reduced_word(a, b2) + reduced_word(b, b2), b2)
        assert multiply(a, b, b2) == via_words


def test_inverse(a3):
    for e in enumerate_group(a3):
        inv = inverse(e, a3)
        assert multiply(e, inv, a3).is_identity
        assert inv.length == e.length


def test_word_parsing_round_trip():
    assert parse_word("2,1,2,1,2") == (2, 1, 2, 1, 2)
    assert parse_word("") == ()
    assert parse_word("e") == ()
    assert format_word((2, 1)) == "2,1"
    with pytest.raises(ValueError):
        parse_word("2,x")


def test_word_letters_validated(g2):
    with pytest.raises(IndexError):
        element_of_word((1, 3), g2)


def test_element_to_dict(g2):
    w = element_of_word((2, 1, 2, 1, 2), g2)
    d = element_to_dict(w, g2)
    assert d["length"] == 5
    assert element_of_word(d["word"], g2) == w
    assert tuple(d["rho_image"]) == w.rho_image


@pytest.mark.parametrize(
    "name,indices",
    [("A3", None), ("B3", None), ("G2", None), ("A3", (1, 3)), ("B3", (2, 3)), ("C3", (1,)), ("F4", (1, 2, 3))],
)
def test_longest_element_of_a_subset(name, indices):
    # Checked against enumeration: the longest element of the subgroup
    # generated by the given reflections, spelled in those letters only.
    c = cartan_matrix_by_name(name)
    chosen = range(1, c.n + 1) if indices is None else indices
    top = longest_element(c, indices)
    subgroup = [e for e in enumerate_group(c) if set(reduced_word(e, c)) <= set(chosen)]
    assert top.length == max(e.length for e in subgroup)
    assert top in subgroup
    assert [x for x in subgroup if x.length == top.length] == [top]


@pytest.mark.parametrize(
    "name,parabolic",
    [("G2", ()), ("A3", (1, 3)), ("A3", (2,)), ("B3", (1,)), ("B3", (2, 3)), ("C3", ()), ("F4", (1, 2, 3))],
)
def test_poincare_dual_is_a_length_reversing_involution_of_reps(name, parabolic):
    c = cartan_matrix_by_name(name)
    reps = minimal_coset_reps(c, parabolic)
    dim = reps[-1].length
    w0, w0_p = longest_element(c), longest_element(c, parabolic)
    assert dim == w0.length - w0_p.length
    duals = {x: poincare_dual(x, w0_p, opposition(c), c) for x in reps}
    # w0 applied as -theta on weights is the product with w0 by its word.
    assert all(y == multiply(w0, multiply(x, w0_p, c), c) for x, y in duals.items())
    assert set(duals.values()) == set(reps)
    for x, y in duals.items():
        assert y.length == dim - x.length
        assert duals[y] == x
    assert duals[reps[0]] == reps[-1]


@pytest.mark.parametrize(
    "name,theta",
    [("A4", (3, 2, 1, 0)), ("B3", (0, 1, 2)), ("D4", (0, 1, 2, 3)), ("D5", (0, 1, 2, 4, 3)),
     ("E6", (5, 1, 4, 3, 2, 0)), ("E7", tuple(range(7))), ("G2", (0, 1))],
)
def test_opposition_involution_and_the_length_of_w0(name, theta):
    # w0 = -1 on weights exactly outside A_n, D_odd and E6.
    c = cartan_matrix_by_name(name)
    assert opposition(c) == (theta, longest_element(c).length)


@pytest.mark.parametrize(
    "name,parabolic",
    [("B3", ()), ("D4", (1, 3, 4)), ("F4", (2, 3)), ("E6", (1, 6))],
    ids=["B3", "D4-P134", "F4-P23", "E6-P16"],
)
def test_reps_come_by_length_then_canonical_form(name, parabolic):
    # The documented order, which the breadth-first walk alone does not give.
    reps = minimal_coset_reps(cartan_matrix_by_name(name), parabolic)
    assert reps == sorted(reps, key=lambda e: (e.length, e.rho_image))
