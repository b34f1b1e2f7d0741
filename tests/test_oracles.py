import itertools
import random

import pytest

from schuprod import (
    NotGrassmannianPermutation,
    SizeMismatch,
    WeylElement,
    cartan_matrix_by_name,
    element_of_word,
    grassmannian_dictionary,
    lr_coefficient,
    minimal_coset_reps,
    reduced_word,
    schubert,
    structure_constant,
)
from schuprod.oracles import chevalley, partitions_in_box, permutation_of_element
from schuprod.weyl import identity, multiply


def random_partition(rng, max_size=8, max_parts=4):
    parts = []
    bound = max_size
    while len(parts) < max_parts and bound > 0:
        p = rng.randint(0, bound)
        if p == 0:
            break
        parts.append(p)
        bound = min(bound, p)
    return tuple(parts)


def is_horizontal_strip(lam, nu):
    """lam sits inside nu and nu/lam has at most one box per column."""
    if len(lam) > len(nu):
        return False
    padded = tuple(lam) + (0,) * (len(nu) - len(lam))
    for i in range(len(nu)):
        if nu[i] < padded[i]:
            return False
        if i + 1 < len(nu) and nu[i + 1] > padded[i]:
            return False
    return True


def partitions_of(n, max_part=None):
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


# -- tableau counting --------------------------------------------------------


def test_lr_basic_values():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((), (2, 1), (2, 1)) == 1
    assert lr_coefficient((2,), (), (2,)) == 1


def test_lr_size_mismatch():
    with pytest.raises(SizeMismatch):
        lr_coefficient((1,), (1,), (3,))


def test_lr_zero_without_containment():
    assert lr_coefficient((2,), (1,), (1, 1, 1)) == 0


def test_lr_rejects_bad_partitions():
    with pytest.raises(ValueError):
        lr_coefficient((1, 2), (1,), (2, 2))
    with pytest.raises(ValueError):
        lr_coefficient((2, 0), (1,), (2, 1))


def test_lr_symmetry_fuzz():
    rng = random.Random(31)
    trials = 0
    while trials < 60:
        lam = random_partition(rng, 5)
        mu = random_partition(rng, 5)
        nu = random_partition(rng, 10)
        if sum(nu) != sum(lam) + sum(mu):
            continue
        trials += 1
        assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_pieri_rule_single_row():
    shapes = [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2, 1)]
    for lam in shapes:
        for r in (1, 2, 3):
            for nu in partitions_of(sum(lam) + r):
                value = lr_coefficient(lam, (r,), nu)
                assert value == (1 if is_horizontal_strip(lam, nu) else 0), (lam, r, nu)


def test_partitions_in_box():
    assert partitions_in_box(2, 2) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert len(partitions_in_box(2, 3)) == 10
    assert partitions_in_box(0, 5) == [()]


# -- permutation realization --------------------------------------------------


def test_permutation_of_small_words(a2, a3):
    assert permutation_of_element(identity(a2), a2) == (1, 2, 3)
    assert permutation_of_element(element_of_word((1,), a2), a2) == (2, 1, 3)
    assert permutation_of_element(element_of_word((1, 2), a2), a2) == (2, 3, 1)
    w0 = element_of_word((1, 2, 1, 3, 2, 1), a3)
    assert permutation_of_element(w0, a3) == (4, 3, 2, 1)


def test_permutation_realization_is_isomorphism(a3):
    from schuprod import enumerate_group

    elements = enumerate_group(a3)
    rng = random.Random(41)
    for _ in range(60):
        a, b = rng.choice(elements), rng.choice(elements)
        pa = permutation_of_element(a, a3)
        pb = permutation_of_element(b, a3)
        composed = tuple(pa[pb[i] - 1] for i in range(4))
        assert composed == permutation_of_element(multiply(a, b, a3), a3)


def test_permutation_inversions_match_length(a3):
    from schuprod import enumerate_group

    for e in enumerate_group(a3):
        pi = permutation_of_element(e, a3)
        inv = sum(
            1 for i, j in itertools.combinations(range(4), 2) if pi[i] > pi[j]
        )
        assert inv == e.length


def test_permutation_requires_type_a(g2):
    with pytest.raises(ValueError):
        permutation_of_element(identity(g2), g2)


# -- the dictionary ------------------------------------------------------------


def test_dictionary_identity(a3):
    for k in (1, 2, 3):
        assert grassmannian_dictionary(identity(a3), k, a3) == ()


def test_dictionary_length_one(a3):
    rep = next(e for e in minimal_coset_reps(a3, (1, 3)) if e.length == 1)
    assert grassmannian_dictionary(rep, 2, a3) == (1,)


def test_dictionary_bijective_onto_box(a3):
    reps = minimal_coset_reps(a3, (1, 3))
    images = [grassmannian_dictionary(e, 2, a3) for e in reps]
    assert sorted(images) == partitions_in_box(2, 2)
    for e, lam in zip(reps, images):
        assert sum(lam) == e.length


def test_dictionary_rejects_other_descents(a3):
    w0 = element_of_word((1, 2, 1, 3, 2, 1), a3)
    with pytest.raises(NotGrassmannianPermutation):
        grassmannian_dictionary(w0, 2, a3)
    with pytest.raises(ValueError):
        grassmannian_dictionary(identity(a3), 4, a3)


def test_dictionary_rejects_length_that_disagrees_with_image(a3):
    rep = next(e for e in minimal_coset_reps(a3, (1, 3)) if e.length == 1)
    with pytest.raises(ValueError, match="does not have size l=2"):
        grassmannian_dictionary(WeylElement(rep.rho_image, 2), 2, a3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grand_cross_check_small(n):
    c = cartan_matrix_by_name(f"A{n - 1}")
    for k in range(1, n):
        p = tuple(i for i in range(1, n) if i != k)
        reps = minimal_coset_reps(c, p)
        lam = {e: grassmannian_dictionary(e, k, c) for e in reps}
        for u, v in itertools.product(reps, repeat=2):
            for w in reps:
                if w.length != u.length + v.length:
                    continue
                assert structure_constant(u, v, w, c) == lr_coefficient(
                    lam[u], lam[v], lam[w]
                ), (n, k, reduced_word(u, c), reduced_word(v, c), reduced_word(w, c))


@pytest.mark.parametrize(
    "name, parabolic, top",
    [
        ("G2", (), None), ("B3", (), None), ("A4", (), None),
        ("C3", (2, 3), None), ("D4", (1, 3, 4), None), ("F4", (1, 2, 3), None),
        ("E6", (), 3),
    ],
    ids=["G2", "B3", "A4", "C3-P23", "D4-P134", "F4-P123", "E6-to-degree-3"],
)
def test_chevalley_formula_matches_every_degree_one_product(name, parabolic, top):
    # Every product of a degree-1 class with a class of degree d, up to
    # top (all of G/P by default), against Chevalley's formula.
    c = cartan_matrix_by_name(name)
    space = schubert.FlagManifold(c, parabolic)
    degrees = range(space.dim if top is None else top + 1)
    products = {(s, w): {} for d in degrees for s in space.level(1) for w in space.level(d)}
    triples = [(s, w, t) for s, w in products for t in space.level(w.length + 1)]
    for (s, w, t), value in zip(triples, space.constants(triples)):
        if value:
            products[s, w][t] = value
    for (s, w), product in products.items():
        assert chevalley(space.word(s)[0], w, c, parabolic) == product


def test_chevalley_refuses_a_reflection_of_the_parabolic(a3):
    with pytest.raises(ValueError, match="no Schubert class"):
        chevalley(1, identity(a3), a3, (1, 3))
