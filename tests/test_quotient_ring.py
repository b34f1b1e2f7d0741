"""The whole cohomology ring of several quotients G/P, each from one
FlagManifold.constants call over every triple, is commutative and
associative; and one call mixing all three orientations agrees with
structure_constant triple by triple."""

from collections import Counter

import pytest

from schuprod import cartan_matrix_by_name, structure_constant
from schuprod.schubert import ORIENTATIONS, FlagManifold, choose_orientation

QUOTIENTS = [
    ("C3", (1,)),
    ("D4", (1, 3, 4)),
    ("F4", (1, 2, 3)),
    ("E6", (2, 3, 4, 5, 6)),
    ("B3", (1,)),
]


def _all_triples(space):
    reps = [x for d in range(space.dim + 1) for x in space.level(d)]
    return reps, [(u, v, w) for u in reps for v in reps for w in space.level(u.length + v.length)]


def _combine(terms):
    """Σ coefficient·product over (coefficient, product) terms, each product
    a dict from class to coefficient; zero entries dropped."""
    total = Counter()
    for coefficient, product in terms:
        for y, value in product.items():
            total[y] += coefficient * value
    return {y: value for y, value in total.items() if value}


@pytest.mark.parametrize(
    "name, parabolic", QUOTIENTS, ids=[f"{n}-P{''.join(map(str, p))}" for n, p in QUOTIENTS]
)
def test_the_ring_of_a_quotient_is_commutative_and_associative(name, parabolic):
    space = FlagManifold(cartan_matrix_by_name(name), parabolic)
    reps, triples = _all_triples(space)
    products = {(u, v): {} for u in reps for v in reps}
    for (u, v, w), value in zip(triples, space.constants(triples)):
        if value:
            products[u, v][w] = value
    assert all(products[u, v] == products[v, u] for u, v in products)
    for u in reps:
        for v in reps:
            for x in reps:
                left = _combine((a, products[w, x]) for w, a in products[u, v].items())
                right = _combine((a, products[u, z]) for z, a in products[v, x].items())
                assert left == right, (u, v, x)
    # The identity class is the unit, and each class pairs to the point
    # class with its Poincaré dual and with nothing else of its codegree.
    e, (point,) = space.level(0)[0], space.level(space.dim)
    assert all(products[e, x] == {x: 1} for x in reps)
    for u in reps:
        partners = [v for v in space.level(space.dim - u.length) if products[u, v]]
        assert partners == [space.dual(u)] and products[u, partners[0]] == {point: 1}


def test_one_call_mixing_orientations_matches_each_constant():
    c, parabolic = cartan_matrix_by_name("F4"), (1, 2, 3)
    space = FlagManifold(c, parabolic)
    _, triples = _all_triples(space)
    orientations = {choose_orientation(u.length, v.length, space.dim)[0] for u, v, _ in triples}
    assert orientations == set(ORIENTATIONS)
    values = space.constants(triples)
    assert values == [structure_constant(u, v, w, c, parabolic) for u, v, w in triples]
    assert any(values)
