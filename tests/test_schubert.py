import itertools
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from schuprod import (
    GroupTooLarge,
    LengthMismatch,
    NegativeConstant,
    NotMinimalRep,
    NotReduced,
    StructureConstant,
    all_reduced_words,
    cartan_matrix_by_name,
    element_of_word,
    enumerate_group,
    minimal_coset_reps,
    product_expansion,
    reduced_word,
    structure_constant,
    structure_constant_for_word,
    structure_constants_for_word,
    subword_solutions,
)
from schuprod import relmat, schubert, weyl
from schuprod.schubert import ORIENTATIONS, FlagManifold, choose_orientation, subword_sum
from schuprod.weyl import identity, longest_element, opposition, poincare_dual


W_WORD = (2, 1, 2, 1, 2)
W2_WORD = (1, 2, 1, 2, 1)


@pytest.fixture(scope="module")
def g2_data(g2):
    return {
        "u": element_of_word((2, 1, 2), g2),
        "v": element_of_word((1, 2), g2),
        "w": element_of_word(W_WORD, g2),
        "w2": element_of_word(W2_WORD, g2),
    }


def test_worked_solution_sets(g2, g2_data):
    assert subword_solutions(W_WORD, g2_data["u"], g2) == [
        (1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5),
    ]
    assert subword_solutions(W_WORD, g2_data["v"], g2) == [(2, 3), (2, 5), (4, 5)]
    # and over the other decomposition
    assert subword_solutions(W2_WORD, g2_data["u"], g2) == [(2, 3, 4)]
    assert subword_solutions(W2_WORD, g2_data["v"], g2) == [(1, 2), (1, 4), (3, 4)]


def test_worked_subword_sums(g2, g2_data):
    lsum = subword_sum(W_WORD, g2_data["u"], g2)
    assert lsum.terms == {
        (1, 1, 1, 0, 0): 1, (1, 1, 0, 0, 1): 1, (1, 0, 0, 1, 1): 1, (0, 0, 1, 1, 1): 1,
    }
    ksum = subword_sum(W_WORD, g2_data["v"], g2)
    assert ksum.terms == {(0, 1, 1, 0, 0): 1, (0, 1, 0, 0, 1): 1, (0, 0, 0, 1, 1): 1}


def test_worked_constants(g2, g2_data):
    assert structure_constant(g2_data["u"], g2_data["v"], g2_data["w"], g2) == 1
    assert structure_constant(g2_data["u"], g2_data["v"], g2_data["w2"], g2) == 0


def test_worked_expansion(g2, g2_data):
    expansion = product_expansion(g2_data["u"], g2_data["v"], g2)
    assert [(reduced_word(t.w, g2), t.value) for t in expansion] == [(W_WORD, 1)]
    with_zeros = product_expansion(g2_data["u"], g2_data["v"], g2, include_zeros=True)
    assert {reduced_word(t.w, g2): t.value for t in with_zeros} == {W_WORD: 1, W2_WORD: 0}


def test_identity_target_solution(g2):
    assert subword_solutions(W_WORD, identity(g2), g2) == [()]
    poly = subword_sum(W_WORD, identity(g2), g2)
    assert poly.degree == 0 and poly.coefficient((0, 0, 0, 0, 0)) == 1


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_solutions_match_brute_force(name):
    # Every position set of size l(u), in lexicographic order, kept when its
    # letters compose to u: the solver's answer, order included.
    c = cartan_matrix_by_name(name)
    group = enumerate_group(c)
    for w in group:
        word = reduced_word(w, c)
        for u in group:
            expected = [
                L for L in itertools.combinations(range(1, len(word) + 1), u.length)
                if element_of_word([word[p - 1] for p in L], c) == u
            ]
            assert subword_solutions(word, u, c) == expected


def test_solutions_have_no_depth_limit():
    # A 1,100-letter prefix of the A400 word (1..400)(1..399)...: the walk
    # once recursed per letter and overflowed past about 1,000 letters.
    c = cartan_matrix_by_name("A400")
    word = [i for m in range(400, 0, -1) for i in range(1, m + 1)][:1100]
    assert subword_solutions(word, element_of_word(word, c), c) == [tuple(range(1, 1101))]
    assert subword_solutions(word, element_of_word((1,), c), c) == [(1,), (401,), (800,)]


SOLVER_UNDER_A_CAP = """
import resource, sys
cap = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from schuprod import cartan_matrix_by_name, subword_solutions
from schuprod.weyl import element_of_word, longest_element, reduced_word
c = cartan_matrix_by_name("E7")
word = reduced_word(longest_element(c), c)[:36]
print(len(subword_solutions(word, element_of_word(word[:18], c), c)))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_solver_holds_only_sets_that_can_finish():
    # The first 36 letters of E7's word of w0, with a target of length 18:
    # 113,331 solutions.  One int per partial set, each dropped once it
    # cannot finish, runs in under 100 MB of address space; tuples of
    # positions, or sets kept after they cannot finish, take over 300 MB.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", SOLVER_UNDER_A_CAP, "200"], capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "113331\n"


def test_unit_law_exhaustive(g2):
    e = identity(g2)
    for v in enumerate_group(g2):
        for w in enumerate_group(g2):
            if w.length != v.length:
                continue
            assert structure_constant(e, v, w, g2) == (1 if v == w else 0)
            assert structure_constant(v, e, w, g2) == (1 if v == w else 0)


def test_identity_factor_expansion(g2, g2_data):
    e = identity(g2)
    expansion = product_expansion(g2_data["u"], e, g2)
    assert len(expansion) == 1
    assert expansion[0].w == g2_data["u"] and expansion[0].value == 1


def test_a2_degree_one_square(a2):
    u = element_of_word((1,), a2)
    expansion = product_expansion(u, u, a2, include_zeros=True)
    values = {reduced_word(t.w, a2): t.value for t in expansion}
    assert values == {(1, 2): 0, (2, 1): 1}


@pytest.mark.parametrize("name", ["B2", "G2"])
def test_ring_is_associative(name):
    # (P_u P_v) P_t = P_u (P_v P_t): a global consistency check of the
    # whole constant table, sensitive to any mismatched convention.
    c = cartan_matrix_by_name(name)
    elements = enumerate_group(c)
    top = max(e.length for e in elements)
    table = {}
    for u in elements:
        for v in elements:
            if u.length + v.length > top:
                continue
            for t in product_expansion(u, v, c):
                table[(u, v, t.w)] = t.value

    def row(u, v):
        if u.length + v.length > top:
            return {}
        return {
            w: table[(u, v, w)]
            for w in elements
            if (u, v, w) in table
        }

    for u in elements:
        for v in elements:
            for t in elements:
                if u.length + v.length + t.length > top:
                    continue
                left: dict = {}
                for w, coeff in row(u, v).items():
                    for z, coeff2 in row(w, t).items():
                        left[z] = left.get(z, 0) + coeff * coeff2
                right: dict = {}
                for w, coeff in row(v, t).items():
                    for z, coeff2 in row(u, w).items():
                        right[z] = right.get(z, 0) + coeff * coeff2
                left = {z: x for z, x in left.items() if x}
                right = {z: x for z, x in right.items() if x}
                assert left == right, (name, u, v, t)


def test_commutative_exhaustive_b2(b2):
    elements = enumerate_group(b2)
    for u, v in itertools.product(elements, repeat=2):
        for w in elements:
            if w.length != u.length + v.length:
                continue
            assert structure_constant(u, v, w, b2) == structure_constant(v, u, w, b2)


@pytest.mark.parametrize("name", ["B2", "G2"])
def test_reduced_word_independence_rank_two(name):
    c = cartan_matrix_by_name(name)
    elements = enumerate_group(c)
    for w in elements:
        words = all_reduced_words(w, c)
        pairs = [
            (u, v)
            for u in elements
            for v in elements
            if u.length + v.length == w.length
        ]
        for u, v in pairs:
            values = {structure_constant_for_word(word, u, v, c) for word in words}
            assert len(values) == 1


def test_length_mismatch_raises(g2, g2_data):
    with pytest.raises(LengthMismatch):
        structure_constant(g2_data["u"], g2_data["u"], g2_data["w"], g2)
    with pytest.raises(LengthMismatch):
        structure_constant_for_word(W_WORD, g2_data["u"], g2_data["u"], g2)
    with pytest.raises(LengthMismatch):
        StructureConstant(g2_data["u"], g2_data["u"], g2_data["w"], 0)


def test_unreduced_word_rejected(g2, g2_data):
    with pytest.raises(NotReduced):
        structure_constant_for_word((1, 1, 2, 1, 2), g2_data["u"], g2_data["v"], g2)
    with pytest.raises(NotReduced):
        subword_solutions((1, 1), identity(g2), g2)


def test_parabolic_membership_enforced(g2):
    s1 = element_of_word((1,), g2)
    s2 = element_of_word((2,), g2)
    # s1 is not coset-minimal for the parabolic generated by reflection 1
    with pytest.raises(NotMinimalRep):
        product_expansion(s1, s1, g2, parabolic=(1,))
    reps = minimal_coset_reps(g2, (1,))
    assert s2 in reps
    expansion = product_expansion(s2, s2, g2, parabolic=(1,))
    for term in expansion:
        assert term.w in reps
        assert term.value >= 0


def test_parabolic_constant_checks_w(g2):
    s2 = element_of_word((2,), g2)
    bad_w = element_of_word((2, 1), g2)  # ends in the parabolic: not minimal
    with pytest.raises(NotMinimalRep):
        structure_constant(s2, s2, bad_w, g2, parabolic=(1,))


def _root_coroot_pairs(c):
    """Positive roots carrying both root and coroot coordinates; the
    coroot side reflects with the transposed pairing."""
    n = c.n
    unit = lambda i: tuple(1 if k == i else 0 for k in range(n))
    pairs = {(unit(i), unit(i)) for i in range(n)}
    frontier = list(pairs)
    while frontier:
        fresh = []
        for b, d in frontier:
            for i in range(n):
                pb = sum(b[k] * c.entries[k][i] for k in range(n))
                pd = sum(d[k] * c.entries[i][k] for k in range(n))
                nb = list(b)
                nb[i] -= pb
                nd = list(d)
                nd[i] -= pd
                cand = (tuple(nb), tuple(nd))
                if all(x >= 0 for x in cand[0]) and cand not in pairs:
                    pairs.add(cand)
                    fresh.append(cand)
        frontier = fresh
    return sorted(pairs)


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "C3", "G2"])
def test_degree_one_products_match_reflection_expansion(name):
    # Independent oracle for every degree-one product: multiplying by a
    # degree-one class adds, for each positive root beta sending the
    # length up by one, the i-th coroot coordinate of beta times the
    # class of v * s_beta.  Exercises exactly the data the subword route
    # never touches directly (coroot coordinates of non-simple roots).
    from schuprod.weyl import apply_simple_reflection

    c = cartan_matrix_by_name(name)
    n = c.n
    elements = enumerate_group(c)
    lookup = {e.rho_image: e for e in elements}
    pairs = _root_coroot_pairs(c)
    for i in range(1, n + 1):
        s_i = element_of_word((i,), c)
        for v in elements:
            expanded = {
                t.w: t.value for t in product_expansion(s_i, v, c)
            }
            predicted: dict = {}
            v_word = reduced_word(v, c)
            for b, d in pairs:
                if d[i - 1] == 0:
                    continue
                x = tuple(1 for _ in range(n))
                # (v . s_beta)(rho): reflect rho in beta, then apply v.
                pairing = sum(dm * xm for dm, xm in zip(d, x))
                beta_weight = [
                    sum(b[k] * c.entries[k][m] for k in range(n)) for m in range(n)
                ]
                x = tuple(xm - pairing * bm for xm, bm in zip(x, beta_weight))
                for letter in reversed(v_word):
                    x = apply_simple_reflection(letter, x, c)
                w = lookup[x]
                if w.length == v.length + 1:
                    predicted[w] = predicted.get(w, 0) + d[i - 1]
            assert expanded == predicted, (name, i, reduced_word(v, c))


@pytest.mark.parametrize(
    "name,parabolic,pattern",
    [
        ("A3", (2, 3), [1, 1]),      # projective 3-space
        ("B2", (2,), [2, 1]),        # 3-dim quadric
        ("C2", (2,), [1, 1]),        # projective 3-space again
        ("B3", (2, 3), [1, 2, 1, 1]),  # 5-dim quadric
        ("C3", (2, 3), [1, 1, 1, 1]),  # projective 5-space
        ("G2", (1,), [1, 2, 1, 1]),  # 5-dim quadric as an exceptional orbit
    ],
)
def test_quotient_geometry_anchors(name, parabolic, pattern):
    # Quotients with one class per degree have a hyperplane power sequence
    # pinned by classical projective geometry; the product of the
    # coefficients is the degree of the minimal embedding.
    c = cartan_matrix_by_name(name)
    reps = minimal_coset_reps(c, parabolic)
    assert [e.length for e in reps] == list(range(len(reps)))
    h = reps[1]
    coeffs = [
        structure_constant(h, reps[k], reps[k + 1], c) for k in range(1, len(reps) - 1)
    ]
    assert coeffs == pattern


def test_adjoint_variety_degree_g2():
    # The other rank-14 exceptional quotient embeds with degree 18: the
    # product of the hyperplane-power coefficients must say so.
    c = cartan_matrix_by_name("G2")
    reps = minimal_coset_reps(c, (2,))
    assert [e.length for e in reps] == list(range(6))
    degree = 1
    for k in range(1, 5):
        degree *= structure_constant(reps[1], reps[k], reps[k + 1], c)
    assert degree == 18


@pytest.mark.parametrize(
    "name,relabel",
    [("B2", (2, 1)), ("G2", (2, 1)), ("B3", (3, 2, 1)), ("A3", (2, 3, 1))],
)
def test_constants_equivariant_under_node_relabeling(name, relabel):
    # Renaming the simple roots conjugates every constant: computing on
    # the permuted matrix with permuted words must give the same numbers.
    from schuprod import validate_cartan

    c = cartan_matrix_by_name(name)
    n = c.n
    permuted = validate_cartan(
        [[c.pairing(relabel[i], relabel[j]) for j in range(n)] for i in range(n)]
    )
    inverse_label = {relabel[i]: i + 1 for i in range(n)}

    def relabeled(e):
        word = tuple(inverse_label[letter] for letter in reduced_word(e, c))
        return element_of_word(word, permuted)

    elements = enumerate_group(c)
    for u in elements:
        for v in elements:
            if u.length + v.length > max(e.length for e in elements):
                continue
            original = {
                relabeled(t.w): t.value for t in product_expansion(u, v, c)
            }
            mirrored = {
                t.w: t.value
                for t in product_expansion(relabeled(u), relabeled(v), permuted)
            }
            assert original == mirrored


def test_quotient_expansion_matches_full_flag_values(a3):
    # On representatives the quotient constants are the full-flag ones.
    reps = minimal_coset_reps(a3, (1, 3))
    for u in reps:
        for v in reps:
            quotient = {
                t.w: t.value
                for t in product_expansion(u, v, a3, parabolic=(1, 3), include_zeros=True)
            }
            for w, value in quotient.items():
                assert value == structure_constant(u, v, w, a3)


def test_constants_for_word_checks_reducedness_once(g2, monkeypatch):
    w_word = (2, 1, 2, 1, 2, 1)
    factors = [e for e in enumerate_group(g2) if e.length == 3]
    pairs = [(u, v) for u in factors for v in factors]
    w = element_of_word(w_word, g2)
    expected = [structure_constant(u, v, w, g2) for u, v in pairs]
    calls = []
    original = weyl.element_of_word

    def counting(word, c):
        calls.append(tuple(word))
        return original(word, c)

    for module in (relmat, weyl):
        monkeypatch.setattr(module, "element_of_word", counting)
    assert structure_constants_for_word(w_word, pairs, g2) == expected
    assert calls == [w_word]


def test_constants_for_word_refuse_a_float_letter(g2):
    # Read as ints, the letters would pass the word check and index the
    # matrix rows with a float.
    with pytest.raises(ValueError, match="^word letter 1.0 is not an integer$"):
        structure_constants_for_word((1.0, 2), [], g2)


def test_negative_value_raises(g2, g2_data, monkeypatch):
    monkeypatch.setattr(schubert, "eliminate", lambda rows, polys: [-1] * len(polys))
    with pytest.raises(NegativeConstant, match="-1"):
        structure_constant_for_word(W_WORD, g2_data["u"], g2_data["v"], g2)


def test_orientation_choice_and_ties():
    assert choose_orientation(7, 7, 15) == ("dual_u", 8)  # F4/P4 --table 7 7
    assert choose_orientation(7, 7, 27) == ("direct", 14)  # E7/P7 --table 7 7
    assert choose_orientation(1, 2, 36) == ("direct", 3)  # E6 --table 1 2
    assert choose_orientation(1, 4, 6) == ("dual_v", 2)
    assert choose_orientation(2, 2, 6) == ("direct", 4)  # ties go to direct,
    assert choose_orientation(2, 1, 4) == ("dual_u", 2)  # then to u∨


def _by_route(triples, c, route):
    """Each triple's constant on route(u, v, w) = (target, factor pair),
    one batched evaluation per target word."""
    batches = {}
    for triple in triples:
        target, pair = route(*triple)
        batches.setdefault(target, []).append((triple, pair))
    values = {}
    for target, batch in batches.items():
        constants = structure_constants_for_word(
            reduced_word(target, c), [pair for _, pair in batch], c
        )
        values.update(zip((triple for triple, _ in batch), constants))
    return values


DUALITY_CASES = [
    ("G2", (), None),
    ("B2", (), None),
    ("A3", (1, 3), None),
    ("A3", (2,), None),
    ("B3", (1,), None),
    ("B3", (2, 3), None),
    ("C3", (1,), None),
    ("B3", (), None),
    ("C3", (), None),
    ("F4", (1, 2, 3), 5),
]


@pytest.mark.parametrize(
    "name,parabolic,top",
    DUALITY_CASES,
    ids=[f"{name}-P{''.join(map(str, p))}" for name, p, _ in DUALITY_CASES],
)
def test_poincare_duality_orientations_agree(name, parabolic, top):
    # a^w_{u,v} = a^{u∨}_{v,w∨} = a^{v∨}_{u,w∨}, each evaluated literally on
    # the word of its own target, for every triple up to degree top; and
    # FlagManifold.constants, in the orientation it chooses for each degree
    # pair, matches the literal route.  Multiply-laced types pin the entry
    # order of the relative matrices on the dual words too.
    c = cartan_matrix_by_name(name)
    reps = minimal_coset_reps(c, parabolic)
    dim = reps[-1].length
    top = dim if top is None else top
    w0_p, opposite = longest_element(c, parabolic), opposition(c)
    dual = {x: poincare_dual(x, w0_p, opposite, c) for x in reps}
    by_length = {}
    for x in reps:
        by_length.setdefault(x.length, []).append(x)
    triples = [
        (u, v, w)
        for u in reps
        for v in reps
        if u.length + v.length <= top
        for w in by_length.get(u.length + v.length, [])
    ]
    literal = _by_route(triples, c, lambda u, v, w: (w, (u, v)))
    assert _by_route(triples, c, lambda u, v, w: (dual[u], (v, dual[w]))) == literal
    assert _by_route(triples, c, lambda u, v, w: (dual[v], (u, dual[w]))) == literal
    assert any(literal.values())
    space = FlagManifold(c, parabolic)
    assert space.constants(triples) == [literal[t] for t in triples]
    assert all(list(space.level(d)) == by_length[d] for d in range(top + 1))
    assert all(space.word(w) == reduced_word(w, c) for _, _, w in triples)
    chosen = {choose_orientation(u.length, v.length, dim)[0] for u, v, _ in triples}
    assert chosen == (set(ORIENTATIONS) if top == dim else {"direct"})


def test_parabolic_structure_constant_uses_the_chosen_orientation(monkeypatch):
    # B3/P{2,3} is the 5-dimensional quadric: the hyperplane class h times
    # the degree-3 class is evaluated on the word of v∨ (length 2), and
    # still gives the known coefficient 1.
    c = cartan_matrix_by_name("B3")
    reps = minimal_coset_reps(c, (2, 3))
    seen = []
    original = schubert._constants_of_letters

    def recording(letters, pairs, c):
        seen.append(len(letters))
        return original(letters, pairs, c)

    monkeypatch.setattr(schubert, "_constants_of_letters", recording)
    assert choose_orientation(1, 3, 5) == ("dual_v", 2)
    assert structure_constant(reps[1], reps[3], reps[4], c, parabolic=(2, 3)) == 1
    assert seen == [2]


def test_full_flag_structure_constant_uses_the_chosen_orientation(g2, g2_data, monkeypatch):
    # G2/B has dimension 6: the worked case a^w_{u,v} with l(u) = 3 and
    # l(v) = 2 is evaluated on the word of u∨ (length 3), not on the
    # length-5 word of w, just as product_expansion evaluates it.
    seen = []
    original = schubert._constants_of_letters

    def recording(letters, pairs, c):
        seen.append(len(letters))
        return original(letters, pairs, c)

    monkeypatch.setattr(schubert, "_constants_of_letters", recording)
    assert choose_orientation(3, 2, 6) == ("dual_u", 3)
    assert structure_constant(g2_data["u"], g2_data["v"], g2_data["w"], g2) == 1
    assert structure_constant(g2_data["u"], g2_data["v"], g2_data["w2"], g2) == 0
    assert seen == [3, 3]


def test_constants_climb_no_further_than_a_dual_could_pay(monkeypatch):
    # A100/B has dimension 5,050.  For a triple of degree 2 a dual word is
    # shorter only when dim < l(w) + max(l(u), l(v)) = 3, so the climb
    # stops after 3 steps and dim itself stays uncomputed.
    c = cartan_matrix_by_name("A100")
    u, v, w = (element_of_word(word, c) for word in [(1,), (2,), (1, 2)])
    climbs = []
    original = schubert.climb

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        climbs.append((kwargs.get("limit"), result[1]))
        return result

    monkeypatch.setattr(schubert, "climb", recording)
    space = FlagManifold(c)
    assert space.constants([(u, v, w)]) == [1]
    assert "dim" not in space.__dict__
    assert climbs == [(3, 3)]


def test_duals_spell_no_word_past_the_dimension(monkeypatch):
    # A200/P{2..200} is P^200: the square of its degree-75 class is
    # evaluated on the 125-letter word of u∨.  w0 has 20,100 letters, and
    # the duals apply it by a climb without spelling it.
    spell = weyl.reduced_word

    def bounded(e, c):
        if e.length > 200:
            raise AssertionError(f"spelling a word of {e.length} letters")
        return spell(e, c)

    monkeypatch.setattr(weyl, "reduced_word", bounded)
    monkeypatch.setattr(schubert, "reduced_word", bounded)
    c = cartan_matrix_by_name("A200")
    u, w = (element_of_word(range(top, 0, -1), c) for top in (75, 150))
    assert choose_orientation(75, 75, 200) == ("dual_u", 125)
    assert product_expansion(u, u, c, range(2, 201)) == [StructureConstant(u, u, w, 1)]


@pytest.mark.parametrize("include_zeros", [False, True])
@pytest.mark.parametrize("name, parabolic", [("G2", ()), ("A3", (2,)), ("A3", (1, 3))])
def test_expand_is_product_expansion_pair_by_pair(walks, name, parabolic, include_zeros):
    # Every pair of representatives, of every degree (those past dim G/P
    # included), in one context: one walk, and the concatenation of the
    # per-pair expansions.
    c = cartan_matrix_by_name(name)
    reps = minimal_coset_reps(c, parabolic)
    pairs = [(u, v) for u in reps for v in reps]
    expected = [t for u, v in pairs for t in product_expansion(u, v, c, parabolic, include_zeros)]
    walks.clear()
    assert FlagManifold(c, parabolic).expand(pairs, include_zeros) == expected
    assert len(walks) == 1
    assert any(t.value == 0 for t in expected) == include_zeros


def test_level_walks_only_as_deep_as_asked(walks, a3):
    reflections = tuple(e for e in minimal_coset_reps(a3, ()) if e.length == 1)
    walks.clear()
    space = FlagManifold(a3)
    assert space.level(-1) == () and space.level(space.dim + 1) == ()
    assert walks == []
    assert space.level(1) == reflections
    assert walks == [[1, 3]]


def test_a_refused_walk_stays_refused(a3):
    # The walk is a generator, which a raise ends: the next call must not
    # read that end as "no more levels" and answer ().
    space = FlagManifold(a3, max_order=5)
    for d in (2, 2, 3):
        with pytest.raises(GroupTooLarge, match="max_order=5"):
            space.level(d)
    assert len(space.level(1)) == 3


def test_threads_sharing_a_context_get_the_same_levels(walks):
    # Four threads, more than the cores, switching every 10 us: unlocked,
    # two of them advance the walk's generator at once and one raises.
    e6 = cartan_matrix_by_name("E6")
    space = FlagManifold(e6)
    depths = range(14)
    start = threading.Barrier(4, timeout=30)

    def levels(_):
        start.wait()
        return [space.level(d) for d in depths]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(levels, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    reps = minimal_coset_reps(e6, ())
    assert results == [[tuple(e for e in reps if e.length == d) for d in depths]] * 4
    assert len(walks) == 2  # the context's, then minimal_coset_reps's


@pytest.mark.parametrize(
    "u_word,v_word,orientation",
    [((1,), (2,), "direct"), ((1, 2, 1, 2), (1,), "dual_u"), ((1,), (2, 1, 2, 1), "dual_v")],
)
def test_negative_value_raises_in_every_orientation(g2, monkeypatch, u_word, v_word, orientation):
    u, v = element_of_word(u_word, g2), element_of_word(v_word, g2)
    assert choose_orientation(u.length, v.length, 6)[0] == orientation
    monkeypatch.setattr(schubert, "eliminate", lambda rows, polys: [-1] * len(polys))
    with pytest.raises(NegativeConstant, match="-1"):
        product_expansion(u, v, g2)


DIM_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4", "E6", "E7", "E8"]


def test_climb_dimension_matches_longest_elements():
    # dim G/P from the climb on lambda_P, against l(w0) - l(w0_P), on every
    # parabolic subset of each type (598 in all).
    checked = 0
    for name in DIM_TYPES:
        c = cartan_matrix_by_name(name)
        top = longest_element(c).length
        for r in range(c.n + 1):
            for subset in itertools.combinations(range(1, c.n + 1), r):
                assert FlagManifold(c, subset).dim == top - longest_element(c, subset).length, (name, subset)
                checked += 1
    assert checked == 598


def test_context_levels_and_words(a3):
    space = FlagManifold(a3, (1, 3))
    reps = minimal_coset_reps(a3, (1, 3))
    assert [x for d in range(space.dim + 2) for x in space.level(d)] == reps
    assert space.level(space.dim + 1) == () and space.level(-1) == ()
    assert all(space.word(x) == reduced_word(x, a3) for x in reps)
    assert space.level(2) is space.level(2)  # walked once, then held


def test_context_refuses_repeated_and_out_of_range_indices(a3):
    with pytest.raises(ValueError, match="parabolic indices must be distinct, got 1,1"):
        FlagManifold(a3, (1, 1))
    with pytest.raises(IndexError, match="out of range"):
        FlagManifold(a3, (4,))


def test_context_factor_check(g2):
    space = FlagManifold(g2, (1,))
    space.check_reps(u=element_of_word((2,), g2), w=element_of_word((1, 2), g2))
    with pytest.raises(NotMinimalRep, match="^w is not minimal in its coset for \\[1\\]$"):
        space.check_reps(u=element_of_word((2,), g2), w=element_of_word((2, 1), g2))


def test_full_flag_factor_check_spells_no_word(g2, g2_data, monkeypatch):
    # Every element is minimal for the empty subset, so no word is needed.
    calls = []
    spell = weyl.reduced_word
    monkeypatch.setattr(weyl, "reduced_word", lambda e, c: calls.append(e) or spell(e, c))
    FlagManifold(g2).check_reps(u=g2_data["u"], v=g2_data["v"], w=g2_data["w"])
    assert calls == []


@pytest.mark.parametrize(
    "u_word,v_word,orientation",
    [((1,), (2,), "direct"), ((1, 2, 1, 2), (1,), "dual_u"), ((1,), (2, 1, 2, 1), "dual_v")],
)
def test_constants_refuse_a_triple_of_the_wrong_degree(g2, u_word, v_word, orientation):
    # l(w) = l(u) + l(v) - 1: the target word of every orientation is one
    # letter off its factors' lengths.
    u, v = element_of_word(u_word, g2), element_of_word(v_word, g2)
    w = element_of_word((2, 1, 2, 1, 2)[: u.length + v.length - 1], g2)
    assert choose_orientation(u.length, v.length, 6)[0] == orientation
    with pytest.raises(LengthMismatch):
        FlagManifold(g2).constants([(u, v, w)])
