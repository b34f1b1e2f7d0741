import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schuprod import (
    DegreeMismatch,
    HomogPoly,
    VariableCountMismatch,
    triangular_eval,
    triangular_eval_closed,
    triangular_eval_many,
    vanishing_filter,
)
from schuprod.oracles import flow_matrices
from schuprod.triop import _Lanes, eliminate, poly_mul

G2_MATRIX_W = [
    [0, 3, -2, 3, -2],
    [0, 0, 1, -2, 1],
    [0, 0, 0, 3, -2],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0],
]


def two_var(a):
    return [[0, a], [0, 0]]


def three_var(a, b, c):
    return [[0, a, b], [0, 0, c], [0, 0, 0]]


def mono(k, exps, coeff=1):
    return HomogPoly.monomial(k, exps, coeff)


def random_matrix(rng, k, lo=-3, hi=3):
    return [[rng.randint(lo, hi) if i < j else 0 for j in range(k)] for i in range(k)]


def random_exponents(rng, k):
    exps = [0] * k
    for _ in range(k):
        exps[rng.randrange(k)] += 1
    return tuple(exps)


# -- polynomial plumbing ---------------------------------------------------


def test_monomial_product():
    p = mono(2, (1, 0)) * mono(2, (0, 1))
    assert p.terms == {(1, 1): 1}


def test_difference_of_squares():
    p = HomogPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    q = HomogPoly(2, 1, {(1, 0): 1, (0, 1): -1})
    assert (p * q).terms == {(2, 0): 1, (0, 2): -1}


def test_worked_product_multiplicity():
    lsum = HomogPoly(5, 3, {
        (1, 1, 1, 0, 0): 1, (1, 1, 0, 0, 1): 1, (1, 0, 0, 1, 1): 1, (0, 0, 1, 1, 1): 1,
    })
    ksum = HomogPoly(5, 2, {(0, 1, 1, 0, 0): 1, (0, 1, 0, 0, 1): 1, (0, 0, 0, 1, 1): 1})
    product = poly_mul(lsum, ksum)
    assert product.degree == 5
    assert product.coefficient((1, 1, 0, 1, 2)) == 2


def test_poly_validation():
    with pytest.raises(DegreeMismatch):
        HomogPoly(2, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        HomogPoly(2, 1, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        HomogPoly(2, 0, {(-1, 1): 1})
    assert HomogPoly(2, 2, {(1, 1): 0}).terms == {}


def test_poly_mismatch_errors():
    with pytest.raises(VariableCountMismatch):
        poly_mul(HomogPoly.one(2), HomogPoly.one(3))
    with pytest.raises(VariableCountMismatch):
        HomogPoly.one(2) + HomogPoly.one(3)
    with pytest.raises(DegreeMismatch):
        mono(2, (1, 0)) + mono(2, (1, 1))


def test_poly_immutable():
    p = HomogPoly.one(2)
    with pytest.raises(AttributeError):
        p.degree = 3


def test_scalar_and_negation():
    p = mono(3, (1, 1, 1), 2)
    assert (3 * p).coefficient((1, 1, 1)) == 6


# -- the operator: worked values -------------------------------------------


@pytest.mark.parametrize("a", range(-3, 4))
def test_two_variable_table(a):
    m = two_var(a)
    assert triangular_eval(m, mono(2, (2, 0))) == 0
    assert triangular_eval(m, mono(2, (1, 1))) == 1
    assert triangular_eval(m, mono(2, (0, 2))) == a


@pytest.mark.parametrize("a", range(-3, 4))
def test_two_variable_table_closed_form(a):
    m = two_var(a)
    assert triangular_eval_closed(m, (2, 0)) == 0
    assert triangular_eval_closed(m, (1, 1)) == 1
    assert triangular_eval_closed(m, (0, 2)) == a


def test_three_variable_displayed_reduction():
    # The rank-3 evaluation factors through the rank-2 one by eliminating
    # the last variable; the pure-last-variable monomial comes out as
    # 2bc + a*c^2.
    rng = random.Random(2)
    for _ in range(25):
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        m = three_var(a, b, c)
        assert triangular_eval(m, mono(3, (0, 0, 3))) == 2 * b * c + a * c * c
        for r1 in range(4):
            for r2 in range(4 - r1):
                r3 = 3 - r1 - r2
                lhs = triangular_eval(m, mono(3, (r1, r2, r3)))
                if r3 == 0:
                    assert lhs == 0
                else:
                    elim = HomogPoly(2, 1, {(1, 0): b, (0, 1): c})
                    h = mono(2, (r1, r2))
                    power = HomogPoly.one(2)
                    for _ in range(r3 - 1):
                        power = power * elim
                    assert lhs == triangular_eval(two_var(a), h * power)


def test_g2_monomial_values():
    expected = {
        (1, 1, 0, 1, 2): 1,
        (1, 0, 0, 2, 2): -2,
        (0, 1, 2, 1, 1): 1,
        (0, 1, 1, 1, 2): -1,
        (0, 0, 1, 2, 2): -1,
    }
    for exps, value in expected.items():
        assert triangular_eval(G2_MATRIX_W, mono(5, exps)) == value
        assert triangular_eval_closed(G2_MATRIX_W, exps) == value


def test_square_free_unit_monomial():
    rng = random.Random(9)
    for _ in range(30):
        k = rng.randint(1, 6)
        m = random_matrix(rng, k)
        assert triangular_eval(m, mono(k, (1,) * k)) == 1
        assert triangular_eval_closed(m, (1,) * k) == 1


def test_empty_rank_unit():
    assert triangular_eval([], HomogPoly.one(0)) == 1
    assert triangular_eval([], HomogPoly(0, 0, {(): 7})) == 7


# -- vanishing --------------------------------------------------------------


def test_vanishing_filter_examples():
    assert vanishing_filter((2, 0, 1)) is True
    assert vanishing_filter((1, 1, 1)) is False
    assert vanishing_filter((0, 0, 3)) is False
    assert vanishing_filter(()) is False
    assert vanishing_filter((1,)) is False


def test_vanishing_filter_implies_zero():
    rng = random.Random(13)
    hits = 0
    while hits < 40:
        k = rng.randint(2, 6)
        exps = random_exponents(rng, k)
        if not vanishing_filter(exps):
            continue
        hits += 1
        m = random_matrix(rng, k)
        assert triangular_eval(m, mono(k, exps)) == 0
        assert triangular_eval_closed(m, exps) == 0


def test_missing_last_variable_is_zero():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randint(2, 6)
        exps = list(random_exponents(rng, k - 1)) + [0]
        exps[0] += 1  # keep total degree k
        assert triangular_eval(random_matrix(rng, k), mono(k, tuple(exps))) == 0


# -- closed form ------------------------------------------------------------


def test_flow_matrices_square_free():
    fms = flow_matrices((1, 1, 1))
    assert len(fms) == 1
    assert fms[0].entries == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_flow_matrices_two_var():
    fms = flow_matrices((0, 2))
    assert len(fms) == 1
    assert fms[0].entries == ((0, 1), (0, 0))


def test_flow_matrices_balance_invariant():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 6)
        exps = random_exponents(rng, k)
        for fm in flow_matrices(exps):
            assert fm.balances(exps)
            assert all(fm.entries[i][j] == 0 for i in range(k) for j in range(i + 1))


def test_recursive_equals_closed_form_fuzz():
    rng = random.Random(29)
    for _ in range(150):
        k = rng.randint(1, 6)
        m = random_matrix(rng, k)
        exps = random_exponents(rng, k)
        assert triangular_eval(m, mono(k, exps)) == triangular_eval_closed(m, exps)


def test_eval_error_paths():
    with pytest.raises(DegreeMismatch):
        triangular_eval(two_var(1), mono(3, (1, 1, 1)))
    with pytest.raises(DegreeMismatch):
        triangular_eval(two_var(1), mono(2, (1, 0)))
    with pytest.raises(DegreeMismatch):
        triangular_eval_closed(two_var(1), (1, 1, 0))
    with pytest.raises(DegreeMismatch):
        triangular_eval_closed(two_var(1), (2, 1))
    with pytest.raises(ValueError):
        triangular_eval([[1, 0], [0, 0]], mono(2, (1, 1)))
    with pytest.raises(ValueError):
        triangular_eval([[0, 1], [1, 0]], mono(2, (1, 1)))


# -- algebraic properties ----------------------------------------------------


def exponent_vectors(k):
    # k balls in k boxes, so the degree is k by construction
    return st.lists(
        st.integers(min_value=0, max_value=k - 1), min_size=k, max_size=k
    ).map(lambda slots: tuple(slots.count(i) for i in range(k)))


@st.composite
def matrix_and_polys(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    rows = [
        [draw(st.integers(min_value=-3, max_value=3)) if i < j else 0 for j in range(k)]
        for i in range(k)
    ]
    coeffs = st.integers(min_value=-5, max_value=5)
    terms1 = draw(st.dictionaries(exponent_vectors(k), coeffs, max_size=4))
    terms2 = draw(st.dictionaries(exponent_vectors(k), coeffs, max_size=4))
    return rows, HomogPoly(k, k, terms1), HomogPoly(k, k, terms2)


@given(matrix_and_polys())
@settings(max_examples=60, deadline=None)
def test_operator_is_additive(data):
    rows, p, q = data
    assert triangular_eval(rows, p + q) == triangular_eval(rows, p) + triangular_eval(rows, q)


@given(matrix_and_polys(), st.integers(min_value=-6, max_value=6))
@settings(max_examples=60, deadline=None)
def test_operator_is_homogeneous(data, scale):
    rows, p, _ = data
    assert triangular_eval(rows, scale * p) == scale * triangular_eval(rows, p)


@given(matrix_and_polys())
@settings(max_examples=60, deadline=None)
def test_operator_matches_closed_form_on_terms(data):
    rows, p, _ = data
    total = sum(c * triangular_eval_closed(rows, e) for e, c in p.terms.items())
    assert triangular_eval(rows, p) == total


# -- batched elimination -----------------------------------------------------


@st.composite
def matrix_and_batch(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    rows = [
        [draw(st.integers(min_value=-3, max_value=3)) if i < j else 0 for j in range(k)]
        for i in range(k)
    ]
    coeffs = st.integers(min_value=-5, max_value=5)
    polys = draw(
        st.lists(
            st.dictionaries(exponent_vectors(k), coeffs, max_size=5).map(
                lambda terms: HomogPoly(k, k, terms)
            ),
            min_size=1,
            max_size=4,
        )
    )
    # x_1^k oversubscribes its first prefix once k >= 2, so the batch
    # always carries a monomial the elimination must prune to 0.
    polys.append(mono(k, (k,) + (0,) * (k - 1), draw(coeffs) or 1))
    return rows, polys


@given(matrix_and_batch())
@settings(max_examples=80, deadline=None)
def test_eval_many_matches_closed_form_and_linearity(data):
    rows, polys = data
    values = triangular_eval_many(rows, polys)
    assert values == [
        sum(c * triangular_eval_closed(rows, e) for e, c in p.terms.items()) for p in polys
    ]
    total = polys[0]
    for p in polys[1:]:
        total = total + p
    assert triangular_eval_many(rows, [total]) == [sum(values)]
    for p in polys:
        for exps in p.terms:
            if vanishing_filter(exps):
                assert triangular_eval_many(rows, [mono(len(rows), exps)]) == [0]


def test_eval_many_edge_cases():
    assert triangular_eval_many(two_var(2), []) == []
    assert triangular_eval_many([], [HomogPoly.one(0), HomogPoly(0, 0, {(): 7})]) == [1, 7]
    # An empty polynomial between nonempty ones evaluates to 0.
    empty = HomogPoly(2, 2, {})
    assert triangular_eval_many(two_var(2), [mono(2, (1, 1)), empty, mono(2, (0, 2), 3)]) == [1, 0, 6]
    # One monomial in several lanes, at and past the edges of a signed byte;
    # x_2^2 evaluates to 2 on this matrix.
    edges = [mono(2, (0, 2), c) for c in (-128, 127, 128)]
    assert triangular_eval_many(two_var(2), edges) == [-256, 254, 256]
    with pytest.raises(DegreeMismatch):
        triangular_eval_many(two_var(1), [mono(2, (1, 1)), mono(2, (1, 0))])


# -- the packed kernel under lane pressure -------------------------------------


def recursive_reference(rows, polys):
    """The operator by its three laws, one polynomial at a time, on dicts
    from exponent tuples to ints: law 3 expands h * L^(r-1) in full, with
    no pruning and no packing."""
    values = []
    for p in polys:
        terms = dict(p.terms)
        for m in range(len(rows) - 1, -1, -1):
            column = [(i, rows[i][m]) for i in range(m) if rows[i][m]]
            lower = {}
            for exps, coeff in terms.items():
                if exps[m] == 0:  # law 1
                    continue
                layer = {exps[:m]: coeff}
                for _ in range(exps[m] - 1):
                    product = {}
                    for e, c in layer.items():
                        for i, a in column:
                            raised = e[:i] + (e[i] + 1,) + e[i + 1 :]
                            product[raised] = product.get(raised, 0) + a * c
                    layer = product
                for e, c in layer.items():
                    lower[e] = lower.get(e, 0) + c
            terms = lower
        values.append(terms.get((), 0))
    return values


# Entries at the edges of a signed byte outgrow 16-bit lanes as they grow;
# those near 2^63 and past 2^64 size lanes of nine bytes and more.
WIDE_COEFFS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-130, max_value=-126),
    st.integers(min_value=126, max_value=130),
    st.integers(min_value=2**61, max_value=2**63 - 1),
    st.integers(min_value=-(2**63), max_value=-(2**61)),
    st.integers(min_value=2**64, max_value=2**90),
    st.integers(min_value=-(2**90), max_value=-(2**64)),
)


@st.composite
def wide_batches(draw):
    k = draw(st.integers(min_value=0, max_value=5))
    rows = [
        [draw(st.integers(min_value=-3, max_value=3)) if i < j else 0 for j in range(k)]
        for i in range(k)
    ]
    monomials = exponent_vectors(k) if k else st.just(())
    polys = draw(
        st.lists(
            st.dictionaries(monomials, WIDE_COEFFS, max_size=3).map(lambda t: HomogPoly(k, k, t)),
            min_size=1,
            max_size=64,
        )
    )
    return rows, polys


@given(wide_batches())
@example(([], [HomogPoly(0, 0, {(): c}) for c in (2**64 + 1, -(2**70), 0, -1)]))
@example(([[0, 3, 3], [0, 0, 3], [0, 0, 0]], [mono(3, (0, 0, 3), 2**63 - 1), mono(3, (0, 0, 3), -(2**63))]))
@example(([[0]], [mono(1, (1,), 2**64 + 3), mono(1, (1,), -5)]))
@example(([[0, -3, 3], [0, 0, 3], [0, 0, 0]], [mono(3, (0, 0, 3), 127), mono(3, (0, 0, 3), -128)]))
@settings(max_examples=120, deadline=None)
def test_eval_many_is_exact_under_lane_pressure(data):
    rows, polys = data
    closed = {}
    expected = [
        sum(c * closed.setdefault(e, triangular_eval_closed(rows, e)) for e, c in p.terms.items())
        for p in polys
    ]
    assert triangular_eval_many(rows, polys) == expected
    assert recursive_reference(rows, polys) == expected


def test_empty_word_passes_each_coefficient_through():
    values = [0, -1, 7, 2**63 - 1, -(2**63), 2**64, -(2**90)]
    assert eliminate([], [{0: c} for c in values]) == values
    assert eliminate([], [{}, {}, {}]) == [0, 0, 0]
    assert eliminate([[], [(0, 1)]], []) == []
    # An empty polynomial between nonempty ones, and one monomial in several
    # lanes at and past the edges of a signed byte.
    assert eliminate([], [{0: 5}, {}, {0: -3}]) == [5, 0, -3]
    assert eliminate([], [{0: -128}, {0: 127}, {0: 128}]) == [-128, 127, 128]


def pack(lanes, vec) -> int:
    """vec packed into lanes: the integer sum of vec[j] * 2^(width*j)."""
    packed = 0
    for c in reversed(vec):
        packed = (packed << lanes.width) + c
    return packed


@pytest.mark.parametrize("bound", [0, 1, 6, 7, 8, 15, 62, 63, 64, 90])
def test_lanes_hold_and_measure_entries_at_their_bound(bound):
    # The extremes of [-2^bound, 2^bound) round-trip, measure as exactly
    # bound, and survive a refit to lanes one byte wider and back.
    lanes = _Lanes(3, bound)
    values = [-(2**bound), 2**bound - 1, 0] if bound else [-1, 0, 0]
    packed = pack(lanes, values)
    assert lanes.unpack(packed) == values
    assert lanes.bits([packed]) == bound
    assert lanes.bits([pack(lanes, [0, 0, 0])]) == 0
    wider = _Lanes(3, bound + 8)
    assert wider.width == lanes.width + 8
    back = wider.relane(lanes.relane({0: packed}, wider), lanes)
    assert lanes.unpack(back[0]) == values
