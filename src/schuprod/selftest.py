"""Built-in golden fixtures and spot properties for the CLI selftest mode.

The fixtures pin the rank-2 worked case end to end (relative matrices,
subword solution sets, the five monomial evaluations, both constants and
the final expansion) plus cross-oracle agreement on random inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import oracles, schubert, triop, weyl
from .relmat import cartan_matrix_of_word
from .rootsys import cartan_matrix_by_name

RNG_SEED = 90721  # every run's random spot checks draw the same inputs

G2_WORD_W = (2, 1, 2, 1, 2)
G2_WORD_W2 = (1, 2, 1, 2, 1)

G2_MATRIX_W = (
    (0, 3, -2, 3, -2),
    (0, 0, 1, -2, 1),
    (0, 0, 0, 3, -2),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0),
)
G2_MATRIX_W2 = (
    (0, 1, -2, 1, -2),
    (0, 0, 3, -2, 3),
    (0, 0, 0, 1, -2),
    (0, 0, 0, 0, 3),
    (0, 0, 0, 0, 0),
)

G2_L_SETS = [(1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5)]
G2_K_SETS = [(2, 3), (2, 5), (4, 5)]
G2_MONOMIAL_VALUES = {
    (1, 1, 0, 1, 2): 1,
    (1, 0, 0, 2, 2): -2,
    (0, 1, 2, 1, 1): 1,
    (0, 1, 1, 1, 2): -1,
    (0, 0, 1, 2, 2): -1,
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(results, name, condition, detail=""):
    results.append(CheckResult(name, bool(condition), "" if condition else detail))


def run_selftest() -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = random.Random(RNG_SEED)
    g2 = cartan_matrix_by_name("G2")

    # Relative Cartan matrices of the two rank-2 words.
    for word, expected in ((G2_WORD_W, G2_MATRIX_W), (G2_WORD_W2, G2_MATRIX_W2)):
        got = cartan_matrix_of_word(word, g2).entries
        _check(
            results,
            f"g2-relative-matrix-{weyl.format_word(word)}",
            got == expected,
            f"got {got}",
        )

    # Two-variable operator table for every admissible single entry.
    ok = all(
        triop.triangular_eval([[0, a], [0, 0]], triop.HomogPoly.monomial(2, e)) == v
        for a in range(-3, 4)
        for e, v in (((2, 0), 0), ((1, 1), 1), ((0, 2), a))
    )
    _check(results, "two-variable-operator-table", ok, "table mismatch")

    # End-to-end rank-2 product.
    u = weyl.element_of_word((2, 1, 2), g2)
    v = weyl.element_of_word((1, 2), g2)
    w = weyl.element_of_word(G2_WORD_W, g2)
    _check(
        results,
        "g2-subword-solutions",
        schubert.subword_solutions(G2_WORD_W, u, g2) == G2_L_SETS
        and schubert.subword_solutions(G2_WORD_W, v, g2) == G2_K_SETS,
        "solution sets differ",
    )
    aw = cartan_matrix_of_word(G2_WORD_W, g2)
    ok = all(
        triop.triangular_eval(aw, triop.HomogPoly.monomial(5, exps)) == val
        for exps, val in G2_MONOMIAL_VALUES.items()
    )
    _check(results, "g2-monomial-values", ok, "monomial table mismatch")
    _check(
        results,
        "g2-structure-constants",
        schubert.structure_constant_for_word(G2_WORD_W, u, v, g2) == 1
        and schubert.structure_constant_for_word(G2_WORD_W2, u, v, g2) == 0,
        "constants differ",
    )
    expansion = schubert.product_expansion(u, v, g2)
    _check(
        results,
        "g2-product-expansion",
        len(expansion) == 1 and expansion[0].w == w and expansion[0].value == 1,
        f"got {[(weyl.reduced_word(t.w, g2), t.value) for t in expansion]}",
    )

    # Group orders and braid relations.
    orders = {"G2": 12, "A3": 24, "B2": 8}
    ok = all(
        len(weyl.enumerate_group(cartan_matrix_by_name(name))) == order
        for name, order in orders.items()
    )
    _check(results, "group-orders", ok, f"expected {orders}")
    a3 = cartan_matrix_by_name("A3")
    _check(
        results,
        "coset-representative-count",
        len(weyl.minimal_coset_reps(a3, (1, 3))) == 6,
        "expected 6 representatives",
    )
    ok = True
    for name in ("A2", "A3", "B2", "G2"):
        c = cartan_matrix_by_name(name)
        for i in range(1, c.n + 1):
            for j in range(i + 1, c.n + 1):
                m = {0: 2, 1: 3, 2: 4, 3: 6}[c.pairing(i, j) * c.pairing(j, i)]
                ok = ok and weyl.element_of_word((i, j) * m, c).is_identity
    _check(results, "braid-relations", ok, "braid relation failed")

    # Quotient geometry sentinel: the rank-3 orthogonal quotient is the
    # 5-dim quadric (doubled middle coefficient), the symplectic one is
    # projective 5-space (all ones).  A transposed pairing convention
    # would silently swap these.
    ok = True
    for name, pattern in (("B3", [1, 2, 1, 1]), ("C3", [1, 1, 1, 1])):
        c = cartan_matrix_by_name(name)
        reps = weyl.minimal_coset_reps(c, (2, 3))
        # Evaluated on the full flag, whose constants on these
        # representatives are those of the quotient.
        coeffs = schubert.FlagManifold(c).constants(
            (reps[1], reps[k], reps[k + 1]) for k in range(1, 5)
        )
        ok = ok and coeffs == pattern
    _check(results, "quotient-geometry-sentinel", ok, "hyperplane powers mismatch")

    # Recursive vs closed-form evaluation on random inputs.
    ok = True
    for _ in range(25):
        k = rng.randint(1, 5)
        rows = [
            [rng.randint(-3, 3) if i < j else 0 for j in range(k)] for i in range(k)
        ]
        exps = [0] * k
        for _ in range(k):
            exps[rng.randrange(k)] += 1
        rec_val = triop.triangular_eval(rows, triop.HomogPoly.monomial(k, exps))
        ok = ok and rec_val == oracles.triangular_eval_closed(rows, exps)
    _check(results, "cross-oracle-agreement", ok, "recursive vs closed form")

    # Degree-one products on the 4-space Grassmannian against tableau counts.
    grassmannian = schubert.FlagManifold(a3, (1, 3))
    triples = [
        (x, y, t)
        for x in grassmannian.level(1)
        for y in grassmannian.level(1)
        for t in grassmannian.level(2)
    ]
    ok = schubert.FlagManifold(a3).constants(triples) == [
        oracles.lr_coefficient(*(oracles.grassmannian_dictionary(z, 2, a3) for z in triple))
        for triple in triples
    ]
    _check(results, "grassmannian-tableau-check", ok, "tableau count mismatch")

    return results
