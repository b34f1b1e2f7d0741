import random

import pytest

from schuprod import NotReduced, cartan_matrix_by_name, cartan_matrix_of_word, element_of_word, reduced_word
from schuprod.relmat import relative_columns
from schuprod.weyl import identity, left_multiply

G2_MATRIX_W = [
    [0, 3, -2, 3, -2],
    [0, 0, 1, -2, 1],
    [0, 0, 0, 3, -2],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0],
]
G2_MATRIX_W2 = [
    [0, 1, -2, 1, -2],
    [0, 0, 3, -2, 3],
    [0, 0, 0, 1, -2],
    [0, 0, 0, 0, 3],
    [0, 0, 0, 0, 0],
]


def test_g2_worked_matrices(g2):
    assert cartan_matrix_of_word((2, 1, 2, 1, 2), g2).as_lists() == G2_MATRIX_W
    assert cartan_matrix_of_word((1, 2, 1, 2, 1), g2).as_lists() == G2_MATRIX_W2


def test_single_letter_matrix(g2, a3):
    for c, letter in ((g2, 1), (g2, 2), (a3, 3)):
        m = cartan_matrix_of_word((letter,), c)
        assert m.k == 1 and m.as_lists() == [[0]]


def test_unreduced_words_rejected(g2):
    with pytest.raises(NotReduced):
        cartan_matrix_of_word((1, 1), g2)
    with pytest.raises(NotReduced):
        cartan_matrix_of_word((2, 1, 1, 2), g2)


def random_reduced_word(rng, c):
    """A reduced word grown by random letters on the left, each kept when it
    lengthens the element: most such words are not reduced_word's."""
    e, word = identity(c), ()
    for _ in range(rng.randrange(3 * c.n ** 2)):
        i = rng.randint(1, c.n)
        longer = left_multiply(i, e, c)
        if longer.length > e.length:
            e, word = longer, (i,) + word
    return word


def test_entries_depend_only_on_letter_pairs():
    rng = random.Random(5)
    for name in ("A3", "A4", "B3", "C3", "D4", "E6", "F4", "G2"):
        c = cartan_matrix_by_name(name)
        for _ in range(10):
            grown = random_reduced_word(rng, c)
            for word in (grown, reduced_word(element_of_word(grown, c), c)):
                k = len(word)
                # Entry (a, b) pairs the letter at b against the coroot of the
                # letter at a; a column lists the nonzero ones, by row.
                assert relative_columns(word, c) == [
                    [(a, -c.pairing(word[b], word[a])) for a in range(b) if c.pairing(word[b], word[a])]
                    for b in range(k)
                ]
                m = cartan_matrix_of_word(word, c)
                for i in range(k):
                    for j in range(k):
                        expected = -c.pairing(word[j], word[i]) if i < j else 0
                        assert m.entries[i][j] == expected
                for i in range(k - 1):
                    assert m.entries[i][i + 1] == -c.pairing(word[i + 1], word[i])


def test_alternating_word_checkerboard(b2):
    # The alternating word gives a checkerboard of negated pairings with
    # -2 on the same-letter diagonals; entry (a, b) pairs the letter at b
    # against the coroot of the letter at a.
    m = cartan_matrix_of_word((1, 2, 1, 2), b2)
    assert m.as_lists() == [
        [0, 1, -2, 1],
        [0, 0, 2, -2],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]
