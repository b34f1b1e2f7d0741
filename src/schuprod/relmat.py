"""Strictly upper-triangular Cartan matrix attached to a reduced word.

For a reduced word with letters (i_1,...,i_k) the matrix has
entries[a][b] = -C[i_b][i_a] for a < b and zeros elsewhere: the negated
pairing of the later letter's simple root against the earlier letter's
coroot.  That argument order matters in the multiply-laced types: entry
(a, b) is the Euler number of the sphere cycle of position a inside the
2-plane bundle of position b, and the sphere of a root beta pairs a
bundle of root gamma to the coroot pairing of (gamma, beta), not the
other way around.  (The two readings agree up to relabeling in rank 2,
where either one reproduces the worked 5x5 matrices; quotients of rank
3, where the quadric and the projective space must come out different,
pin this one.)  An entry depends only on the pair of letters it sits
over, so repeating letters repeat entry patterns, and it is nonzero only
where the two letters are equal or adjacent in the Dynkin diagram.

The operator reads the matrix one column at a time, so the pipeline
builds only its sparse columns (relative_columns), from the earlier
positions of the letters each letter pairs with.  The dense matrix
(relative_matrix_of_letters) is a view of those columns, for
cartan_matrix_of_word and the CLI's --show-matrix and --verbose output.
"""

from __future__ import annotations

from .errors import NotReduced
from .frozen import Frozen
from .rootsys import CartanMatrix
from .weyl import WeylElement, element_of_word


class RelativeCartanMatrix(Frozen):
    __slots__ = ("k", "entries")

    def __init__(self, k: int, entries: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", entries)

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def cartan_matrix_of_word(word, c: CartanMatrix) -> RelativeCartanMatrix:
    """Build the word's relative Cartan matrix; the word must be reduced
    (the downstream evaluation is only meaningful for reduced
    decompositions)."""
    return relative_matrix_of_letters(_reduced_letters(word, c), c)


def element_of_reduced_word(word, c: CartanMatrix) -> WeylElement:
    """The element a word spells, after checking that the word is reduced
    by comparing its length with the exact length of that element.  The
    one reducedness check of the package."""
    letters = tuple(word)
    e = element_of_word(letters, c)
    if e.length != len(letters):
        raise NotReduced(f"word {letters} is not reduced")
    return e


def _reduced_letters(word, c: CartanMatrix) -> tuple[int, ...]:
    """The word's letters, checked to be ints in range (element_of_word
    refuses any other entry) that spell a reduced word."""
    letters = tuple(word)
    element_of_reduced_word(letters, c)
    return letters


def relative_columns(letters, c: CartanMatrix) -> list[list[tuple[int, int]]]:
    """The relative matrix of a reduced word (_reduced_letters checks it),
    column by column: column b lists the nonzero entries
    (a, -C[i_b][i_a]), a < b, sorted by row a (0-based)."""
    # seen[i]: the positions read so far of letter i + 1.
    seen: list[list[int]] = [[] for _ in range(c.n)]
    columns = []
    for b, letter in enumerate(letters):
        columns.append(sorted((a, -pairing) for i, pairing in c.sparse_rows[letter - 1] for a in seen[i]))
        seen[letter - 1].append(b)
    return columns


def relative_matrix_of_letters(letters, c: CartanMatrix) -> RelativeCartanMatrix:
    """The dense view of relative_columns, for a word the caller has
    already checked to be reduced."""
    columns = [dict(column) for column in relative_columns(letters, c)]
    rows = tuple(tuple(column.get(a, 0) for column in columns) for a in range(len(columns)))
    return RelativeCartanMatrix(len(rows), rows)
