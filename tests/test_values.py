"""The package's immutable value classes: equal fields make equal objects
with equal hashes, objects of different classes are never equal, every
assignment raises, and construction validates as it always did."""

import pickle
from itertools import combinations

import pytest

from schuprod import (
    CartanMatrix,
    LengthMismatch,
    ParabolicSubset,
    RelativeCartanMatrix,
    StructureConstant,
    WeylElement,
    cartan_matrix_by_name,
    element_of_word,
)
from schuprod.cli import JobSpec
from schuprod.oracles import Root


def _g2_constant():
    c = cartan_matrix_by_name("G2")
    return StructureConstant(*(element_of_word(w, c) for w in [(2, 1, 2), (1, 2), (2, 1, 2, 1, 2)]), 1)


# Each builds its object from fresh field values, so equal objects are
# never the same object and never share a field object.
MAKERS = {
    "CartanMatrix": lambda: CartanMatrix(2, tuple(tuple(row) for row in [[2, -3], [-1, 2]])),
    "Root": lambda: Root(tuple([1, 2])),
    "WeylElement": lambda: WeylElement(tuple([-1, 2]), 1),
    "ParabolicSubset": lambda: ParabolicSubset.of([3, 1]),
    "RelativeCartanMatrix": lambda: RelativeCartanMatrix(2, tuple(tuple(row) for row in [[0, 3], [0, 0]])),
    "StructureConstant": _g2_constant,
    "JobSpec": lambda: JobSpec(cartan_matrix_by_name("G2"), (1,), "table", table_degrees=(1, 1)),
}


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_equal_fields_make_equal_objects(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")


@pytest.mark.parametrize(
    "a, b",
    [
        (WeylElement((-1, 2), 1), WeylElement((-1, 2), 2)),
        (WeylElement((-1, 2), 1), WeylElement((2, -1), 1)),
        (CartanMatrix(2, ((2, -3), (-1, 2))), CartanMatrix(2, ((2, -1), (-3, 2)))),
        (Root((1, 2)), Root((2, 1))),
        (ParabolicSubset.of([1]), ParabolicSubset.of([1, 3])),
        (JobSpec(None, mode="selftest"), JobSpec(None, mode="selftest", verbose=True)),
    ],
    ids=["length", "image", "entries", "coords", "indices", "flag"],
)
def test_a_different_field_makes_a_different_object(a, b):
    assert a != b and not a == b


def test_objects_of_different_classes_are_never_equal():
    objects = [make() for make in MAKERS.values()]
    # The same field values in two classes, too.
    entries = ((0, 3), (0, 0))
    objects += [CartanMatrix(2, entries), RelativeCartanMatrix(2, entries)]
    for a, b in combinations(objects, 2):
        assert type(a) is type(b) or (a != b and not a == b)

    class Sub(WeylElement):
        pass

    assert Sub((-1, 2), 1) != WeylElement((-1, 2), 1)


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_assignment_raises(make):
    obj = make()
    fields = type(obj).__slots__
    before = [getattr(obj, name) for name in fields if name != "__dict__"]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert [getattr(obj, name) for name in fields if name != "__dict__"] == before


def test_cartan_matrix_caches_its_sparse_rows():
    c = MAKERS["CartanMatrix"]()
    assert c.sparse_rows == (((0, 2), (1, -3)), ((0, -1), (1, 2)))
    assert c.sparse_rows is c.sparse_rows
    assert c == MAKERS["CartanMatrix"]()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: WeylElement((1, 0), 1), ValueError, r"^\(1, 0\) is not in the regular orbit$"),
        (lambda: Root((1, -1)), ValueError, r"^mixed-sign coordinates are not a root: \(1, -1\)$"),
        (lambda: Root((0, 0)), ValueError, "^root must be nonzero$"),
        (
            lambda: StructureConstant(*(_g2_constant().u,) * 3, 0),
            LengthMismatch,
            r"^l\(w\)=3 but l\(u\)\+l\(v\)=6$",
        ),
    ],
    ids=["weyl-zero-coordinate", "root-mixed-sign", "root-zero", "constant-lengths"],
)
def test_validation_is_unchanged(build, error, message):
    with pytest.raises(error, match=message):
        build()
