"""The immutable records keep the dataclass semantics they replaced: equal
fields give equal objects with equal hashes, Seed ignores its symmetrizer
and VPolytope its contacts, no field can be assigned or deleted, and the
validating constructors reject what they rejected."""

from fractions import Fraction

import pytest

from fanforge.arquiver import AffineFunctional, ARQuiver, ARVertex, DynkinQuiver, MeshRelation
from fanforge.clusterfan import (
    ExchangeGraph,
    FanEnumeration,
    FlipGraph,
    Seed,
    Triangulation,
)
from fanforge.exchange import RelativeMesh
from fanforge.polyhedra import HPolytope, VPolytope
from fanforge.typecone import LinearDependency, SlackCertificate, TypeCone, Wall

B2 = ((0, 1), (-2, 0))  # symmetrized by D = (2, 1) and its multiples
I2 = ((1, 0), (0, 1))
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
# the square's four sides (normal, offset) and, per corner, the sides tight on it
SQUARE_INCIDENCE = ([((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)], [10, 9, 6, 5])

# class -> (fresh constructor arguments, arguments giving an object equal to
# it that differs only in an ignored field, argument tuples it rejects)
RECORDS = {
    Wall: (lambda: (0, 1, (2,), (0, 3)), None, []),
    LinearDependency: (lambda: (Wall(0, 1, (2,), (0, 3)), (1, -2, 0, 1)), None, []),
    TypeCone: (lambda: (3, (), ((1, 0, 0),), ((1, 0, 0),)), None, []),
    SlackCertificate: (lambda: ((Fraction(1, 2),), (1,), ((1,),), ((0,),)), None, []),
    ARVertex: (lambda: (0, 1, (1, 0)), None, []),
    MeshRelation: (lambda: (0, (1,), 2), None, []),
    ARQuiver: (lambda: (DynkinQuiver("A", 2), (ARVertex(0, 1, (1, 0)),), (), (0,)), None, []),
    AffineFunctional: (lambda: ((0,), (1, 0)), None, []),
    RelativeMesh: (lambda: ((1, 3), ((1, 4),), (2, 4), (1, 0)), None, []),
    ExchangeGraph: (lambda: (((0, 1), (1, 2)), ((0, 1, (0, 2)),)), None, []),
    FlipGraph: (lambda: ((Triangulation(4, [(1, 3)]),), ()), None, []),
    FanEnumeration: (lambda: (None, ExchangeGraph((), ()), (), {(1, 3): (1,)}), None, []),
    Triangulation: (
        lambda: (5, [(3, 5), (1, 3)]),
        None,
        [
            (3, []),
            (5, [(1, 3)]),
            (5, [(1, 3), (2, 4)]),
            (5, [(1, 2), (1, 3)]),
            (5, [(1, 3), (3, 1)]),
            (5, [(0, 3), (1, 4)]),
        ],
    ),
    DynkinQuiver: (
        lambda: ("A", 3, [(2, 1), [3, 2]]),
        None,
        [("A", 3, [(2, 1)]), ("A", 3, [(1, 3), (2, 1)]), ("X", 3), ("D", 2)],
    ),
    HPolytope: (lambda: ([[1, 0], (-1, 0)], [1, Fraction(1, 2)]), None, [([(1, 0)], (1, 1))]),
    VPolytope: (
        lambda: (SQUARE[::-1],),
        lambda: (SQUARE, SQUARE_INCIDENCE),
        [([],), ([(0, 0), (1,)],)],
    ),
    Seed: (
        lambda: (B2, I2, I2, (2, 1)),
        lambda: (B2, I2, I2, (4, 2)),
        [
            (B2, I2, I2, (1, 1)),
            (((1, 0), (0, 0)), I2, I2),
            (((0, 0), (0, 0)), ((2, 0), (0, 1)), I2),
            (((0, 0), (0, 0)), I2, ((1, -1), (0, 1))),
        ],
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_keep_dataclass_semantics(cls):
    args, ignored, rejected = RECORDS[cls]
    a, b = cls(*args()), cls(*args())
    assert a == b and a is not b and not a != b
    if cls is FanEnumeration:
        with pytest.raises(TypeError):
            hash(a)  # its diagonal -> ray dictionary is unhashable
    else:
        assert hash(a) == hash(b)
    if ignored is not None:
        c = cls(*ignored())
        assert a == c and hash(a) == hash(c)
    field = (getattr(a, "_fields", None) or type(a).__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    for bad in rejected:
        with pytest.raises(ValueError):
            cls(*bad)
