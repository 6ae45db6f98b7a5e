"""The seed BFS hands its fan each cone's inverse, D^-1 C D, which the
cone's own seed proved by the duality identity G D C^T = D. That route
must agree with the adjugate route that any other fan takes. A seed that
fails the identity is no seed of a cluster pattern: it is rejected, as a
start seed and inside the BFS, and no fan is built from it."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanforge import clusterfan, polyhedra
from fanforge.arquiver import DynkinQuiver, dynkin_tree_edges
from fanforge.clusterfan import (
    Seed,
    all_triangulations,
    enumerate_fan,
    initial_seed,
    mutate_seed,
    seed_from_triangulation,
)
from fanforge.exchange import verify_mutation_theorem
from fanforge.linalg import dot
from fanforge.polyhedra import Fan
from fanforge.typecone import type_cone, wall_dependency, walls

SIMPLY_LACED = [("A", n) for n in range(1, 7)] + [("D", 4), ("D", 5), ("D", 6), ("E", 6)]
# Dynkin trees with a multiple edge, as (i, j, |b_ij|, |b_ji|): their
# symmetrizers are not I
MULTIPLE_EDGE_TREES = {
    "B2": [(0, 1, 1, 2)],
    "G2": [(0, 1, 1, 3)],
    "B3": [(0, 1, 1, 1), (1, 2, 1, 2)],
    "C3": [(0, 1, 1, 1), (1, 2, 2, 1)],
    "B4": [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 2)],
    "C4": [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 2, 1)],
    "F4": [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)],
}


def _tree_exchange_matrix(edges, flips):
    n = len(edges) + 1
    b = [[0] * n for _ in range(n)]
    for (i, j, a, a2), flip in zip(edges, flips):
        sign = -1 if flip else 1
        b[i][j], b[j][i] = sign * a, -sign * a2
    return b


@st.composite
def bfs_starts(draw):
    """(seed, triangulation) for the BFS: a random orientation of A1-A6,
    D4-D6 or E6, of B2-B4, C3, C4, F4 or G2, or a random triangulation of
    a 5- to 8-gon (tracked), then a random walk of mutations, so the start
    seed's g- and c-vectors need not be the identity."""
    kind = draw(st.sampled_from(SIMPLY_LACED + sorted(MULTIPLE_EDGE_TREES) + ["polygon"]))
    if kind == "polygon":
        tris = all_triangulations(draw(st.integers(min_value=5, max_value=8)))
        tri = tris[draw(st.integers(min_value=0, max_value=len(tris) - 1))]
        return seed_from_triangulation(tri), tri
    if kind in MULTIPLE_EDGE_TREES:
        edges = MULTIPLE_EDGE_TREES[kind]
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        b = _tree_exchange_matrix(edges, flips)
    else:
        edges = dynkin_tree_edges(*kind)
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        arrows = [(t, s) if flip else (s, t) for (s, t), flip in zip(edges, flips)]
        b = DynkinQuiver(*kind, arrows).exchange_matrix()
    seed = initial_seed(b)
    for k in draw(st.lists(st.integers(min_value=0, max_value=seed.rank - 1), max_size=6)):
        seed = mutate_seed(seed, k)
    return seed, None


def _adjugate_route(fan):
    """The same fan, which computes its cone data with _adjugate_int."""
    return Fan(fan.dim, fan.rays, fan.maximal_cones, fan.labels)


def _rows(data):
    return [([list(row) for row in adj], det) for adj, det in data]


@settings(max_examples=40, deadline=None)
@given(bfs_starts())
def test_handed_over_inverses_equal_the_adjugate_route(start):
    """The BFS's handed-over cone inverses equal the _adjugate_int route,
    and so do the wall dependencies, mutation-theorem reports and type
    cones built from them, and every wall normal annihilates the rays. With
    test_wall_dependency_matches_the_kernel_route this holds the only check
    of that identity: type_cone and verify_mutation_theorem do not re-derive
    it at run time."""
    seed, tri = start
    enum = enumerate_fan(seed, triangulation=tri)
    fan, fresh = enum.fan, _adjugate_route(enum.fan)
    assert fan._cone_inverses is not None
    assert _rows(fan._cone_data()) == fresh._cone_data()
    assert fan.validate() and fresh.validate()
    assert verify_mutation_theorem(fan, enum.graph) == verify_mutation_theorem(fresh, enum.graph)
    normals = [wall_dependency(fan, w).normal for w in walls(fan)]
    assert normals == [wall_dependency(fresh, w).normal for w in walls(fresh)]
    assert all(dot(v, col) == 0 for v in normals for col in zip(*fan.rays))
    if fan.dim <= 5:
        assert type_cone(fan).facets == type_cone(fresh).facets


A2_B = ((0, 1), (-1, 0))
B3_B = ((0, 1, 0), (-2, 0, 1), (0, -1, 0))
D4_B = ((0, 1, 0, 0), (-1, 0, -1, -1), (0, 1, 0, 0), (0, 1, 0, 0))


@pytest.mark.parametrize("b", [A2_B, B3_B, D4_B], ids=["A2", "B3", "D4"])
def test_a_start_seed_that_fails_the_identity_is_rejected(b):
    """Unitriangular g-vectors over the identity c-vectors: unimodular,
    but not dual, so no seed of a cluster pattern."""
    n = len(b)
    g = tuple(tuple(int(i <= j) for j in range(n)) for i in range(n))
    with pytest.raises(ValueError, match="unimodular"):
        Seed(b, g, initial_seed(b).c_vectors)


@pytest.mark.parametrize("b", [A2_B, B3_B, D4_B], ids=["A2", "B3", "D4"])
def test_one_seed_without_the_identity_stops_the_hand_over(monkeypatch, b):
    """A seed the BFS reaches that fails its identity stops the BFS with
    the seed's ValueError: there is no second proof to fall back on."""
    dual, calls = clusterfan._dual, []

    def third_seed_fails(*args):
        calls.append(args)
        return dual(*args) and len(calls) != 3

    monkeypatch.setattr(clusterfan, "_dual", third_seed_fails)
    with pytest.raises(ValueError, match="unimodular"):
        enumerate_fan(initial_seed(b))
    assert len(calls) == 3


@pytest.mark.parametrize("kind", [("D", 5), ("E", 6)], ids=["D5", "E6"])
def test_bfs_and_validate_take_no_determinant_and_no_adjugate(monkeypatch, kind):
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(polyhedra, "det_int", counted("det_int", polyhedra.det_int))
    adjugate = counted("_adjugate_int", polyhedra._adjugate_int)
    monkeypatch.setattr(polyhedra, "_adjugate_int", adjugate)
    fan = enumerate_fan(initial_seed(DynkinQuiver(*kind).exchange_matrix())).fan
    assert fan.validate()
    assert calls == Counter()
    # the same counters see each cone of a fan that was handed nothing
    assert _adjugate_route(fan).validate()
    cones = len(fan.maximal_cones)
    assert calls == Counter(det_int=cones, _adjugate_int=cones)
