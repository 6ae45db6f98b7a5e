import pytest

from fanforge.clusterfan import (
    ExchangeGraph,
    Triangulation,
    all_triangulations,
    enumerate_fan,
    initial_seed,
    is_diagonal,
    seed_from_triangulation,
)
from fanforge.exchange import (
    _corner_cuts,
    all_diagonals,
    relative_ar_meshes,
    rotated,
    verify_mutation_theorem,
)
from fanforge.linalg import primitive
from fanforge.polyhedra import Fan
from fanforge.typecone import type_cone, walls


def fan_triangulation(polygon):
    return Triangulation(polygon, [(1, j) for j in range(3, polygon)])


def test_diagonal_validation():
    assert not is_diagonal((1, 2), 6)
    assert not is_diagonal((1, 6), 6)
    assert is_diagonal((1, 4), 6)
    for m in (4, 5, 6, 7, 8):
        for a in range(1, m + 1):
            for b in range(a + 1, m + 1):
                assert is_diagonal((a, b), m) == (min(b - a, m - (b - a)) >= 2)
    for adjacent in [(1, 2), (1, 6), (6, 1)]:
        with pytest.raises(ValueError, match="adjacent"):
            Triangulation(6, [adjacent, (1, 3), (1, 4)])
    assert Triangulation(6, [(4, 1), (1, 3), (5, 1)]).diagonals == ((1, 3), (1, 4), (1, 5))


def test_diagonal_count():
    for m in (4, 5, 6, 7, 8):
        n = m - 3
        assert len(all_diagonals(m)) == n * (n + 3) // 2


def test_rotation_has_polygon_order():
    for m in (5, 6, 7):
        for d in all_diagonals(m):
            cur = d
            for _ in range(m):
                cur = rotated(cur, m)
                assert is_diagonal(cur, m)
            assert cur == d


def test_middles_never_contain_endpoints():
    for m in (5, 6, 7):
        for d in all_diagonals(m):
            mids = _corner_cuts(d, m)
            assert 1 <= len(mids) <= 2
            assert all(is_diagonal(mid, m) for mid in mids)
            assert d not in mids
            assert rotated(d, m) not in mids


def test_relative_meshes_a1():
    tri = fan_triangulation(4)
    enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
    meshes = relative_ar_meshes(tri, enum)
    assert len(meshes) == 1
    (mesh,) = meshes
    assert mesh.middles == ()
    assert sorted(mesh.normal) == [1, 1]  # h_L + h_{tau L}, no middles


def test_relative_meshes_a2_match_type_cone_facets():
    tri = fan_triangulation(5)
    enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
    meshes = relative_ar_meshes(tri, enum)
    assert len(meshes) == 3
    normals = {primitive(m.normal) for m in meshes}
    facets = set(type_cone(enum.fan).facets)
    assert normals == facets


@pytest.mark.parametrize("polygon", [5, 6, 7])
def test_relative_meshes_match_facets_many_triangulations(polygon):
    for tri in all_triangulations(polygon)[:3]:
        enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
        meshes = relative_ar_meshes(tri, enum)
        n = polygon - 3
        assert len(meshes) == enum.fan.n_rays - n
        normals = {primitive(m.normal) for m in meshes}
        assert normals == set(type_cone(enum.fan).facets)


def test_excluded_meshes_end_at_initial_diagonals():
    tri = fan_triangulation(6)
    enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
    kept = relative_ar_meshes(tri, enum)
    kept_ends = {m.end for m in kept}
    assert kept_ends.isdisjoint(set(tri.diagonals))


def test_verify_mutation_theorem_a2():
    enum = enumerate_fan(initial_seed([[0, 1], [-1, 0]]))
    report = verify_mutation_theorem(enum.fan, enum.graph)
    assert report["holds"]
    assert report["walls_checked"] == 5
    assert report["walls_with_unit_coefficients"] == 5
    assert len(enum.graph.nodes) == 5 and report["regular"] and report["connected"]


def test_verify_mutation_theorem_a3():
    enum = enumerate_fan(initial_seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]))
    report = verify_mutation_theorem(enum.fan, enum.graph)
    assert report["holds"]
    assert len(enum.graph.nodes) == 14
    assert report["uerp"]


def test_verify_mutation_theorem_a1():
    enum = enumerate_fan(initial_seed([[0]]))
    report = verify_mutation_theorem(enum.fan, enum.graph)
    assert report["holds"]
    assert report["walls_checked"] == 1


def test_relative_meshes_need_the_enumeration_they_check():
    # the meshes run no BFS of their own
    with pytest.raises(TypeError):
        relative_ar_meshes(fan_triangulation(5))


def test_relative_meshes_reject_an_enumeration_from_another_triangulation():
    start = Triangulation(6, [(1, 3), (1, 4), (1, 5)])
    enum = enumerate_fan(seed_from_triangulation(start), triangulation=start)
    with pytest.raises(ValueError, match="not started at this triangulation"):
        relative_ar_meshes(Triangulation(6, [(2, 4), (2, 5), (2, 6)]), enum)
    untracked = enumerate_fan(seed_from_triangulation(start))
    with pytest.raises(ValueError, match="not started at this triangulation"):
        relative_ar_meshes(start, untracked)


def test_verify_mutation_theorem_rejects_a_half_integer_exchange_relation():
    # Equator square and two poles; across the wall spanned by (1,1,0) and
    # (1,-1,0) the poles satisfy r + r' = (1,0,0) = s1/2 + s2/2, a unit wall
    # whose coefficients are not integers (its cones have determinant 2).
    rays = [(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0), (1, 0, 1), (0, 0, -1)]
    cones = [(i, (i + 1) % 4, pole) for pole in (4, 5) for i in range(4)]
    fan = Fan(3, rays, cones)
    fan.validate()
    edges = tuple((w.cone_a, w.cone_b, w.exchanged) for w in walls(fan))
    report = verify_mutation_theorem(fan, ExchangeGraph(fan.maximal_cones, edges))
    assert report["regular"] and report["connected"] and report["unique_complement"]
    assert report["walls_with_unit_coefficients"] > 0
    assert not report["exchange_relations_integral"]
    assert not report["holds"]
