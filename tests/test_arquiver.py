import itertools
import random
from fractions import Fraction

import pytest

from fanforge.arquiver import (
    DynkinQuiver,
    abhy_functionals,
    abhy_polytope,
    dynkin_tree_edges,
    injective_dims,
    knit_ar_quiver,
    linear_quiver,
)
from fanforge.errors import NonPositiveParameter
from fanforge.polyhedra import normal_fan, fan_eq, vertices


def test_projective_injective_dims_a2():
    q = linear_quiver(2)  # 1 <- 2
    assert injective_dims(q) == {1: (1, 1), 2: (0, 1)}


def test_knit_a1():
    ar = knit_ar_quiver(linear_quiver(1))
    assert ar.n_vertices == 2
    assert len(ar.meshes) == 1
    assert ar.meshes[0].middles == ()


def test_knit_a2_window():
    ar = knit_ar_quiver(linear_quiver(2))
    assert ar.n_vertices == 5
    assert len(ar.meshes) == 3
    by_label = {ar.vertex_label(i): ar.vertices[i] for i in range(5)}
    assert set(by_label) == {"q_{1 3}", "q_{1 4}", "q_{2 4}", "q_{2 5}", "q_{3 5}"}
    assert by_label["q_{1 3}"].dim_vector == (-1, -1)  # I_1 shifted
    assert by_label["q_{1 4}"].dim_vector == (0, -1)  # I_2 shifted
    assert by_label["q_{2 4}"].dim_vector == (1, 0)  # P_1
    assert by_label["q_{2 5}"].dim_vector == (1, 1)  # P_2 = I_1
    assert by_label["q_{3 5}"].dim_vector == (0, 1)  # I_2
    assert by_label["q_{2 4}"].kind == "module"
    assert by_label["q_{1 3}"].kind == "shifted_injective"


def test_knit_a3_counts():
    for orientation in (None, ((1, 2), (3, 2)), ((2, 1), (2, 3))):
        ar = knit_ar_quiver(DynkinQuiver("A", 3, orientation))
        assert ar.n_vertices == 9
        assert len(ar.meshes) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_type_a_counting_laws_all_orientations(n):
    # linear plus an alternating orientation for every rank
    orientations = [None]
    if n >= 2:
        alt = tuple(
            (i, i + 1) if i % 2 else (i + 1, i) for i in range(1, n)
        )
        orientations.append(alt)
    for o in orientations:
        ar = knit_ar_quiver(DynkinQuiver("A", n, o))
        assert ar.n_vertices == n * (n + 3) // 2
        assert len(ar.meshes) == n * (n + 1) // 2


def test_a3_module_dims_are_positive_roots():
    ar = knit_ar_quiver(linear_quiver(3))
    module_dims = {v.dim_vector for v in ar.vertices if v.kind == "module"}
    assert module_dims == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (1, 1, 1),
    }


def test_knit_d4_counts():
    ar = knit_ar_quiver(DynkinQuiver("D", 4))
    assert ar.n_vertices == 16  # n^2 for type D
    assert len(ar.meshes) == 12  # positive roots of D4


def test_knit_d5_counts():
    ar = knit_ar_quiver(DynkinQuiver("D", 5))
    assert ar.n_vertices == 25
    assert len(ar.meshes) == 20


def test_knit_e_counts():
    # type E knits like A and D: one vertex per positive root and per
    # shifted injective, one mesh per positive root
    for rank, roots in [(6, 36), (7, 63), (8, 120)]:
        ar = knit_ar_quiver(DynkinQuiver("E", rank))
        assert ar.n_vertices == roots + rank
        assert len(ar.meshes) == roots


def test_mesh_additivity_signed():
    for quiver in (linear_quiver(4), DynkinQuiver("D", 4), DynkinQuiver("A", 4, ((1, 2), (3, 2), (3, 4)))):
        ar = knit_ar_quiver(quiver)
        for mesh in ar.meshes:
            q = ar.vertices[mesh.start].dim_vector
            t = ar.vertices[mesh.end].dim_vector
            mids = [ar.vertices[m].dim_vector for m in mesh.middles]
            total = tuple(sum(m[i] for m in mids) for i in range(quiver.rank))
            assert tuple(a + b for a, b in zip(q, t)) == total


def test_mesh_equations_a2_golden():
    ar = knit_ar_quiver(linear_quiver(2))
    eqs = ar.meshes
    rendered = {
        (
            ar.vertex_label(m.start),
            tuple(sorted(ar.vertex_label(x) for x in m.middles)),
            ar.vertex_label(m.end),
            ar.mesh_param_label(m),
        )
        for m in eqs
    }
    assert rendered == {
        ("q_{1 3}", ("q_{1 4}",), "q_{2 4}", "c_{2 4}"),
        ("q_{1 4}", ("q_{2 4}",), "q_{2 5}", "c_{2 5}"),
        ("q_{2 4}", ("q_{2 5}",), "q_{3 5}", "c_{3 5}"),
    }


def test_mesh_equations_a3_pattern():
    # q_{i j} + q_{i+1 j+1} = q_{i j+1} + q_{i+1 j} + c_{i+1 j+1}
    ar = knit_ar_quiver(linear_quiver(3))
    for m in ar.meshes:
        i, j = _parse(ar.vertex_label(m.start))
        assert _parse(ar.vertex_label(m.end)) == (i + 1, j + 1)
        mids = sorted(_parse(ar.vertex_label(x)) for x in m.middles)
        expected = sorted(p for p in [(i, j + 1), (i + 1, j)] if _valid_coord(p, 3))
        assert mids == expected
        assert _parse(ar.mesh_param_label(m).replace("c_", "q_")) == (i + 1, j + 1)


def _parse(label):
    inner = label.split("{")[1].rstrip("}")
    i, j = inner.split()
    return int(i), int(j)


def _valid_coord(p, n):
    i, j = p
    return 1 <= i <= j - 2 <= n + 1 and not (i == 1 and j == n + 3)


def test_mesh_equation_a1_no_middles():
    ar = knit_ar_quiver(linear_quiver(1))
    (mesh,) = ar.meshes
    assert mesh.middles == ()


def test_abhy_functionals_a2_golden():
    ar = knit_ar_quiver(linear_quiver(2))
    funcs = abhy_functionals(ar)
    label_of = {ar.vertex_label(i): i for i in range(5)}
    c_label = {ar.mesh_param_label(m): ci for ci, m in enumerate(ar.meshes)}

    def func(name):
        f = funcs[label_of[name]]
        mesh_part = {
            label: f.mesh_coeffs[ci] for label, ci in c_label.items() if f.mesh_coeffs[ci]
        }
        proj_part = {
            ar.vertex_label(ar.projection_vertices[j]): f.proj_coeffs[j]
            for j in range(2)
            if f.proj_coeffs[j]
        }
        return mesh_part, proj_part

    assert func("q_{1 3}") == ({"c_{2 4}": 1, "c_{2 5}": 1}, {"q_{2 5}": -1})
    assert func("q_{1 4}") == ({"c_{2 5}": 1, "c_{3 5}": 1}, {"q_{3 5}": -1})
    assert func("q_{2 4}") == ({"c_{3 5}": 1}, {"q_{2 5}": 1, "q_{3 5}": -1})
    assert func("q_{2 5}") == ({}, {"q_{2 5}": 1})
    assert func("q_{3 5}") == ({}, {"q_{3 5}": 1})


def test_functionals_satisfy_mesh_equations_symbolically():
    for quiver in (linear_quiver(3), DynkinQuiver("A", 3, ((1, 2), (3, 2))), DynkinQuiver("D", 4)):
        ar = knit_ar_quiver(quiver)
        funcs = abhy_functionals(ar)
        n_mesh = len(ar.meshes)
        for ci, mesh in enumerate(ar.meshes):
            lhs_mesh = [
                funcs[mesh.start].mesh_coeffs[i] + funcs[mesh.end].mesh_coeffs[i]
                for i in range(n_mesh)
            ]
            rhs_mesh = [
                sum(funcs[m].mesh_coeffs[i] for m in mesh.middles) for i in range(n_mesh)
            ]
            rhs_mesh[ci] += 1
            assert lhs_mesh == rhs_mesh
            lhs_proj = [
                funcs[mesh.start].proj_coeffs[i] + funcs[mesh.end].proj_coeffs[i]
                for i in range(quiver.rank)
            ]
            rhs_proj = [
                sum(funcs[m].proj_coeffs[i] for m in mesh.middles)
                for i in range(quiver.rank)
            ]
            assert lhs_proj == rhs_proj


def test_abhy_polytope_a2():
    ar = knit_ar_quiver(linear_quiver(2))
    poly = abhy_polytope(ar, (1, 1, 1))
    expected = {
        ((1, 0), Fraction(2)),
        ((0, 1), Fraction(2)),
        ((-1, 1), Fraction(1)),
        ((-1, 0), Fraction(0)),
        ((0, -1), Fraction(0)),
    }
    got = {
        (tuple(int(x) for x in row), b)
        for row, b in zip(poly.ineq_matrix, poly.bounds)
    }
    assert got == expected
    assert set(vertices(poly).vertices) == {(0, 0), (2, 0), (2, 2), (1, 2), (0, 1)}


def test_abhy_polytope_a1_segment():
    ar = knit_ar_quiver(linear_quiver(1))
    poly = abhy_polytope(ar, (1,))
    assert set(vertices(poly).vertices) == {(0,), (1,)}


def test_singular_system_on_corrupted_quiver():
    from fanforge.errors import SingularSystem

    ar = knit_ar_quiver(linear_quiver(2))
    broken = ar._replace(meshes=ar.meshes + (ar.meshes[0],))
    with pytest.raises(SingularSystem):
        abhy_functionals(broken)


def test_abhy_polytope_rejects_nonpositive_c():
    ar = knit_ar_quiver(linear_quiver(2))
    with pytest.raises(NonPositiveParameter):
        abhy_polytope(ar, (1, 0, 1))
    with pytest.raises(NonPositiveParameter):
        abhy_polytope(ar, (1, 1, -2))


def test_abhy_normal_fan_independent_of_c():
    for quiver in (linear_quiver(2), linear_quiver(3), DynkinQuiver("A", 3, ((1, 2), (3, 2)))):
        ar = knit_ar_quiver(quiver)
        n_mesh = len(ar.meshes)
        c1 = [1] * n_mesh
        c2 = [Fraction(j % 3 + 1, 2) for j in range(n_mesh)]
        f1 = normal_fan(vertices(abhy_polytope(ar, c1)))
        f2 = normal_fan(vertices(abhy_polytope(ar, c2)))
        assert fan_eq(f1, f2)


@pytest.mark.parametrize(
    "orientation",
    [None, ((1, 2), (3, 2), (4, 2)), ((2, 1), (2, 3), (2, 4)), ((1, 2), (2, 3), (4, 2))],
)
def test_abhy_normal_fan_matches_mutation_fan_d4(orientation):
    # mesh-equation route and seed-mutation route agree beyond type A
    q = DynkinQuiver("D", 4, orientation)
    ar = knit_ar_quiver(q)
    vp = vertices(abhy_polytope(ar, [1] * len(ar.meshes)))
    assert len(vp.vertices) == 50  # clusters of the rank-4 D fan

    from fanforge.clusterfan import enumerate_fan, initial_seed

    b = [[0] * 4 for _ in range(4)]
    for s, t in q.orientation:
        b[t - 1][s - 1] += 1
        b[s - 1][t - 1] -= 1
    enum = enumerate_fan(initial_seed(b))
    assert len(enum.fan.maximal_cones) == 50
    assert fan_eq(normal_fan(vp), enum.fan)


def _orientations(type_, rank):
    """Every orientation of the Dynkin tree (only the linear one for E)."""
    if type_ == "E":
        return [None]
    edges = dynkin_tree_edges(type_, rank)
    return [
        tuple((b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips))
        for flips in itertools.product((False, True), repeat=len(edges))
    ]


def _g_vector(quiver, d, sign=1, arrows=DynkinQuiver.arrows_out):
    """sign * (sum of d_b over the arrows i -> b, less d_i) for each i."""
    return tuple(
        sign * (sum(d[b - 1] for b in arrows(quiver, i)) - d[i - 1])
        for i in range(1, quiver.rank + 1)
    )


# every orientation of D4 (8) and D5 (16), and linear E6
@pytest.mark.parametrize(
    "type_, rank, orientation",
    [
        pytest.param("D", rank, o, id=f"D{rank}-{k}")
        for rank in (4, 5)
        for k, o in enumerate(_orientations("D", rank))
    ]
    + [pytest.param("E", 6, None, id="E6")],
)
def test_abhy_polytope_is_q_c_beyond_type_a(type_, rank, orientation):
    # criterion 6 off type A: the classes map onto the g-vector rays, the
    # knitted mesh rows are the type cone facets, and the ABHY polytope for
    # c is Q_c for c carried from the meshes to the facets
    from fanforge.clusterfan import enumerate_fan, initial_seed
    from fanforge.linalg import primitive
    from fanforge.polyhedra import realization
    from fanforge.typecone import qc_polytope, type_cone

    q = DynkinQuiver(type_, rank, orientation)
    ar = knit_ar_quiver(q)
    fan = enumerate_fan(initial_seed(q.exchange_matrix())).fan
    exact = [
        (sign, arrows)
        for sign in (1, -1)
        for arrows in (DynkinQuiver.arrows_out, DynkinQuiver.arrows_in)
        if sorted(_g_vector(q, v.dim_vector, sign, arrows) for v in ar.vertices) == sorted(fan.rays)
    ]
    assert exact == [(1, DynkinQuiver.arrows_out)]
    position = {ray: i for i, ray in enumerate(fan.rays)}
    ray_of = [position[_g_vector(q, v.dim_vector)] for v in ar.vertices]

    tc = type_cone(fan)
    mesh_rows = []
    for mesh in ar.meshes:
        row = [0] * fan.n_rays
        row[ray_of[mesh.start]] += 1
        row[ray_of[mesh.end]] += 1
        for m in mesh.middles:
            row[ray_of[m]] -= 1
        mesh_rows.append(primitive(row))
    assert sorted(mesh_rows) == sorted(tc.facets) and len(set(mesh_rows)) == len(mesh_rows)

    rng = random.Random(7)
    seeded = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in ar.meshes]
    proj = [ray_of[v] for v in ar.projection_vertices]
    for c in ([1] * len(ar.meshes), seeded):
        by_facet = dict(zip(mesh_rows, c))
        poly, cert = qc_polytope(fan, tc, [by_facet[f] for f in tc.facets])
        slack = [cert.slack(x) for x in realization(fan, poly.bounds).vertices]
        assert all(min(s) >= 0 for s in slack)
        mapped = {tuple(s[r] for r in proj) for s in slack}
        assert mapped == set(vertices(abhy_polytope(ar, c)).vertices)


@pytest.mark.parametrize(
    "type_, rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("E", 6)]
)
def test_projection_vertices_and_kinds_every_orientation(type_, rank):
    # abhy_functionals' coordinates are the classes of I_1, ..., I_n in order
    for orientation in _orientations(type_, rank):
        q = DynkinQuiver(type_, rank, orientation)
        ar = knit_ar_quiver(q)
        idims = injective_dims(q)
        for j in range(1, rank + 1):
            assert ar.vertices[ar.projection_vertices[j - 1]].dim_vector == idims[j]
        shifted = [v for v in ar.vertices if v.kind == "shifted_injective"]
        assert shifted == [v for v in ar.vertices if min(v.dim_vector) < 0]
        assert sorted(v.dim_vector for v in shifted) == sorted(
            tuple(-x for x in idims[j]) for j in range(1, rank + 1)
        )



@pytest.mark.parametrize("type_, rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_exchange_matrix_has_one_signed_pair_per_arrow(type_, rank):
    # arrow s -> t gives b_ts = 1 and b_st = -1; every other entry is 0
    edges = set(dynkin_tree_edges(type_, rank))
    for orientation in _orientations(type_, rank):
        q = DynkinQuiver(type_, rank, orientation)
        b = q.exchange_matrix()
        assert all(b[i][j] == -b[j][i] for i in range(rank) for j in range(rank))
        pairs = {(i + 1, j + 1) for i in range(rank) for j in range(i + 1, rank) if b[i][j]}
        assert pairs == edges
        assert all((b[t - 1][s - 1], b[s - 1][t - 1]) == (1, -1) for s, t in q.orientation)


def test_ar_json_shape():
    import json

    ar = knit_ar_quiver(linear_quiver(2))
    data = json.loads(ar.to_json())
    assert len(data["vertices"]) == 5
    assert {v["label"] for v in data["vertices"]} == {"module", "shifted_injective"}
    assert len(data["meshes"]) == 3
    assert all(set(m) == {"start", "middles", "end"} for m in data["meshes"])
