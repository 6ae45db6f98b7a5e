import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanforge.arquiver import DynkinQuiver, dynkin_tree_edges
from fanforge.clusterfan import (
    Triangulation,
    all_triangulations,
    enumerate_fan,
    initial_seed,
    mutate_seed,
    seed_from_triangulation,
)
from fanforge.errors import (
    DegenerateWall,
    InconsistentSystem,
    NonPositiveParameter,
    NotSimplicial,
)
from fanforge.linalg import dot, primitive, solve
from fanforge.polyhedra import Fan, HPolytope, fan_eq, normal_fan, p_h, vertices
from fanforge.typecone import (
    qc_polytope,
    type_cone,
    type_cone_from_json,
    unique_exchange_check,
    wall_dependency,
    walls,
)
from test_linalg import kernel_basis, rank


def a2_fan():
    rays = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    return Fan(2, rays, cones)


def a1_fan():
    return Fan(1, [(1,), (-1,)], [(0,), (1,)])


def quadrant_fan():
    return Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])


def perturbed_orthant_fan():
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, -1), (1, 0, 1)]
    cones = [
        (0, 2, 5), (0, 3, 5), (1, 2, 5), (1, 3, 5),
        (0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4),
    ]
    return Fan(3, rays, cones)


def test_walls_a1():
    ws = walls(a1_fan())
    assert len(ws) == 1
    assert ws[0].shared == ()
    assert set(ws[0].exchanged) == {0, 1}


def test_walls_a2():
    assert len(walls(a2_fan())) == 5


def test_walls_quadrant():
    assert len(walls(quadrant_fan())) == 4


def test_wall_dependency_a1():
    fan = a1_fan()
    (w,) = walls(fan)
    dep = wall_dependency(fan, w)
    assert dep.alpha == 1 and dep.alpha_prime == 1
    assert dep.middle_coeffs == {}


def test_wall_dependency_a2_example():
    fan = a2_fan()
    target = next(
        w for w in walls(fan) if {fan.rays[w.exchanged[0]], fan.rays[w.exchanged[1]]} == {(1, 0), (-1, 1)}
    )
    dep = wall_dependency(fan, target)
    assert dep.alpha == 1 and dep.alpha_prime == 1
    (shared_ray,) = target.shared
    assert fan.rays[shared_ray] == (0, 1)
    assert dep.middle_coeffs == {shared_ray: 1}


def test_wall_dependency_quadrant_zero_middle():
    fan = quadrant_fan()
    target = next(
        w for w in walls(fan) if {fan.rays[w.exchanged[0]], fan.rays[w.exchanged[1]]} == {(1, 0), (-1, 0)}
    )
    dep = wall_dependency(fan, target)
    assert dep.alpha == 1 and dep.alpha_prime == 1
    assert list(dep.middle_coeffs.values()) == [0]


def test_dependency_exactness_and_normalization():
    for fan in (a2_fan(), quadrant_fan(), enumerate_fan(initial_seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])).fan):
        for w in walls(fan):
            dep = wall_dependency(fan, w)
            assert dep.alpha + dep.alpha_prime == 2
            assert dep.alpha > 0 and dep.alpha_prime > 0
            lhs = [
                dep.alpha * x + dep.alpha_prime * y
                for x, y in zip(fan.rays[w.exchanged[0]], fan.rays[w.exchanged[1]])
            ]
            rhs = [
                sum(dep.middle_coeffs[s] * fan.rays[s][i] for s in w.shared)
                for i in range(fan.dim)
            ]
            assert lhs == rhs


def test_degenerate_wall_errors():
    from fanforge.errors import DegenerateWall
    from fanforge.typecone import Wall

    fan = a2_fan()
    # exchanged rays on the same side of the shared hyperplane
    with pytest.raises(DegenerateWall):
        wall_dependency(fan, Wall(0, 1, (2,), (0, 1)))
    # too many shared rays: kernel dimension exceeds one
    with pytest.raises(DegenerateWall):
        wall_dependency(fan, Wall(0, 1, (2, 3), (0, 1)))


def kernel_route_dependency(fan, wall):
    """Oracle: the wall dependency as the one kernel vector of the matrix
    with columns r, r' and the shared rays, scaled to alpha + alpha' = 2.
    Returns (alpha, alpha', middle coefficients)."""
    cols = [wall.exchanged[0], wall.exchanged[1], *wall.shared]
    kernel = kernel_basis([[fan.rays[c][i] for c in cols] for i in range(fan.dim)])
    if len(kernel) != 1:
        raise DegenerateWall(f"kernel dimension {len(kernel)}")
    alpha, alpha_prime = kernel[0][0], kernel[0][1]
    if alpha == 0 or alpha_prime == 0 or (alpha > 0) != (alpha_prime > 0):
        raise DegenerateWall("exchanged rays on one side")
    vec = [Fraction(2 * x, alpha + alpha_prime) for x in kernel[0]]
    return vec[0], vec[1], {s: -vec[2 + i] for i, s in enumerate(wall.shared)}


MUTATION_SEEDS = [
    [[0, 1], [-1, 0]],
    [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
    [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
    [[0, 1, 0, 0], [-1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0]],
    [[0, 1, 0], [-2, 0, 1], [0, -1, 0]],
    [[0, 1], [-3, 0]],
]


@st.composite
def dependency_fans(draw):
    """g-vector fans of randomly mutated A2-A4, D4, B3 and G2 seeds, or
    normal fans of random box-clipped polygons, whose cones need not be
    unimodular."""
    if draw(st.booleans()):
        seed = initial_seed(draw(st.sampled_from(MUTATION_SEEDS)))
        for k in draw(st.lists(st.integers(min_value=0, max_value=seed.rank - 1), max_size=5)):
            seed = mutate_seed(seed, k)
        return enumerate_fan(initial_seed(seed.b_matrix)).fan
    coeff = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.tuples(coeff, coeff), max_size=5))
    rows += [(1, 0), (-1, 0), (0, 1), (0, -1)]
    bounds = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=len(rows), max_size=len(rows)))
    return normal_fan(vertices(HPolytope(rows, bounds)))


@settings(max_examples=60, deadline=None)
@given(dependency_fans())
def test_wall_dependency_matches_the_kernel_route(fan):
    """wall_dependency equals an independent kernel computation, and its
    normal annihilates every column of G. Neither type_cone nor
    verify_mutation_theorem re-derives that identity from the rays at run
    time, so this test and
    test_cone_inverses.py::test_handed_over_inverses_equal_the_adjugate_route
    hold the only check of it."""
    for w in walls(fan):
        dep = wall_dependency(fan, w)
        assert (dep.alpha, dep.alpha_prime, dep.middle_coeffs) == kernel_route_dependency(fan, w)
        assert list(dep.middle_coeffs) == list(w.shared)
        values = (dep.alpha, dep.alpha_prime, *dep.middle_coeffs.values())
        assert all(type(x) is Fraction for x in values)
        v, (r, r2) = dep.normal, w.exchanged
        assert gcd(*v) == 1
        assert all(dot(v, col) == 0 for col in zip(*fan.rays))
        assert v[r] > 0 and v[r2] > 0
        assert all(x == 0 for i, x in enumerate(v) if i not in (r, r2, *w.shared))


def fraction_dependency_vector(fan, dep):
    """The dependency as a Fraction functional on all N rays, rebuilt from
    its normalized coefficients: alpha at r, alpha' at r', -alpha_s at the
    shared rays, zero elsewhere."""
    vec = [Fraction(0)] * fan.n_rays
    vec[dep.wall.exchanged[0]] = dep.alpha
    vec[dep.wall.exchanged[1]] = dep.alpha_prime
    for s, coeff in dep.middle_coeffs.items():
        vec[s] = -coeff
    return tuple(vec)


@st.composite
def mutated_fans(draw):
    """g-vector fans of randomly mutated A3, A4, D4 and B3 seeds."""
    seed = initial_seed(draw(st.sampled_from(MUTATION_SEEDS[1:5])))
    for k in draw(st.lists(st.integers(min_value=0, max_value=seed.rank - 1), max_size=5)):
        seed = mutate_seed(seed, k)
    return enumerate_fan(initial_seed(seed.b_matrix)).fan


@settings(max_examples=30, deadline=None)
@given(mutated_fans())
def test_dependency_vector_is_the_primitive_normalized_dependency(fan):
    for w in walls(fan):
        dep = wall_dependency(fan, w)
        assert dep.normal == primitive(fraction_dependency_vector(fan, dep))


def fraction_unique_exchange_check(fan):
    """Test oracle: the unique exchange check on normalized Fraction
    vectors, comparing and reporting them as they are."""
    groups = {}
    for w in walls(fan):
        dep = wall_dependency(fan, w)
        groups.setdefault(tuple(sorted(w.exchanged)), []).append(dep)
    violations = []
    weak_disagrees = False
    for key in sorted(groups):
        deps = groups[key]
        vectors = [fraction_dependency_vector(fan, d) for d in deps]
        if len(set(vectors)) == 1:
            continue
        weak_ok = True
        for i in range(len(deps)):
            for j in range(i + 1, len(deps)):
                support = set(key)
                support |= set(deps[i].wall.shared) & set(deps[j].wall.shared)
                if any(vectors[i][s] != vectors[j][s] for s in support):
                    weak_ok = False
        if weak_ok:
            weak_disagrees = True
        violations.append(
            {
                "exchanged": key,
                "wall_count": len(deps),
                "distinct_dependencies": len(set(vectors)),
                "walls": [(d.wall.cone_a, d.wall.cone_b) for d in deps],
                "vectors": [[str(x) for x in v] for v in sorted(set(vectors))],
                "weak_reading_agrees": weak_ok,
            }
        )
    return {
        "holds": not violations,
        "violations": violations,
        "weak_vs_strict_disagreement": weak_disagrees,
    }


@st.composite
def suspension_fans(draw):
    """Complete rank-3 fans: four equator rays in the plane z = 0, one per
    quarter-turn sector so they run in cyclic order, a random pole above
    and one below, and the 8 cones spanned by an adjacent equator pair and
    a pole."""
    coord = st.integers(min_value=-3, max_value=3)
    equator = []
    for turn in range(4):
        x = draw(st.integers(min_value=1, max_value=4))
        y = draw(st.integers(min_value=0, max_value=4))
        for _ in range(turn):
            x, y = -y, x
        equator.append((x, y, 0))
    north = (draw(coord), draw(coord), draw(st.integers(min_value=1, max_value=3)))
    south = (draw(coord), draw(coord), draw(st.integers(min_value=-3, max_value=-1)))
    cones = [(i, (i + 1) % 4, pole) for i in range(4) for pole in (4, 5)]
    return Fan(3, equator + [north, south], cones)


@settings(max_examples=80, deadline=None)
@example(perturbed_orthant_fan())
@given(suspension_fans())
def test_unique_exchange_check_matches_the_fraction_oracle(fan):
    fan.validate()
    assert unique_exchange_check(fan) == fraction_unique_exchange_check(fan)


def test_degenerate_wall_of_a_folded_fan():
    # the cones share the ray (1, 0) and both other rays lie above it
    fan = Fan(2, [(1, 0), (1, 1), (2, 1)], [(0, 1), (0, 2)])
    (w,) = walls(fan)
    for route in (wall_dependency, kernel_route_dependency):
        with pytest.raises(DegenerateWall):
            route(fan, w)


def test_qc_inconsistent_system_guard():
    from fanforge.errors import InconsistentSystem

    fan = a2_fan()
    tc = type_cone(fan)
    rows = (tc.facets[0], tc.facets[1], tc.facets[0])  # rank 2, count 3
    broken = tc._replace(facets=rows)
    with pytest.raises(InconsistentSystem):
        qc_polytope(fan, broken, (1, 1, 1))


def test_uerp_holds_a1():
    assert unique_exchange_check(a1_fan())["holds"]


def test_uerp_holds_a3_any_triangulation():
    for tri in all_triangulations(6)[:3]:
        fan = enumerate_fan(seed_from_triangulation(tri)).fan
        report = unique_exchange_check(fan)
        assert report["holds"], report


def test_uerp_fails_perturbed_orthant():
    fan = perturbed_orthant_fan()
    fan.validate()  # it is a genuine complete simplicial fan
    report = unique_exchange_check(fan)
    assert not report["holds"]
    rays = {fan.rays[i]: i for i in range(fan.n_rays)}
    bad_pair = tuple(sorted((rays[(0, 0, -1)], rays[(1, 0, 1)])))
    offending = [v for v in report["violations"] if tuple(v["exchanged"]) == bad_pair]
    assert offending and offending[0]["wall_count"] == 4
    assert offending[0]["distinct_dependencies"] == 2


def test_type_cone_a1():
    tc = type_cone(a1_fan())
    assert tc.facets == ((1, 1),)
    assert tc.n_facets == tc.n_rays - 1


def test_type_cone_a2_golden():
    fan = a2_fan()
    tc = type_cone(fan)
    assert len(tc.raw_inequalities) == 5
    raw = {tuple(int(x) for x in v) for v in tc.raw_inequalities}
    assert raw == {
        (1, -1, 1, 0, 0),
        (0, 1, -1, 1, 0),
        (0, 0, 1, -1, 1),
        (1, 0, 0, 1, 0),
        (0, 1, 0, 0, 1),
    }
    assert set(tc.facets) == {(1, -1, 1, 0, 0), (0, 1, -1, 1, 0), (0, 0, 1, -1, 1)}
    assert tc.n_facets == 5 - 2
    # the two non-facets are sums of facets
    assert tuple(
        a + b for a, b in zip((0, 1, -1, 1, 0), (1, -1, 1, 0, 0))
    ) == (1, 0, 0, 1, 0)
    assert tuple(
        a + b for a, b in zip((0, 1, -1, 1, 0), (0, 0, 1, -1, 1))
    ) == (0, 1, 0, 0, 1)


def test_type_cone_quadrant():
    tc = type_cone(quadrant_fan())
    assert set(tc.facets) == {(1, 0, 1, 0), (0, 1, 0, 1)}
    assert tc.n_facets == tc.n_rays - 2


def test_type_cone_counts_match_simpliciality():
    for polygon in (5, 6, 7):
        for tri in all_triangulations(polygon)[:3]:
            fan = enumerate_fan(seed_from_triangulation(tri)).fan
            tc = type_cone(fan)
            n = fan.dim
            assert tc.n_facets == fan.n_rays - n
            assert rank([list(f) for f in tc.k_matrix]) == fan.n_rays - n


SMALL_DYNKIN = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
OTHER_SEEDS = {
    "G2": initial_seed([[0, 1], [-3, 0]]),
    "B3": initial_seed([[0, 1, 0], [-1, 0, 1], [0, -2, 0]]),
    "heptagon": seed_from_triangulation(Triangulation(7, [(1, 3), (3, 7), (3, 6), (4, 6)])),
}


@st.composite
def relabeled_bfs_fans(draw):
    """A BFS fan with a random permutation of its ray indices: a random
    orientation of A1-A5, D4 or D5, or the G2, B3 or heptagon seed."""
    kind = draw(st.sampled_from(SMALL_DYNKIN + sorted(OTHER_SEEDS)))
    if kind in OTHER_SEEDS:
        seed = OTHER_SEEDS[kind]
    else:
        edges = dynkin_tree_edges(*kind)
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        arrows = [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)]
        seed = initial_seed(DynkinQuiver(*kind, arrows).exchange_matrix())
    fan = enumerate_fan(seed).fan
    return fan, draw(st.permutations(range(fan.n_rays)))


@settings(max_examples=40, deadline=None)
@given(relabeled_bfs_fans())
def test_type_cone_does_not_depend_on_which_cone_is_dropped(case):
    """Relabeling the rays moves maximal cone 0 away from the start
    cluster; the type cone's facets are the relabeled facets."""
    fan, perm = case

    def relabel(vec):
        out = [None] * len(vec)
        for i, x in enumerate(vec):
            out[perm[i]] = x
        return tuple(out)

    cones = [tuple(perm[i] for i in cone) for cone in fan.maximal_cones]
    relabeled = Fan(fan.dim, relabel(fan.rays), cones)
    assert type_cone(relabeled).facets == tuple(sorted(map(relabel, type_cone(fan).facets)))


def test_type_cone_of_a_fan_without_cones_is_inconsistent():
    with pytest.raises(InconsistentSystem):
        type_cone(Fan(2, [(1, 0), (0, 1), (-1, -1)], []))


def test_middle_coefficients_nonnegative_on_gvector_fans():
    for polygon in (5, 6):
        for tri in all_triangulations(polygon)[:3]:
            fan = enumerate_fan(seed_from_triangulation(tri)).fan
            for w in walls(fan):
                dep = wall_dependency(fan, w)
                assert all(v >= 0 for v in dep.middle_coeffs.values())


def test_qc_polytope_a1():
    fan = a1_fan()
    poly, cert = qc_polytope(fan, type_cone(fan), (1,))
    verts = sorted(vertices(poly).vertices)
    assert verts[1][0] - verts[0][0] == 1  # segment of length 1
    assert cert.check()


def test_qc_polytope_a2():
    fan = a2_fan()
    poly, cert = qc_polytope(fan, type_cone(fan), (1, 1, 1))
    vp = vertices(poly)
    assert len(vp.vertices) == 5
    assert fan_eq(normal_fan(vp), fan)
    for v in vp.vertices:
        assert all(s >= 0 for s in cert.slack(v))


def test_slack_certificate_rejects_a_wrong_fiber():
    fan = a2_fan()
    _poly, cert = qc_polytope(fan, type_cone(fan), (Fraction(1, 2), 2, Fraction(3, 7)))
    assert cert.check()
    h_off = list(cert.h)
    h_off[0] += Fraction(1, 3)
    c_off = list(cert.c)
    c_off[2] += Fraction(1, 7)
    g_off = [list(row) for row in cert.ray_matrix]
    g_off[0][0] += 1
    for changes, message in [
        ({"h": tuple(h_off)}, "K h != c"),
        ({"c": tuple(c_off)}, "K h != c"),
        ({"c": cert.c[:2]}, "K h != c"),
        ({"ray_matrix": tuple(map(tuple, g_off))}, "K G != 0"),
    ]:
        with pytest.raises(InconsistentSystem, match=message):
            cert._replace(**changes).check()


def test_qc_rejects_bad_parameters():
    fan = a2_fan()
    tc = type_cone(fan)
    with pytest.raises(NonPositiveParameter):
        qc_polytope(fan, tc, (1, 0, 1))
    with pytest.raises(ValueError):
        qc_polytope(fan, tc, (1, 1))


def test_qc_not_simplicial_guard():
    fan = a2_fan()
    tc = type_cone(fan)
    broken = tc._replace(facets=tc.facets[:2])
    with pytest.raises(NotSimplicial):
        qc_polytope(fan, broken, (1, 1, 1))


def test_translation_invariance():
    fan = a2_fan()
    tc = type_cone(fan)
    poly, cert = qc_polytope(fan, tc, (1, 1, 1))
    h = list(cert.h)
    x0 = [Fraction(3), Fraction(-2)]
    g = fan.rays
    h2 = [hi + dot(row, x0) for hi, row in zip(h, g)]
    assert [dot(k, h2) for k in tc.k_matrix] == [dot(k, h) for k in tc.k_matrix]
    # the translating x is recovered exactly from h2 - h
    diff = [a - b for a, b in zip(h2, h)]
    x_found = solve(g, diff)
    assert x_found == x0
    v1 = vertices(p_h(fan, h)).vertices
    v2 = vertices(p_h(fan, h2)).vertices
    assert sorted(tuple(a + b for a, b in zip(v, x0)) for v in v1) == list(v2)


def seeded_positive_c(rng, size):
    return [Fraction(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(size)]


def test_cfz_lemma_positive_direction():
    rng = random.Random(0)
    for make in (a2_fan, a1_fan):
        fan = make()
        tc = type_cone(fan)
        for _ in range(4):
            c = seeded_positive_c(rng, tc.n_facets)
            poly, _cert = qc_polytope(fan, tc, c)
            assert fan_eq(normal_fan(vertices(poly)), fan)


def test_cfz_lemma_negative_direction():
    fan = a2_fan()
    tc = type_cone(fan)
    _poly, cert = qc_polytope(fan, tc, (1, 1, 1))
    h = list(cert.h)
    k_rows = [list(f) for f in tc.k_matrix]
    for fi in range(tc.n_facets):
        target = [Fraction(0)] * tc.n_facets
        target[fi] = Fraction(1)
        w = solve(k_rows, target)
        h_bad = [hi - 2 * wi for hi, wi in zip(h, w)]
        assert dot(tc.facets[fi], h_bad) < 0
        assert all(dot(tc.facets[j], h_bad) > 0 for j in range(tc.n_facets) if j != fi)
        assert not tc.contains(h_bad)
        try:
            nf = normal_fan(vertices(p_h(fan, h_bad)))
        except Exception:
            continue  # degenerate realization also fails to realize the fan
        assert not fan_eq(nf, fan)


def test_typecone_json_deterministic():
    tc = type_cone(a2_fan())
    assert tc.to_json() == type_cone(a2_fan()).to_json()
    import json

    data = json.loads(tc.to_json())
    assert data["N"] == 5
    assert len(data["facets"]) == 3
    assert len(data["K"]) == 3
    assert len(data["walls"]) == 5


@pytest.mark.parametrize(
    "b",
    [
        [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
        [[0, 1, 0, 0], [-1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0]],
        [[0, 1, 0], [-2, 0, 1], [0, -1, 0]],
    ],
    ids=["A3", "D4", "B3"],
)
def test_type_cone_json_reads_back_n_and_facets(b):
    tc = type_cone(enumerate_fan(initial_seed(b)).fan)
    back = type_cone_from_json(tc.to_json())
    assert (back.n_rays, back.facets) == (tc.n_rays, tc.facets)
