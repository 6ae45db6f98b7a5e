import functools
import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanforge.arquiver import DynkinQuiver, abhy_functionals, dynkin_tree_edges, knit_ar_quiver
from fanforge.clusterfan import enumerate_fan, initial_seed, mutate_seed
from fanforge.errors import (
    DimensionDeficient,
    Empty,
    FanforgeError,
    InconsistentSystem,
    Unbounded,
)
from fanforge import polyhedra
from fanforge.linalg import _echelon, det_int, dot, primitive, scale_rows_int, solve
from fanforge.polyhedra import (
    Fan,
    HPolytope,
    VPolytope,
    _adjugate_int,
    extreme_rays,
    facet_description,
    fan_eq,
    fan_from_json,
    fan_to_json,
    normal_fan,
    p_h,
    parse_roff,
    realization,
    roff_realization,
    vertices,
    write_roff,
)
from fanforge.typecone import (
    qc_polytope,
    type_cone,
    wall_dependency,
    walls,
)
from test_linalg import kernel_basis, rank, rref, transpose
from test_typecone import CONTROL_BOTTOM, PRISM_TOP, TWISTED_BOTTOM, prism_fan


def contains(poly, point):
    """Membership of a point in the closed H-polytope."""
    return all(dot(row, point) <= bi for row, bi in zip(poly.ineq_matrix, poly.bounds))


def pentagon_hpoly():
    # 0 <= x <= 2, 0 <= y <= 2, y - x <= 1
    rows = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
    return HPolytope(rows, (2, 2, 1, 0, 0))


def a2_fan():
    rays = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    return Fan(2, rays, cones)


def brute_2d_vertices(rows, bounds):
    """Independent oracle: intersect all pairs of boundary lines exactly,
    keep the feasible intersection points."""
    pts = set()
    for (a1, b1), (a2, b2) in combinations(zip(rows, bounds), 2):
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if det == 0:
            continue
        x = Fraction(b1 * a2[1] - b2 * a1[1], det)
        y = Fraction(a1[0] * b2 - a2[0] * b1, det)
        if all(r[0] * x + r[1] * y <= c for r, c in zip(rows, bounds)):
            pts.add((x, y))
    return pts


PENTAGON_VERTICES = {(0, 0), (2, 0), (2, 2), (1, 2), (0, 1)}


def test_oracle_matches_frozen_pentagon():
    rows = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
    assert brute_2d_vertices(rows, (2, 2, 1, 0, 0)) == PENTAGON_VERTICES


def test_vertices_unit_square():
    p = HPolytope([(1, 0), (-1, 0), (0, 1), (0, -1)], (1, 1, 1, 1))
    vp = vertices(p)
    assert set(vp.vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert len(vp.vertices) == 4


def test_vertices_pentagon():
    vp = vertices(pentagon_hpoly())
    assert set(vp.vertices) == PENTAGON_VERTICES


def test_vertices_canonical_order_is_lexicographic():
    vp = vertices(pentagon_hpoly())
    assert list(vp.vertices) == sorted(vp.vertices)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_vpolytope_is_unchanged_when_its_points_are_permuted(data):
    # the constructor alone orders the points and bit-indexes each row's
    # contacts: vertex j is on a row iff its input point's mask has the row
    dim = data.draw(st.integers(1, 3))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    points = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=8, unique=True))
    normal = st.tuples(*[st.integers(-2, 2)] * dim)
    rows = data.draw(st.lists(st.tuples(normal, coord), max_size=6, unique=True))
    tight = data.draw(
        st.lists(st.integers(0, 2 ** len(rows) - 1), min_size=len(points), max_size=len(points))
    )
    perm = data.draw(st.permutations(range(len(points))))
    vp = VPolytope(points, (rows, tight))
    shuffled = VPolytope([points[i] for i in perm], (rows, [tight[i] for i in perm]))
    assert (shuffled.vertices, shuffled.contacts) == (vp.vertices, vp.contacts)
    assert list(vp.vertices) == sorted(points)
    mask_of = dict(zip(points, tight))
    assert vp.contacts == {
        row: sum(1 << j for j, v in enumerate(vp.vertices) if mask_of[v] >> k & 1)
        for k, row in enumerate(rows)
    }


def test_vertices_unbounded():
    with pytest.raises(Unbounded):
        vertices(HPolytope([(-1, 0), (0, -1)], (0, 0)))


def test_vertices_empty():
    with pytest.raises(Empty):
        vertices(HPolytope([(1, 0), (-1, 0), (0, 1), (0, -1)], (-1, 0, 1, 1)))


def test_vertices_dimension_deficient():
    p = HPolytope([(1, 0), (-1, 0), (0, 1), (0, -1)], (0, 0, 1, 0))
    with pytest.raises(DimensionDeficient):
        vertices(p)


def test_vertices_each_on_n_inequalities():
    p = pentagon_hpoly()
    vp = vertices(p)
    for v in vp.vertices:
        tight = sum(
            1
            for row, b in zip(p.ineq_matrix, p.bounds)
            if sum(r * x for r, x in zip(row, v)) == b
        )
        assert tight >= 2


def test_normal_fan_unit_square():
    vp = VPolytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    fan = normal_fan(vp)
    assert set(fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(fan.maximal_cones) == 4
    fan.validate()


def test_normal_fan_pentagon():
    vp = vertices(pentagon_hpoly())
    fan = normal_fan(vp)
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)}
    assert len(fan.maximal_cones) == 5
    assert fan_eq(fan, a2_fan())


def test_normal_fan_simplex():
    vp = VPolytope([(0, 0), (1, 0), (0, 1)])
    fan = normal_fan(vp)
    assert fan.n_rays == 3
    assert len(fan.maximal_cones) == 3
    assert set(fan.rays) == {(-1, -1), (1, 0), (0, 1)} or set(fan.rays) == {
        (-1, 0),
        (0, -1),
        (1, 1),
    }
    fan.validate()


def test_p_h_pentagon():
    poly = p_h(a2_fan(), (2, 2, 1, 0, 0))
    assert set(vertices(poly).vertices) == PENTAGON_VERTICES


def test_p_h_zero_height_is_origin():
    poly = p_h(a2_fan(), (0, 0, 0, 0, 0))
    assert contains(poly, (0, 0))
    eps = Fraction(1, 100)
    for direction in [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)]:
        assert not contains(poly, (eps * direction[0], eps * direction[1]))
    # DimensionDeficient rather than Unbounded: the recession cone is {0}
    with pytest.raises(DimensionDeficient):
        vertices(poly)


def test_p_h_a1_segment():
    fan = Fan(1, [(1,), (-1,)], [(0,), (1,)])
    poly = p_h(fan, (1, 1))
    assert set(vertices(poly).vertices) == {(-1,), (1,)}


def test_normal_fan_segment():
    fan = normal_fan(VPolytope([(0,), (1,)]))
    assert set(fan.rays) == {(1,), (-1,)}
    assert len(fan.maximal_cones) == 2


def test_roff_roundtrip_segment():
    fan = Fan(1, [(1,), (-1,)], [(0,), (1,)])
    vp = realization(fan, (1, 0))
    assert vp.vertices == ((0,), (1,))
    verts, facets = parse_roff(write_roff(vp))
    assert roff_realization(fan, verts, facets) == vp


@pytest.mark.parametrize(
    "token, value",
    [("3", 3), ("-3/4", Fraction(-3, 4)), ("+.5", Fraction(1, 2)), ("2.", 2), ("-1.25", Fraction(-5, 4))],
)
def test_rational_tokens(token, value):
    assert polyhedra._rational(token) == value


@pytest.mark.parametrize(
    "token", ["1e3", "1E-3", "1.5e2", "inf", "nan", "1/2.5", "1/-2", "0x10", "1_0", "\u0663", " 1", ""]
)
def test_a_token_that_is_not_a_plain_rational_is_rejected(token):
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        polyhedra._rational(token)


def test_p_h_length_check():
    with pytest.raises(ValueError):
        p_h(a2_fan(), (1, 1))


def test_fan_eq_reflexive():
    fan = a2_fan()
    assert fan_eq(fan, fan)


def test_fan_eq_realization_roundtrip():
    fan = a2_fan()
    assert fan_eq(fan, normal_fan(vertices(p_h(fan, (2, 2, 1, 0, 0)))))


def test_fan_eq_bad_height_loses_ray():
    fan = a2_fan()
    bad = normal_fan(vertices(p_h(fan, (2, 2, 3, 0, 0))))
    assert bad.n_rays < fan.n_rays
    assert not fan_eq(fan, bad)


def test_fan_eq_invariant_under_relabeling():
    fan = a2_fan()
    for perm in list(permutations(range(5)))[:24]:
        rays = [fan.rays[perm[i]] for i in range(5)]
        inv = {perm[i]: i for i in range(5)}
        cones = [tuple(sorted(inv[j] for j in cone)) for cone in fan.maximal_cones]
        relabeled = Fan(2, rays, cones)
        assert fan_eq(relabeled, fan)
        assert fan_eq(fan, relabeled)  # symmetric


def test_roundtrip_vertices_of_facet_hull():
    vp = vertices(pentagon_hpoly())
    from fanforge.polyhedra import facet_description

    normals, offsets, _ = facet_description(vp)
    again = vertices(HPolytope(normals, offsets))
    assert again.vertices == vp.vertices


CROSS_POLYTOPE_4 = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)],  # interior point
        [(0, 0), (2, 0), (0, 2), (1, 0)],  # edge midpoint
        CROSS_POLYTOPE_4 + [(Fraction(1, 2), Fraction(1, 2), 0, 0)],  # edge on 4 facets
    ],
    ids=["interior", "edge-midpoint", "cross-polytope-edge-midpoint"],
)
def test_facet_description_rejects_a_point_that_is_no_vertex(points):
    with pytest.raises(ValueError, match="is not a vertex"):
        facet_description(VPolytope(points))
    facet_description(VPolytope(points[:-1]))  # the same points without it are vertices


def test_facet_normals_subset_of_fan_rays():
    fan = a2_fan()
    for h in [(2, 2, 1, 0, 0), (3, 3, 1, 1, 1), (2, 2, 3, 0, 0)]:
        nf = normal_fan(vertices(p_h(fan, h)))
        assert set(nf.rays) <= set(fan.rays)


def test_fan_rejects_duplicate_rays():
    with pytest.raises(ValueError):
        Fan(2, [(1, 0), (2, 0)], [(0, 1)])


def test_fan_rejects_rank_deficient_cone():
    # construction checks structure only; a cone is proved nonsingular
    # where it is inverted, before any use of its inverse
    fan = Fan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1), (1, 2)])
    for use in (Fan.validate, type_cone, lambda f: realization(f, [1, 1, 1])):
        with pytest.raises(ValueError, match=r"^maximal cone is not simplicial \(rank deficient\)$"):
            use(fan)


def test_fan_validate_detects_overlap():
    # two overlapping quadrant-like cones: {e1,e2} and {e1+e2-ish, e1}
    fan = Fan(2, [(1, 0), (0, 1), (1, 1), (0, -1), (-1, 0)], [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ValueError):
        fan.validate()


def test_fan_validate_detects_hole():
    fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        fan.validate()


def test_validate_quadrant_fan():
    fan = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert fan.validate()


def test_validate_a1_fan():
    assert Fan(1, [(1,), (-1,)], [(0,), (1,)]).validate()


def test_validate_rejects_fan_without_cones():
    with pytest.raises(ValueError, match="no maximal cone"):
        Fan(2, [(1, 0), (0, 1), (-1, -1)], []).validate()


def star_polygon_fan(n_rays, step):
    """Planar rays at the n-th roots of unity (scaled, rounded); cone k joins
    ray k to ray k + step, so the cones wind `step` times around the origin."""
    angles = [2 * math.pi * k / n_rays for k in range(n_rays)]
    rays = [(round(1000 * math.cos(t)), round(1000 * math.sin(t))) for t in angles]
    return Fan(2, rays, [(k, (k + step) % n_rays) for k in range(n_rays)])


@pytest.mark.parametrize("n_rays", [5, 41])
def test_validate_rejects_double_cover(n_rays):
    # every wall sits in two cones on opposite sides; only the degree is 2
    assert star_polygon_fan(n_rays, 1).validate()
    with pytest.raises(ValueError, match="lies in 2 cones"):
        star_polygon_fan(n_rays, 2).validate()


def fold_fan():
    """Planar cycle 0 -> 120 -> 240 -> 300 -> 270 -> 0 degrees: every ray is
    in two cones and cone 0's interior is covered once, but the cycle folds
    back at the 300-degree ray and covers 270..300 three times."""
    rays = [(1, 0), (-1, 2), (-1, -2), (1, -2), (0, -1)]
    return Fan(2, rays, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_validate_rejects_a_ray_in_no_maximal_cone():
    quadrants = [(0, 1), (1, 2), (2, 3), (0, 3)]
    fan = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], quadrants)
    with pytest.raises(ValueError, match=r"ray 4 \(1, 1\) lies in no maximal cone"):
        fan.validate()


def test_validate_rejects_fold_covered_once_at_its_interior_point():
    with pytest.raises(ValueError, match="same side"):
        fold_fan().validate()


def strict_feasible(rows):
    """Test oracle: exact decision of {u : rows . u > 0 componentwise} !=
    empty set. Reduces to the row space so the closed cone {rows . u >= 0}
    is pointed, takes its extreme rays, and tests the relative interior
    point given by their sum."""
    if not rows:
        return True
    red, pivots = rref(rows)
    r = len(pivots)
    if r == 0:
        return False
    basis = red[:r]
    reduced = scale_rows_int([[dot(row, bvec) for bvec in basis] for row in rows])
    rays = extreme_rays(reduced, r)
    if not rays:
        return False
    total = [sum(ray[j] for ray in rays) for j in range(r)]
    return all(dot(row, total) > 0 for row in reduced)


def pair_meets_in_common_face(fan, a, b):
    """Test oracle: cones a and b intersect exactly in their common face,
    i.e. some functional vanishes on the shared rays and strictly separates
    the rest."""
    cone_a, cone_b = fan.maximal_cones[a], fan.maximal_cones[b]
    shared = sorted(set(cone_a) & set(cone_b))
    only_a = [fan.rays[i] for i in cone_a if i not in shared]
    only_b = [fan.rays[i] for i in cone_b if i not in shared]
    # fast path: an exactly-solvable target functional certifies the pair
    eq_rows = [list(fan.rays[i]) for i in shared]
    tgt_rows = eq_rows + [list(r) for r in only_a] + [list(r) for r in only_b]
    targets = [Fraction(0)] * len(shared) + [Fraction(-1)] * len(only_a) + [Fraction(1)] * len(only_b)
    if solve(tgt_rows, targets) is not None:
        return True
    # complete path: strict feasibility on the subspace orthogonal to shared
    if shared:
        basis = kernel_basis(eq_rows)
    else:
        basis = [[Fraction(1 if i == j else 0) for j in range(fan.dim)] for i in range(fan.dim)]
    rows = [[-dot(r, v) for v in basis] for r in only_a]
    rows += [[dot(r, v) for v in basis] for r in only_b]
    return strict_feasible(rows)


def complete_fan_oracle(fan):
    """Test oracle for Fan.validate: at least one cone, the wall condition,
    and proper intersection of every pair of cones. Proper intersection
    makes the cones a fan, so the two cones at each wall lie on opposite
    sides and the cones cover every generic point at most once; the wall
    condition then leaves no boundary, so they cover R^n."""
    if not fan.maximal_cones:
        return False
    if any(len(inc) != 2 for inc in fan.wall_subsets().values()):
        return False
    return all(
        pair_meets_in_common_face(fan, a, b)
        for a, b in combinations(range(len(fan.maximal_cones)), 2)
    )


def _validates(fan):
    try:
        return fan.validate()
    except ValueError:
        return False


D4_B = [[0, 1, 0, 0], [-1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0]]
DYNKIN_B = [
    [[0, 1], [-1, 0]],
    [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
    [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
    D4_B,
]


@st.composite
def base_fans(draw):
    """Complete fans: g-vector fans of randomly mutated A2-A4 and D4 seeds,
    or normal fans of random planar polygons clipped by a box at 9, wide
    enough that most random rows are facets."""
    if draw(st.booleans()):
        seed = initial_seed(draw(st.sampled_from(DYNKIN_B)))
        for k in draw(st.lists(st.integers(min_value=0, max_value=seed.rank - 1), max_size=4)):
            seed = mutate_seed(seed, k)
        return enumerate_fan(initial_seed(seed.b_matrix)).fan
    coeff = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.tuples(coeff, coeff), max_size=5))
    height = st.integers(min_value=1, max_value=4)
    bounds = draw(st.lists(height, min_size=len(rows), max_size=len(rows)))
    box = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return normal_fan(vertices(HPolytope(rows + box, bounds + [9] * 4)))


@st.composite
def corrupted_fans(draw):
    """A complete fan, left alone or with one corruption: a cone dropped, a
    ray replaced by its negation, or two cones re-paired across a wall (the
    wall left by dropping ray x from cone a takes ray y of cone b, which
    takes x in exchange). Corruptions the Fan constructor refuses are
    rejected."""
    fan = draw(base_fans())
    rays, cones = list(fan.rays), list(fan.maximal_cones)
    kind = draw(st.sampled_from(["none", "drop", "negate", "repair"]))
    if kind == "drop":
        del cones[draw(st.integers(min_value=0, max_value=len(cones) - 1))]
    elif kind == "negate":
        i = draw(st.integers(min_value=0, max_value=len(rays) - 1))
        rays[i] = tuple(-x for x in rays[i])
    elif kind == "repair":
        index = st.integers(min_value=0, max_value=len(cones) - 1)
        a, b = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        x = draw(st.sampled_from(sorted(set(cones[a]) - set(cones[b]))))
        y = draw(st.sampled_from(sorted(set(cones[b]) - set(cones[a]))))
        cones[a] = tuple(y if i == x else i for i in cones[a])
        cones[b] = tuple(x if i == y else i for i in cones[b])
    try:
        return Fan(fan.dim, rays, cones)
    except ValueError:
        assume(False)


def type_cone_reduction(fan):
    """The deduplicated wall inequalities of the fan's type cone, the same
    rows reduced through an integer basis of the left kernel of the ray
    matrix (the quotient by the lineality space), and its dimension d."""
    dedup = sorted({primitive(wall_dependency(fan, w).normal) for w in walls(fan)})
    reducer = kernel_basis(transpose(fan.rays))
    return dedup, [[dot(row, vec) for row in reducer] for vec in dedup], len(reducer)


def rank_rule_type_cone_facets(fan):
    """Test oracle: the facet rule type_cone once used. A deduplicated wall
    inequality is a facet iff the extreme rays of the reduced cone tight on
    it have rank d - 1."""
    dedup, reduced, d = type_cone_reduction(fan)
    rays = list(extreme_rays(reduced, d))
    return tuple(
        vec for vec, r in zip(dedup, reduced) if rank([z for z in rays if dot(r, z) == 0]) == d - 1
    )


@settings(max_examples=50, deadline=None)
@example(star_polygon_fan(5, 2))
@example(star_polygon_fan(7, 3))
@example(fold_fan())
@example(Fan(2, [(1, 0), (0, 1), (1, 1), (0, -1), (-1, 0)], [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4)]))
@given(corrupted_fans())
def test_validate_matches_pairwise_oracle(fan):
    complete = _validates(fan)
    assert complete == complete_fan_oracle(fan)
    if complete:
        assert type_cone(fan).facets == rank_rule_type_cone_facets(fan)


def reference_extreme_rays(constraints, d):
    """Reference double description: the initial basis from the echelon
    pivots of the full transpose, the same sweep and adjacency test, and a
    closing check of every final ray against every constraint."""
    init = _echelon(transpose(constraints))
    if len(init) != d:
        raise InconsistentSystem(f"constraints do not span R^{d}")
    adj, _det = _adjugate_int([list(constraints[i]) for i in init])
    basis = sum(1 << i for i in init)
    rays = [
        (primitive([adj[i][j] for i in range(d)]), basis ^ 1 << init[j])
        for j in range(d)
    ]
    for ci, a in enumerate(constraints):
        bit = 1 << ci
        if basis & bit:
            continue
        plus, zero, minus = [], [], []
        for ray, tight in rays:
            v = dot(a, ray)
            if v > 0:
                plus.append((ray, tight, v))
            elif v == 0:
                zero.append((ray, tight | bit))
            else:
                minus.append((ray, tight, v))
        new = []
        masks = [t for _r, t in rays]
        for rp, tp, vp in plus:
            for rm, tm, vm in minus:
                common = tp & tm
                if common.bit_count() < d - 2 or any(
                    t & common == common and t != tp and t != tm for t in masks
                ):
                    continue
                combo = [vp * y - vm * x for x, y in zip(rp, rm)]
                new.append((primitive(combo), common | bit))
        rays = [(r, t) for r, t, _v in plus] + zero + new
    for ray, _tight in rays:
        if any(dot(c, ray) < 0 for c in constraints):
            raise InconsistentSystem("double description produced an infeasible ray")
    return dict(sorted(rays))


def assert_extreme_rays_exact(constraints, d):
    """The rays, their masks and their order equal the reference double
    description's, and every ray's bitmask has bit i set iff
    constraints[i] . ray == 0."""
    got = extreme_rays(constraints, d)
    assert list(got.items()) == list(reference_extreme_rays(constraints, d).items())
    for ray, mask in got.items():
        assert mask == sum(1 << i for i, c in enumerate(constraints) if dot(c, ray) == 0)


@st.composite
def integer_systems(draw):
    """Random integer constraint systems in R^2..R^5, small entries so that
    many are degenerate (rays on more than d - 1 rows) or rank deficient."""
    d = draw(st.integers(min_value=2, max_value=5))
    row = st.lists(st.integers(min_value=-2, max_value=2), min_size=d, max_size=d)
    return draw(st.lists(row, min_size=d, max_size=d + 6)), d


@settings(max_examples=200, deadline=None)
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]], 3))
@example(([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1], [-1, -1, 2]], 3))
@example(([[1, 1, 0], [2, 2, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]], 3))
@given(integer_systems())
def test_extreme_rays_match_the_reference_on_random_systems(system):
    constraints, d = system
    if rank(constraints) == d:
        assert_extreme_rays_exact(constraints, d)
    else:
        for route in (extreme_rays, reference_extreme_rays):
            with pytest.raises(InconsistentSystem):
                route(constraints, d)


# x, y >= 0 (the basis), x >= y, then 2y >= x, whose step makes the ray (2, 1)
PLANAR = [(1, 0), (0, 1), (1, -1), (-1, 2)]
# x, y >= 0, x >= y (no basis row: it depends on them), then z >= 0: the
# step of x >= y makes the ray (1, 1, 0) before the basis row z >= 0
LATE_BASIS_ROW = [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)]


@pytest.mark.parametrize(
    "constraints, corrupt",
    [
        (PLANAR, lambda r: tuple(-x for x in r)),
        (PLANAR, lambda r: r[::-1]),
        (PLANAR, lambda r: (r[0] + 1, *r[1:])),
        (LATE_BASIS_ROW, lambda r: (*r[:-1], r[-1] - 1)),
    ],
    ids=["negated", "breaks-an-earlier-row", "breaks-its-own-row", "breaks-a-later-basis-row"],
)
def test_the_closing_check_rejects_a_corrupted_ray(monkeypatch, constraints, corrupt):
    """The last combination the sweep makes is corrupted so that it breaks
    one row the sweep never evaluated it on; it survives the sweep, and the
    closing check must reject it."""
    calls = []

    def counting(vec):
        calls.append(vec)
        return primitive(vec)

    monkeypatch.setattr(polyhedra, "primitive", counting)
    extreme_rays(constraints, len(constraints[0]))
    last = len(calls)

    def last_call_corrupted(vec):
        out = counting(vec)
        return corrupt(out) if len(calls) == 2 * last else out

    monkeypatch.setattr(polyhedra, "primitive", last_call_corrupted)
    with pytest.raises(InconsistentSystem, match="infeasible ray"):
        extreme_rays(constraints, len(constraints[0]))


@settings(max_examples=30, deadline=None)
@given(base_fans())
def test_extreme_ray_masks_on_type_cone_reductions(fan):
    _dedup, reduced, d = type_cone_reduction(fan)
    assert_extreme_rays_exact(reduced, d)


def test_strict_feasible_basic():
    assert strict_feasible([[1, 0], [0, 1]])
    assert not strict_feasible([[1, 0], [-1, 0]])
    assert not strict_feasible([[1, 0], [-1, -1], [0, 1]])
    assert strict_feasible([])


def test_fan_json_roundtrip_deterministic():
    fan = a2_fan()
    text = fan_to_json(fan)
    assert fan_to_json(fan_from_json(text)) == text
    assert text == fan_to_json(a2_fan())


def test_roff_roundtrip():
    vp = vertices(pentagon_hpoly())
    text = write_roff(vp)
    verts, facets = parse_roff(text)
    assert set(verts) == PENTAGON_VERTICES
    assert len(facets) == 5
    assert write_roff(vp) == text
    assert "1/1" in text or "/" in text.splitlines()[2]


def scan_vertices(p):
    """Test oracle: the brute-force subset scan vertices() once ran.

    Unbounded when A is rank deficient or the signed-minor kernel vector z
    of some (n-1)-subset has A z <= 0 (or >= 0); otherwise every feasible
    Cramer solution of an invertible n-subset is a vertex, and none at all
    means Empty.
    """
    n = p.dim
    rows = scale_rows_int([*row, bi] for row, bi in zip(p.ineq_matrix, p.bounds))
    a, b = [row[:n] for row in rows], [row[n] for row in rows]
    if rank(a) < n:
        raise Unbounded("rank deficient")
    for subset in combinations(a, n - 1):
        z = [(-1) ** j * det_int([row[:j] + row[j + 1 :] for row in subset]) for j in range(n)]
        values = [dot(row, z) for row in a]
        if any(z) and (all(v <= 0 for v in values) or all(v >= 0 for v in values)):
            raise Unbounded("recession direction")
    verts = set()
    for subset in combinations(range(len(a)), n):
        sub = [a[i] for i in subset]
        den = det_int(sub)
        if den == 0:
            continue
        x = tuple(
            Fraction(det_int([row[:j] + [b[i]] + row[j + 1 :] for row, i in zip(sub, subset)]), den)
            for j in range(n)
        )
        if contains(p, x):
            verts.add(x)
    if not verts:
        raise Empty("no feasible point")
    pts = sorted(verts)
    if rank([[x - y for x, y in zip(v, pts[0])] for v in pts[1:]]) != n:
        raise DimensionDeficient("no interior point")
    return pts


def rank_filter_facets(p, vp):
    """Test oracle: the facet rule of the H-representation branch that
    facet_description once had. A distinct scaled row is a facet iff the
    vertices on it have affine rank n - 1. A facet is keyed by its
    primitive normal and carries the row's offset scaled to that normal."""
    facets = {}
    for row, bi in zip(p.ineq_matrix, p.bounds):
        contact = [i for i, v in enumerate(vp.vertices) if dot(row, v) == bi]
        pts = [vp.vertices[i] for i in contact]
        if len(contact) >= p.dim and rank([[x - y for x, y in zip(q, pts[0])] for q in pts]) == p.dim - 1:
            normal = primitive(row)
            j = next(i for i, x in enumerate(row) if x)
            facets[normal] = (Fraction(normal[j], row[j]) * bi, contact)
    ordered = sorted(facets, reverse=True)
    return ordered, [facets[f][0] for f in ordered], [facets[f][1] for f in ordered]


def _outcome(fn, p):
    try:
        return list(fn(p))
    except (Unbounded, Empty, DimensionDeficient) as exc:
        return type(exc)


@st.composite
def small_hpolytopes(draw):
    """Random H-polytopes in dimensions 2-4: often unbounded, empty,
    lower-dimensional or non-simple, optionally clipped by a box."""
    n = draw(st.integers(min_value=2, max_value=4))
    coeff = st.integers(min_value=-2, max_value=2)
    rows = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=1, max_size=n + 3))
    bounds = draw(st.lists(st.integers(min_value=-2, max_value=3), min_size=len(rows), max_size=len(rows)))
    box = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if box is not None:
        for i in range(n):
            for sign in (1, -1):
                rows.append([sign if j == i else 0 for j in range(n)])
                bounds.append(box)
    return HPolytope(rows, bounds)


OCTAHEDRON = HPolytope(
    [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)], [1] * 8
)
SQUARE_PYRAMID = HPolytope(
    [(0, 0, -1), (2, 0, 1), (-2, 0, 1), (0, 2, 1), (0, -2, 1)], (0, 2, 2, 2, 2)
)


@settings(max_examples=150, deadline=None)
@example(OCTAHEDRON)
@example(SQUARE_PYRAMID)
@example(HPolytope([(1, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], (1, 2, 1, 1, 1)))
@example(HPolytope([(1, 1), (-1, -1), (1, 0), (-1, 0)], (0, 0, 1, 1)))
@given(small_hpolytopes())
def test_vertices_match_subset_scan_oracle(p):
    got = _outcome(lambda q: vertices(q).vertices, p)
    assert got == _outcome(scan_vertices, p)
    if isinstance(got, list):
        vp = vertices(p)
        assert facet_description(vp) == facet_description(VPolytope(vp.vertices))
        assert facet_description(vp) == rank_filter_facets(p, vp)


def test_oracle_cases_cover_every_outcome():
    assert isinstance(_outcome(scan_vertices, OCTAHEDRON), list)
    assert len(vertices(OCTAHEDRON).vertices) == 6  # each vertex on 4 facets
    assert len(vertices(SQUARE_PYRAMID).vertices) == 5  # apex on 4 facets
    assert _outcome(scan_vertices, HPolytope([(1, 0), (0, 1)], (1, 1))) is Unbounded
    assert _outcome(scan_vertices, HPolytope([(1, 0), (-1, 0), (0, 1), (0, -1)], (-1, 0, 1, 1))) is Empty
    assert _outcome(scan_vertices, HPolytope([(1, 0), (-1, 0), (0, 1), (0, -1)], (0, 0, 1, 1))) is DimensionDeficient


@settings(max_examples=150, deadline=None)
@example(OCTAHEDRON)
@example(SQUARE_PYRAMID)
@given(small_hpolytopes())
def test_extreme_ray_masks_on_homogenized_hpolytope_cones(p):
    rows = scale_rows_int([*row, bi] for row, bi in zip(p.ineq_matrix, p.bounds))
    cone = [[-x for x in row[:-1]] + row[-1:] for row in rows] + [[0] * p.dim + [1]]
    if rank(cone) == p.dim + 1:
        assert_extreme_rays_exact(cone, p.dim + 1)
    else:
        with pytest.raises(InconsistentSystem):
            extreme_rays(cone, p.dim + 1)


# --- realization and roff_realization against the double-description route


@st.composite
def oriented_ad_fans(draw):
    """Validated g-vector fans of A1-A5, D4 and D5 seeds with a random
    orientation of the Dynkin tree, mutated along a random walk of up to
    three steps."""
    type_, n = draw(st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]))
    b = [[0] * n for _ in range(n)]
    for s, t in dynkin_tree_edges(type_, n):
        if draw(st.booleans()):
            s, t = t, s
        b[t - 1][s - 1], b[s - 1][t - 1] = 1, -1
    seed = initial_seed(b)
    for k in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)):
        seed = mutate_seed(seed, k)
    fan = enumerate_fan(initial_seed(seed.b_matrix)).fan
    fan.validate()
    return fan


@st.composite
def heights_for(draw, fan):
    """Heights inside the type cone (Kh = c for a random positive c), the
    violated heights h0 - (1 + t) w_f of criterion 4 (Kh0 = 1, Kw_f = e_f,
    t >= 0, so t = 0 lies on facet f), or small random integers."""
    kind = draw(st.sampled_from(["inside", "violated", "random"]))
    if kind == "random":
        coords = st.integers(min_value=-1, max_value=3)
        return draw(st.lists(coords, min_size=fan.n_rays, max_size=fan.n_rays))
    tc = type_cone(fan)
    m = tc.n_facets
    if kind == "inside":
        ratio = st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3)
        return qc_polytope(fan, tc, draw(st.lists(ratio, min_size=m, max_size=m)))[1].h
    h0 = qc_polytope(fan, tc, [1] * m)[1].h
    f = draw(st.integers(min_value=0, max_value=m - 1))
    w = solve([list(row) for row in tc.facets], [Fraction(int(i == f)) for i in range(m)])
    t = draw(st.fractions(min_value=0, max_value=5, max_denominator=2))
    return [x - (1 + t) * y for x, y in zip(h0, w)]


def dd_realization(fan, h):
    """The reference route: vertices of P_h by double description, accepted
    iff their normal fan is the fan."""
    try:
        vp = vertices(p_h(fan, h))
        return vp if fan_eq(normal_fan(vp), fan) else None
    except (FanforgeError, ValueError):
        return None


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_realization_agrees_with_the_double_description_route(data):
    fan = data.draw(oriented_ad_fans())
    h = data.draw(heights_for(fan))
    reference = dd_realization(fan, h)
    try:
        vp = realization(fan, h)
    except ValueError:
        assert reference is None
    else:
        assert reference is not None
        assert write_roff(vp) == write_roff(reference)
        assert fan_eq(normal_fan(vp), fan)


def assert_vertices_keep_primitive_facets(fan, h):
    by_vertices = vertices(p_h(fan, h))
    by_certificate = realization(fan, h)
    normals, _offsets, _contacts = facet_description(by_vertices)
    assert all(math.gcd(*normal) == 1 for normal in normals)
    assert facet_description(by_vertices) == facet_description(by_certificate)
    assert normal_fan(by_vertices) == normal_fan(by_certificate)


def test_vertices_key_facets_by_primitive_normals_on_rational_heights():
    fan = enumerate_fan(initial_seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])).fan
    c = [Fraction(1, 3) + i for i in range(6)]
    poly, cert = qc_polytope(fan, type_cone(fan), c)
    assert poly == p_h(fan, cert.h)
    assert ((0, 1, 0), Fraction(23, 3)) in zip(*facet_description(vertices(poly))[:2])
    assert_vertices_keep_primitive_facets(fan, cert.h)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_vertices_and_realization_give_the_same_facets(data):
    fan = data.draw(oriented_ad_fans())
    tc = type_cone(fan)
    ratio = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)
    c = data.draw(st.lists(ratio, min_size=tc.n_facets, max_size=tc.n_facets))
    assert_vertices_keep_primitive_facets(fan, qc_polytope(fan, tc, c)[1].h)


def reference_roff_normal_fan(verts, facet_lists):
    """The former verify route: each facet's hyperplane from its vertex set,
    oriented away from a vertex off it; these halfspaces, enumerated by
    double description, must have exactly the file's vertices and facet
    lists, up to vertex order."""
    rows, bounds = [], []
    for fl in facet_lists:
        base = verts[fl[0]]
        kb = kernel_basis([[x - y for x, y in zip(verts[i], base)] for i in fl])
        if len(kb) != 1:
            raise ValueError("facet vertex set does not span a hyperplane")
        normal = kb[0]
        offset = dot(normal, base)
        if next((dot(normal, v) > offset for i, v in enumerate(verts) if i not in fl), False):
            normal, offset = tuple(-x for x in normal), -offset
        rows.append(normal)
        bounds.append(offset)
    vp = vertices(HPolytope(rows, bounds))
    if sorted(verts) != list(vp.vertices):
        raise ValueError("the facet halfspaces have other vertices than the file")
    position = {v: j for j, v in enumerate(vp.vertices)}
    given = sorted(sorted(position[verts[i]] for i in fl) for fl in facet_lists)
    if given != sorted(facet_description(vp)[2]):
        raise ValueError("the facet lists are not the facets of the polytope")
    return normal_fan(vp)


@st.composite
def roff_mutants(draw, verts, facets):
    """ROFF data left alone or with one mutation: a vertex dropped (facet
    lists reindexed, emptied ones dropped), a facet line repeated, a
    coordinate shifted, the vertex lines permuted, or the centroid added."""
    kind = draw(st.sampled_from(["none", "drop", "repeat", "shift", "permute", "interior"]))
    verts, facets = list(verts), list(facets)
    if kind == "drop":
        j = draw(st.integers(min_value=0, max_value=len(verts) - 1))
        del verts[j]
        facets = [tuple(i - (i > j) for i in fl if i != j) for fl in facets]
        facets = [fl for fl in facets if fl]
    elif kind == "repeat":
        facets.append(draw(st.sampled_from(facets)))
    elif kind == "shift":
        j = draw(st.integers(min_value=0, max_value=len(verts) - 1))
        k = draw(st.integers(min_value=0, max_value=len(verts[j]) - 1))
        delta = draw(st.sampled_from([Fraction(1), Fraction(-1, 2), Fraction(1, 3)]))
        verts[j] = tuple(x + delta * (i == k) for i, x in enumerate(verts[j]))
    elif kind == "permute":
        order = draw(st.permutations(range(len(verts))))
        new_index = {old: new for new, old in enumerate(order)}
        verts = [verts[old] for old in order]
        facets = [tuple(new_index[i] for i in fl) for fl in facets]
    elif kind == "interior":
        verts.append(tuple(sum(col) / len(verts) for col in zip(*verts)))
    return verts, facets


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_roff_realization_agrees_with_the_double_description_route(data):
    fan = data.draw(oriented_ad_fans())
    tc = type_cone(fan)
    _poly, cert = qc_polytope(fan, tc, [1] * tc.n_facets)
    verts, facets = parse_roff(write_roff(realization(fan, cert.h)))
    verts, facets = data.draw(roff_mutants(verts, facets))
    try:
        expected = fan_eq(reference_roff_normal_fan(verts, facets), fan)
    except (FanforgeError, ValueError):
        expected = False
    try:
        roff_realization(fan, verts, facets)
    except ValueError:
        assert not expected
    else:
        assert expected


# --- the wall-by-wall certificate against the all-rays certificate


def all_rays_realization(fan, h):
    """Test oracle, the former realization certificate: each cone's point
    x_C = G_C^-1 h_C must satisfy the inequality of every ray outside C
    strictly, checked as det h_r > r . (adj^T h_C) in integers."""
    *h_int, s = primitive([*h, 1])
    points, tight = [], []
    for cone, (adj, det) in zip(fan.maximal_cones, fan._cone_data()):
        x = [dot(col, [h_int[i] for i in cone]) for col in zip(*adj)]
        if any(i not in cone and det * h_int[i] <= dot(r, x) for i, r in enumerate(fan.rays)):
            raise ValueError("the normal fan of the polytope differs from the fan")
        points.append([Fraction(xk, det * s) for xk in x])
        tight.append(sum(1 << i for i in cone))
    return VPolytope(points, (list(zip(fan.rays, h)), tight))


def type_cone_basis(fan):
    """Heights w_f with K w_f = e_f for the facets K of a simplicial type
    cone: sum(c_f w_f) is inside it for c > 0 and on facet f for c_f = 0."""
    tc = type_cone(fan)
    m = tc.n_facets
    return [solve([list(row) for row in tc.facets], [Fraction(int(i == f)) for i in range(m)]) for f in range(m)]


@functools.cache
def e6_fan_and_basis(orientation):
    """The g-vector fan of an E6 quiver and its type cone basis, read off the
    ABHY polytope (which is Q_c on that fan): the bound of ray r's row is
    linear in the mesh parameters c, with coefficients mesh_coeffs."""
    quiver = DynkinQuiver("E", 6, orientation)
    fan = enumerate_fan(initial_seed(quiver.exchange_matrix())).fan
    fan.validate()
    ar = knit_ar_quiver(quiver)
    funcs = abhy_functionals(ar)
    coeffs = {tuple(-x for x in f.proj_coeffs): f.mesh_coeffs for f in funcs.values()}
    return fan, [[coeffs[r][f] for r in fan.rays] for f in range(len(ar.meshes))]


# every vertex of the E6 tree a source (1, 4, 6) or a sink (2, 3, 5)
E6_ALTERNATING = ((1, 3), (4, 3), (4, 5), (4, 2), (6, 5))


@st.composite
def convex_polygon_fans(draw):
    """The normal fan of a random box-clipped convex polygon, with the
    polygon's own heights h_r = max r . v over its vertices v."""
    coeff = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.tuples(coeff, coeff), max_size=6))
    height = st.integers(min_value=1, max_value=4)
    bounds = draw(st.lists(height, min_size=len(rows), max_size=len(rows)))
    vp = vertices(HPolytope(rows + [(1, 0), (-1, 0), (0, 1), (0, -1)], bounds + [9] * 4))
    fan = normal_fan(vp)
    fan.validate()
    return fan, [max(dot(r, v) for v in vp.vertices) for r in fan.rays]


@st.composite
def wall_certificate_cases(draw):
    """A validated fan and heights for it. Where the type cone is simplicial
    (finite type, the control prism), h = sum(c_f w_f) with every c_f > 0
    but at most one, which is 0 (on facet f) or +-1/q (just off it). Else a
    polygon's own heights, or (polygons, the twisted prism) a height h_j on
    a wall's inequality moved until it is tight there, and +-1/q beyond."""
    kind = draw(st.sampled_from(["ad", "e6", "control", "polygon", "twisted"]))
    if kind in ("ad", "e6", "control"):
        if kind == "ad":
            fan = draw(oriented_ad_fans())
            basis = type_cone_basis(fan)
        elif kind == "e6":
            fan, basis = e6_fan_and_basis(draw(st.sampled_from([None, E6_ALTERNATING])))
        else:
            fan = prism_fan(PRISM_TOP, CONTROL_BOTTOM)
            basis = type_cone_basis(fan)
        ratio = st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3)
        c = draw(st.lists(ratio, min_size=len(basis), max_size=len(basis)))
        q = draw(st.integers(min_value=1, max_value=7))
        f = draw(st.integers(min_value=0, max_value=len(basis) - 1))
        c[f] = draw(st.sampled_from([c[f], Fraction(0), Fraction(1, q), Fraction(-1, q)]))
        return fan, [sum(cf * w[r] for cf, w in zip(c, basis)) for r in range(fan.n_rays)]
    if kind == "polygon":
        fan, h = draw(convex_polygon_fans())
    else:
        fan = prism_fan(PRISM_TOP, TWISTED_BOTTOM)
        h = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6))
    if kind == "polygon" and draw(st.booleans()):
        return fan, h
    normal = wall_dependency(fan, draw(st.sampled_from(walls(fan)))).normal
    j = draw(st.sampled_from([i for i, x in enumerate(normal) if x]))
    q = draw(st.integers(min_value=1, max_value=7))
    h = [Fraction(x) for x in h]
    h[j] -= Fraction(dot(normal, h), normal[j])
    h[j] += draw(st.sampled_from([Fraction(0), Fraction(1, q), Fraction(-1, q)]))
    return fan, h


@settings(max_examples=100, deadline=None)
@example((Fan(1, [(1,), (-1,)], [(0,), (1,)]), [1, -1]))  # a point: its one wall fails
@example((Fan(1, [(1,), (-1,)], [(0,), (1,)]), [1, Fraction(-1, 2)]))
@given(wall_certificate_cases())
def test_the_wall_certificate_agrees_with_the_all_rays_certificate(case):
    fan, h = case
    try:
        expected = all_rays_realization(fan, h)
    except ValueError:
        expected = None
    try:
        got = realization(fan, h)
    except ValueError as exc:
        assert expected is None
        assert str(exc) == "the normal fan of the polytope differs from the fan"
    else:
        assert expected is not None
        assert (got.vertices, got.contacts) == (expected.vertices, expected.contacts)
