import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanforge import clusterfan
from fanforge.clusterfan import (
    ExchangeGraph,
    Seed,
    Triangulation,
    _check_finite_type,
    _symmetrizer,
    all_triangulations,
    diagonals_cross,
    enumerate_fan,
    exchanged_g_vector,
    flip,
    flip_graph,
    initial_seed,
    is_diagonal,
    mutate_seed,
    seed_from_json,
    seed_from_triangulation,
)
from fanforge.errors import BudgetExceeded, InconsistentSystem, InfiniteType
from fanforge.linalg import primitive
from fanforge.polyhedra import Fan

A2_B = [[0, 1], [-1, 0]]
A3_B = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
A4_B = [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
D4_B = [[0, 1, 0, 0], [-1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0]]
B3_B = [[0, 1, 0], [-2, 0, 1], [0, -1, 0]]
C3_B = [[0, 1, 0], [-1, 0, 2], [0, -1, 0]]
G2_B = [[0, 1], [-3, 0]]
# mutation-infinite or infinite-type seeds: each has or soon reaches a pair
# with |b_ij * b_ji| > 3
INFINITE_B = {
    "kronecker": [[0, 2], [-2, 0]],
    "affine_a2": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
    "markov": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]],
    "affine_a1_2": [[0, 1], [-4, 0]],
}

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}


def fan_triangulation(polygon):
    return Triangulation(polygon, [(1, j) for j in range(3, polygon)])


def snake_triangulation(polygon):
    diags = []
    lo, hi = 1, polygon
    turn = 0
    while len(diags) < polygon - 3:
        if turn % 2 == 0:
            lo += 1
        else:
            hi -= 1
        diags.append((lo, hi))
        turn += 1
    return Triangulation(polygon, diags)


def test_crossing_predicate():
    assert diagonals_cross((1, 3), (2, 4))
    assert not diagonals_cross((1, 3), (1, 4))
    assert not diagonals_cross((1, 3), (3, 5))
    assert not diagonals_cross((1, 3), (4, 6))


def test_triangulation_validation():
    with pytest.raises(ValueError):
        Triangulation(5, [(1, 3), (2, 4)])  # crossing
    with pytest.raises(ValueError):
        Triangulation(5, [(1, 2), (1, 3)])  # boundary edge
    with pytest.raises(ValueError):
        Triangulation(5, [(1, 3)])  # wrong count


def test_seed_from_pentagon_fan_triangulation():
    seed = seed_from_triangulation(fan_triangulation(5))
    assert seed.b_matrix == ((0, 1), (-1, 0))
    assert seed.g_vectors == ((1, 0), (0, 1))
    assert seed.c_vectors == ((1, 0), (0, 1))


def test_seed_from_hexagon_snake_is_acyclic_a3():
    seed = seed_from_triangulation(snake_triangulation(6))
    b = seed.b_matrix
    nonzero = sorted(
        tuple(sorted((i, j))) for i in range(3) for j in range(3) if b[i][j] != 0
    )
    # underlying graph is a path on three nodes
    assert len(set(nonzero)) == 2
    degree = [sum(1 for e in set(nonzero) if k in e) for k in range(3)]
    assert sorted(degree) == [1, 1, 2]
    assert all(abs(b[i][j]) <= 1 for i in range(3) for j in range(3))


def test_seed_from_internal_triangle_has_3_cycle():
    tri = Triangulation(6, [(2, 4), (4, 6), (2, 6)])
    b = seed_from_triangulation(tri).b_matrix
    assert sorted(abs(b[i][j]) for i in range(3) for j in range(3) if i != j) == [1] * 6
    # cyclic orientation: row sums of signs are zero
    assert all(sum(b[i]) == 0 for i in range(3))


def test_mutate_single_step_a1():
    seed = initial_seed([[0]])
    assert mutate_seed(seed, 0).g_vectors[0] == (-1,)


def test_mutate_involution_simple():
    seed = initial_seed(A3_B)
    for k in range(3):
        assert mutate_seed(mutate_seed(seed, k), k) == seed


def test_mutate_involution_triangulation_seed():
    seed = seed_from_triangulation(fan_triangulation(6))
    for k in range(3):
        assert mutate_seed(mutate_seed(seed, k), k) == seed


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12))
def test_mutate_involution_along_random_walks(walk):
    seed = initial_seed(A3_B)
    for k in walk:
        seed = mutate_seed(seed, k)
        assert mutate_seed(mutate_seed(seed, k), k) == seed


def test_pentagon_periodicity():
    seed = initial_seed(A2_B)
    s = seed
    for k in (0, 1, 0, 1, 0):
        s = mutate_seed(s, k)
    # the initial cluster returns with its two variables swapped
    assert frozenset(s.g_vectors) == frozenset(seed.g_vectors)
    assert s.g_vectors == (seed.g_vectors[1], seed.g_vectors[0])


def test_enumerate_a1():
    enum = enumerate_fan(initial_seed([[0]]))
    assert set(enum.fan.rays) == {(1,), (-1,)}
    assert len(enum.fan.maximal_cones) == 2


def test_enumerate_a2():
    enum = enumerate_fan(initial_seed(A2_B))
    assert enum.fan.n_rays == 5
    assert set(enum.fan.rays) == {(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)}
    assert len(enum.fan.maximal_cones) == 5
    assert len(enum.graph.edges) == 5
    assert enum.graph.is_regular(2)
    assert enum.graph.is_connected()
    enum.fan.validate()


def test_enumerate_a3():
    enum = enumerate_fan(initial_seed(A3_B))
    assert enum.fan.n_rays == 9
    assert len(enum.fan.maximal_cones) == 14
    assert len(enum.graph.edges) == 21
    assert enum.graph.is_regular(3)
    assert enum.graph.is_connected()
    enum.fan.validate()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counting_laws(n):
    tri = fan_triangulation(n + 3)
    enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
    assert enum.fan.n_rays == n * (n + 3) // 2
    assert len(enum.fan.maximal_cones) == CATALAN[n + 1]


def test_enumerated_a4_fan_full_invariants():
    # simplicial + wall condition + opposite sides + one interior point covered once
    b4 = [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
    enum = enumerate_fan(initial_seed(b4))
    assert enum.fan.validate()


def test_rays_include_positive_and_negative_basis():
    for b in (A2_B, A3_B):
        enum = enumerate_fan(initial_seed(b))
        n = len(b)
        rays = set(enum.fan.rays)
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            ne = tuple(-x for x in e)
            assert e in rays and ne in rays


def test_initial_cone_is_positive_orthant():
    enum = enumerate_fan(initial_seed(A3_B))
    basis = {tuple(1 if j == i else 0 for j in range(3)) for i in range(3)}
    idx = {enum.fan.rays.index(e) for e in basis}
    assert tuple(sorted(idx)) in enum.fan.maximal_cones


def test_skew_symmetrizable_b2_seed():
    # type B_2: accepted by the generic pipeline, no AR cross-checks
    enum = enumerate_fan(initial_seed([[0, 1], [-2, 0]]))
    assert enum.fan.n_rays == 6
    assert len(enum.fan.maximal_cones) == 6
    from fanforge.typecone import type_cone

    tc = type_cone(enum.fan)
    assert tc.n_facets == 6 - 2


def test_non_skew_symmetrizable_rejected():
    with pytest.raises(ValueError):
        initial_seed([[0, 1], [1, 0]])


def test_budget_guard():
    # Markov quiver: mutation-infinite
    markov = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
    with pytest.raises(BudgetExceeded):
        enumerate_fan(initial_seed(markov), budget=50)


def test_budget_guard_on_a_finite_type_seed_is_not_infinite_type():
    with pytest.raises(BudgetExceeded) as info:
        enumerate_fan(initial_seed(A4_B), budget=10)
    assert not isinstance(info.value, InfiniteType)
    # the budget, not the type, stopped the BFS: the message names the
    # most clusters a finite type of rank 4 has (F4)
    assert str(info.value) == (
        "seed BFS exceeded 10 nodes; a cluster algebra of finite type and rank 4 "
        "has up to 105 clusters"
    )


@pytest.mark.parametrize("name", sorted(INFINITE_B))
def test_infinite_type_is_rejected_within_a_handful_of_nodes(name):
    # a budget of 8 would raise plain BudgetExceeded first if the
    # 2-finiteness test did not fire within 8 nodes
    with pytest.raises(InfiniteType, match="infinite type"):
        enumerate_fan(initial_seed(INFINITE_B[name]), budget=8)


def test_seed_carries_its_symmetrizer():
    assert initial_seed(A3_B).symmetrizer == (1, 1, 1)
    assert initial_seed(B3_B).symmetrizer == (2, 1, 1)
    assert initial_seed(G2_B).symmetrizer == (3, 1)


def test_seed_with_a_wrong_symmetrizer_raises_value_error():
    b = ((0, 1), (-2, 0))
    ident = ((1, 0), (0, 1))
    assert Seed(b, ident, ident, (2, 1)).symmetrizer == (2, 1)
    assert Seed(b, ident, ident, (4, 2)) == initial_seed(b)
    for d in [(1, 1), (1, 2), (0, 0), (-2, -1), (2,), (2, 1, 1)]:
        with pytest.raises(ValueError):
            Seed(b, ident, ident, d)
    # a nonzero diagonal entry is not symmetrized by any D
    with pytest.raises(ValueError):
        Seed(((1, 0), (0, 0)), ident, ident, (1, 1))


def test_a_given_symmetrizer_is_positive_integers_one_per_row():
    # zero, negative, bool and Fraction entries would each pass both
    # identities, so only the check where a symmetrizer enters rejects them
    b = ((0, 1), (-2, 0))
    ident = ((1, 0), (0, 1))
    assert Seed(b, ident, ident, (4, 2)) == Seed(b, ident, ident, (2, 1))
    assert Seed(b, ident, ident, (4, 2)).symmetrizer == (4, 2)
    cases = [
        (b, (2,)),
        (b, (2, 1, 1)),
        ((), (1,)),
        (b, (0, 0)),
        (b, (-2, -1)),
        (b, (2, True)),
        (((0, 1), (-1, 0)), (True, True)),
        (b, (Fraction(2), Fraction(1))),
        (b, (1, 1)),
    ]
    for m, d in cases:
        g = c = tuple(ident[i][: len(m)] for i in range(len(m)))
        with pytest.raises(ValueError, match="^exchange matrix is not skew-symmetrizable$"):
            Seed(m, g, c, d)


def test_mutation_rejects_a_seed_whose_symmetrizer_was_replaced():
    seed = initial_seed(B3_B)
    object.__setattr__(seed, "symmetrizer", (1, 1, 1))
    with pytest.raises(ValueError):
        mutate_seed(seed, 1)


SYMMETRIZABLE_B = {"A3": A3_B, "A4": A4_B, "D4": D4_B, "B3": B3_B, "C3": C3_B, "G2": G2_B}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(SYMMETRIZABLE_B)),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=15),
)
def test_carried_symmetrizer_matches_a_fresh_derivation(name, walk):
    seed = initial_seed(SYMMETRIZABLE_B[name])
    for k in walk:
        seed = mutate_seed(seed, k % seed.rank)
        assert seed.symmetrizer == _symmetrizer(seed.b_matrix)



def _reference_symmetrizer(b):
    """Positive integer symmetrizer of a skew-symmetrizable matrix, or None:
    the derivation that checks the sign pattern and the consistency of
    every pair itself."""
    n = len(b)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if b[i][j] == 0 and b[j][i] == 0:
                    continue
                if (b[i][j] == 0) != (b[j][i] == 0) or b[i][j] * b[j][i] > 0:
                    return None
                if b[i][j] == 0:
                    continue
                req = d[i] * Fraction(abs(b[i][j]), abs(b[j][i]))
                if d[j] is None:
                    d[j] = req
                    stack.append(j)
                elif d[j] != req:
                    return None
    return primitive(d)


@st.composite
def square_matrices(draw):
    """Integer matrices with n <= 4: entries in -3..3, or skew-symmetrizable
    ones b_ij = d_j t_ij with d positive and t skew-symmetric."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-3, max_value=3)
    if draw(st.booleans()):
        return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    d = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    t = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        t[i][j] = draw(entry)
        t[j][i] = -t[i][j]
    return [[d[j] * t[i][j] for j in range(n)] for i in range(n)]


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_initial_seed_accepts_exactly_what_the_reference_symmetrizer_derives(b):
    expected = _reference_symmetrizer(b)
    if expected is None:
        with pytest.raises(ValueError, match="^exchange matrix is not skew-symmetrizable$"):
            initial_seed(b)
    else:
        assert initial_seed(b).symmetrizer == expected


def _row_major_mutation(b, g, c, k):
    """Reference mutation on the g- and c-matrices, whose columns are the
    g- and c-vectors: the matrix form of the tropical recurrence,
    g' = g.Jg and c' = c.Jc, one entry at a time."""
    n = len(b)
    col = [c[j][k] for j in range(n)]
    eps = 1 if any(x > 0 for x in col) else -1
    # g' = g . Jg with Jg[j][k] += max(0, -eps*b[j][k]), Jg[k][k] = -1
    g2 = [list(row) for row in g]
    for i in range(n):
        g2[i][k] = -g[i][k] + sum(
            g[i][j] * max(0, -eps * b[j][k]) for j in range(n) if j != k
        )
    # c' = c . Jc with Jc[k][j] += max(0, eps*b[k][j]), Jc[k][k] = -1
    c2 = [list(row) for row in c]
    for i in range(n):
        c2[i][k] = -c[i][k]
        for j in range(n):
            if j != k:
                c2[i][j] = c[i][j] + c[i][k] * max(0, eps * b[k][j])
    b2 = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                b2[i][j] = -b[i][j]
            else:
                s = (b[i][k] > 0) - (b[i][k] < 0)
                b2[i][j] = b[i][j] + s * max(0, b[i][k] * b[k][j])
    return tuple(map(tuple, b2)), tuple(map(tuple, g2)), tuple(map(tuple, c2))


def _transpose(vectors):
    return tuple(zip(*vectors))


TRIANGULATION_SEEDS = {
    "hexagon-snake": snake_triangulation(6),
    "hexagon-internal-triangle": Triangulation(6, [(2, 4), (4, 6), (2, 6)]),
    "heptagon-fan": fan_triangulation(7),
    "octagon-zigzag": Triangulation(8, [(1, 3), (3, 5), (5, 7), (1, 5), (1, 7)]),
}
DIFFERENTIAL_SEEDS = {
    **{name: initial_seed(b) for name, b in SYMMETRIZABLE_B.items()},
    **{name: seed_from_triangulation(t) for name, t in TRIANGULATION_SEEDS.items()},
}


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(DIFFERENTIAL_SEEDS)),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=20),
)
def test_mutation_equals_the_row_major_reference(name, walk):
    seed = DIFFERENTIAL_SEEDS[name]
    b, g, c = seed.b_matrix, seed.g_vectors, seed.c_vectors
    g, c = _transpose(g), _transpose(c)
    symmetrizer = seed.symmetrizer
    for step in walk:
        k = step % seed.rank
        seed = mutate_seed(seed, k)
        b, g, c = _row_major_mutation(b, g, c, k)
        assert seed.b_matrix == b
        assert _transpose(seed.g_vectors) == g
        assert _transpose(seed.c_vectors) == c
        assert seed.symmetrizer == symmetrizer


@pytest.mark.parametrize(
    "b",
    [((0, 1, 0), (-1, 0)), ((0, 1), (-1,)), ((0, 1), (-1, 0), (0, 0))],
    ids=["long-row", "short-row", "extra-row"],
)
def test_seed_rejects_an_exchange_matrix_that_is_not_square(b):
    # every row must have one entry per row: a mutated seed's proof covers
    # only what the mutation rebuilt, so the start seed's must be whole
    with pytest.raises(ValueError, match="not square"):
        initial_seed(b)


def test_seed_rejects_g_vectors_that_are_not_unimodular():
    b, ident = ((0, 1), (-1, 0)), ((1, 0), (0, 1))
    s = mutate_seed(initial_seed(b), 0)
    assert s.g_vectors == ((-1, 1), (0, 1))
    assert Seed(s.b_matrix, s.g_vectors, s.c_vectors) == s
    # ((1, 1), (0, 1)) is unimodular but not dual to the identity
    # c-vectors, so no seed of a cluster pattern has it
    for g in [((1, 1), (0, 1)), ((1, 1), (1, -1)), ((1, 0), (2, 0)), ((2, 0), (0, 1))]:
        with pytest.raises(ValueError, match="unimodular"):
            Seed(b, g, ident)


def test_seed_rejects_a_c_vector_that_is_not_sign_coherent():
    b, ident = ((0, 1), (-1, 0)), ((1, 0), (0, 1))
    s = mutate_seed(initial_seed(b), 0)
    assert s.c_vectors == ((-1, 0), (1, 1))
    assert Seed(s.b_matrix, s.g_vectors, s.c_vectors) == s
    # sign-coherent, but not dual to the identity g-vectors
    with pytest.raises(ValueError, match="unimodular"):
        Seed(b, ident, ((-1, 0), (1, 1)))
    # read as a matrix by rows, both columns of ((1, -1), (1, 0)) would be
    # sign-coherent: the check reads the c-vectors themselves
    for c in [((1, -1), (0, 1)), ((1, -1), (1, 0)), ((1, 0), (2, -1))]:
        with pytest.raises(ValueError, match="sign-coherent"):
            Seed(b, ident, c)


@st.composite
def mutated_non_2_finite_seeds(draw):
    """A random skew-symmetric 3x3 or 4x4 seed with some |b_ij b_ji| >= 4,
    mutated along a random walk of L <= 3 steps; returns (seed, n, L)."""
    n = draw(st.sampled_from([3, 4]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    b = [[0] * n for _ in range(n)]
    for i, j in pairs:
        b[i][j] = draw(st.integers(min_value=-3, max_value=3))
    i, j = draw(st.sampled_from(pairs))
    b[i][j] = draw(st.sampled_from([-3, -2, 2, 3]))
    for i, j in pairs:
        b[j][i] = -b[i][j]
    walk = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3))
    seed = initial_seed(b)
    for k in walk:
        seed = mutate_seed(seed, k)
    return seed, n, len(walk)


@settings(max_examples=80, deadline=None)
@given(mutated_non_2_finite_seeds())
def test_infinite_type_is_rejected_within_the_walk_back(case):
    # undoing the walk reaches the start seed, which is not 2-finite, within
    # depth L; the BFS reaches every seed of depth <= L within
    # sum_{i <= L} n^i nodes, so plain BudgetExceeded cannot come first
    seed, n, length = case
    with pytest.raises(InfiniteType, match="infinite type"):
        enumerate_fan(seed, budget=sum(n**i for i in range(length + 1)))


def test_flip_graph_square():
    g = flip_graph(4)
    assert len(g.nodes) == 2
    assert len(g.edges) == 1


def test_flip_graph_pentagon():
    g = flip_graph(5)
    assert len(g.nodes) == 5
    assert len(g.edges) == 5
    deg = [0] * 5
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    assert deg == [2] * 5


def test_flip_graph_hexagon():
    g = flip_graph(6)
    assert len(g.nodes) == 14
    assert len(g.edges) == 21
    deg = [0] * 14
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    assert deg == [3] * 14


def test_flip_graph_matches_the_brute_force_oracle():
    """The triangulations are the pairwise non-crossing (m-3)-sets of
    diagonals, in sorted order, and a flip joins two that share m-4."""
    for m in range(4, 9):
        diagonals = [d for d in combinations(range(1, m + 1), 2) if is_diagonal(d, m)]
        nodes = [
            c
            for c in combinations(diagonals, m - 3)
            if not any(diagonals_cross(d1, d2) for d1, d2 in combinations(c, 2))
        ]
        edges = [
            (i, j)
            for i, j in combinations(range(len(nodes)), 2)
            if len(set(nodes[i]) & set(nodes[j])) == m - 4
        ]
        assert [t.diagonals for t in all_triangulations(m)] == nodes
        g = flip_graph(m)
        assert [t.diagonals for t in g.nodes] == nodes
        assert list(g.edges) == edges


@pytest.mark.parametrize("m", range(4, 12))
def test_all_triangulations_are_the_flip_graph_nodes(m):
    tris = all_triangulations(m)
    assert tris == list(flip_graph(m).nodes)
    assert len(tris) == math.comb(2 * (m - 2), m - 2) // (m - 1)  # Catalan C_(m-2)


@pytest.mark.parametrize("m", range(4, 9))
def test_flip_graph_flips_each_edge_once(monkeypatch, m):
    calls = []
    real = clusterfan._flipped

    def counting_flipped(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(clusterfan, "_flipped", counting_flipped)
    edges = flip_graph(m).edges
    assert len(calls) == len(edges)


@st.composite
def random_triangulations(draw):
    """A triangulation of a 4- to 11-gon, cut recursively at a drawn apex."""
    m = draw(st.integers(min_value=4, max_value=11))
    diags = set()

    def split(cycle):
        if len(cycle) <= 3:
            return
        i = draw(st.integers(min_value=2, max_value=len(cycle) - 1))
        for u in (cycle[0], cycle[1]):
            d = tuple(sorted((u, cycle[i])))
            if is_diagonal(d, m):
                diags.add(d)
        split(cycle[1 : i + 1])
        split((cycle[0],) + cycle[i:])

    split(tuple(range(1, m + 1)))
    return Triangulation(m, diags)


def _triangle_scan_flip(tri, diagonal):
    """Reference flip: the quadrilateral is the union of the two triangles
    of tri.triangles() that contain the diagonal."""
    d = tuple(sorted(diagonal))
    incident = [t for t in tri.triangles() if d[0] in t and d[1] in t]
    assert len(incident) == 2
    other = tuple(sorted((set(incident[0]) | set(incident[1])) - set(d)))
    new_diags = tuple(other if x == d else x for x in tri.diagonals)
    return Triangulation(tri.polygon_size, new_diags), other


@settings(max_examples=120, deadline=None)
@given(random_triangulations())
def test_flip_equals_the_triangle_scan_reference(tri):
    for d in tri.diagonals:
        assert flip(tri, d) == _triangle_scan_flip(tri, d)
        assert flip(tri, d[::-1]) == _triangle_scan_flip(tri, d)
    with pytest.raises(ValueError, match="not a diagonal"):
        flip(tri, (1, 2))


def _starting_triangulations(polygon):
    """All starts for small polygons, a deterministic sample above that."""
    tris = all_triangulations(polygon)
    if len(tris) <= 14:
        return tris
    return tris[::7][:5] + [fan_triangulation(polygon), snake_triangulation(polygon)]


@pytest.mark.parametrize("polygon", [4, 5, 6, 7])
def test_exchange_graph_isomorphic_to_flip_graph_any_start(polygon):
    fg = flip_graph(polygon)
    for tri in _starting_triangulations(polygon):
        enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
        assert len(enum.graph.nodes) == len(fg.nodes)
        assert len(enum.graph.edges) == len(fg.edges)
        mapping = {i: frozenset(t) for i, t in enumerate(enum.node_triangulations)}
        assert len(set(mapping.values())) == len(mapping)
        fg_edges = {
            frozenset((frozenset(fg.nodes[a].diagonals), frozenset(fg.nodes[b].diagonals)))
            for a, b in fg.edges
        }
        mapped = {frozenset((mapping[a], mapping[b])) for a, b, _p in enum.graph.edges}
        assert mapped == fg_edges
        assert frozenset(tri.diagonals) in set(mapping.values())


@pytest.mark.parametrize("polygon", [4, 5, 6, 7])
def test_exchange_graph_isomorphic_to_flip_graph(polygon):
    tri = fan_triangulation(polygon)
    enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
    fg = flip_graph(polygon)
    assert len(enum.graph.nodes) == len(fg.nodes)
    assert len(enum.graph.edges) == len(fg.edges)
    # explicit bijection: node -> its tracked triangulation
    node_diag_sets = [frozenset(t) for t in enum.node_triangulations]
    assert len(set(node_diag_sets)) == len(node_diag_sets)
    mapping = {i: frozenset(t) for i, t in enumerate(enum.node_triangulations)}
    fg_edges = {
        frozenset((frozenset(fg.nodes[a].diagonals), frozenset(fg.nodes[b].diagonals)))
        for a, b in fg.edges
    }
    mapped = {frozenset((mapping[a], mapping[b])) for a, b, _pair in enum.graph.edges}
    assert mapped == fg_edges
    # the initial node is matched to the starting triangulation
    assert frozenset(tri.diagonals) in node_diag_sets


def test_diagonal_ray_dictionary_pentagon():
    tri = fan_triangulation(5)
    enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
    assert enum.diagonal_rays == {
        (1, 3): (1, 0),
        (1, 4): (0, 1),
        (2, 4): (-1, 1),
        (2, 5): (-1, 0),
        (3, 5): (0, -1),
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=13), st.integers(min_value=0, max_value=2))
def test_mutation_commutes_with_flip(tri_index, k):
    # mutating direction k of a triangulation's seed produces the seed of the
    # flipped triangulation, up to the sort permutation of the diagonals
    tris = all_triangulations(6)
    tri = tris[tri_index]
    seed = seed_from_triangulation(tri)
    mutated = mutate_seed(seed, k)
    flipped, new_diag = flip(tri, tri.diagonals[k])
    reference = seed_from_triangulation(flipped)
    unsorted_diags = tuple(
        new_diag if i == k else tri.diagonals[i] for i in range(3)
    )
    perm = [flipped.diagonals.index(d) for d in unsorted_diags]
    conjugated = tuple(
        tuple(reference.b_matrix[perm[i]][perm[j]] for j in range(3)) for i in range(3)
    )
    assert mutated.b_matrix == conjugated


def test_g_columns_unimodular_along_walk():
    rng = random.Random(0)
    seed = initial_seed(A3_B)
    from fanforge.linalg import det_int

    for _ in range(50):
        seed = mutate_seed(seed, rng.randrange(3))
        assert abs(det_int([list(r) for r in seed.g_vectors])) == 1


def test_seed_json_b_matrix():
    seed, tri = seed_from_json('{"b": [[0, 1], [-1, 0]]}')
    assert tri is None
    assert seed.b_matrix == ((0, 1), (-1, 0))


def test_seed_json_triangulation():
    seed, tri = seed_from_json(
        '{"triangulation": {"polygon": 5, "diagonals": [[1, 3], [1, 4]]}}'
    )
    assert tri is not None
    assert seed.b_matrix == ((0, 1), (-1, 0))


def test_seed_json_takes_one_form():
    tri = '{"polygon": 5, "diagonals": [[1, 3], [1, 4]]}'
    with pytest.raises(ValueError, match="not both"):
        seed_from_json(f'{{"triangulation": {tri}, "b": [[0]]}}')


@pytest.mark.parametrize(
    "text",
    [
        '{"b": 5}',
        '{"b": [[0, "1"], [-1, 0]]}',
        '{"b": [[0, 1], [-1, 0]], "labels": [1.5, 2]}',
        '{"b": [[0, 1], [-1, 0]], "labels": 3}',
        '{"triangulation": {"polygon": "x", "diagonals": 3}}',
        '{"triangulation": {"polygon": 5, "diagonals": 3}}',
        '{"triangulation": [5]}',
        '{"triangulation": {"polygon": 5, "diagonals": [[1, 3], [1, 4]]}, "labels": 3}',
    ],
)
def test_seed_json_with_wrongly_typed_fields_raises_value_error(text):
    with pytest.raises(ValueError):
        seed_from_json(text)


def test_dot_export_deterministic():
    enum = enumerate_fan(initial_seed(A2_B))
    dot = enum.graph.to_dot()
    assert dot == enum.graph.to_dot()
    assert dot.startswith("graph exchange {")
    assert dot.count(" -- ") == 5


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(DIFFERENTIAL_SEEDS)),
    st.lists(st.integers(min_value=0, max_value=4), max_size=20),
)
def test_exchanged_g_vector_is_the_mutated_seeds_g_vector(name, walk):
    seed = DIFFERENTIAL_SEEDS[name]
    for step in walk:
        seed = mutate_seed(seed, step % seed.rank)
        for k in range(seed.rank):
            assert exchanged_g_vector(seed, k) == mutate_seed(seed, k).g_vectors[k]
    with pytest.raises(ValueError, match="out of range"):
        exchanged_g_vector(seed, seed.rank)


def _eager_enumerate_fan(seed, triangulation=None):
    """Reference BFS: level by level, it builds all n mutated seeds (and
    flipped triangulations) of every cluster, keys each by its full
    g-vector set, and matches every (diagonal, g-vector) pair of every
    cluster in a second pass."""
    n = seed.rank
    _check_finite_type(seed.b_matrix, 0, range(n))
    start_key = frozenset(seed.g_vectors)
    states = {start_key: (seed, triangulation.diagonals if triangulation else None)}
    order, frontier, edges = [start_key], [start_key], set()
    while frontier:
        next_frontier = []
        for key in frontier:
            s, diags = states[key]
            for k in range(n):
                s2 = mutate_seed(s, k)
                diags2 = None
                if diags is not None:
                    _t, new_diag = flip(Triangulation(triangulation.polygon_size, diags), diags[k])
                    diags2 = tuple(new_diag if i == k else diags[i] for i in range(n))
                key2 = frozenset(s2.g_vectors)
                if key2 not in states:
                    _check_finite_type(s2.b_matrix, len(states), range(n))
                    states[key2] = (s2, diags2)
                    order.append(key2)
                    next_frontier.append(key2)
                ray_pair = tuple(sorted((s.g_vectors[k], s2.g_vectors[k])))
                edges.add((frozenset((key, key2)), ray_pair))
        frontier = next_frontier

    all_rays = sorted({g for key in order for g in key}, reverse=True)
    ray_index = {g: i for i, g in enumerate(all_rays)}
    cone_of = {key: tuple(sorted(ray_index[g] for g in key)) for key in order}
    labels, diagonal_rays = None, {}
    if triangulation is not None:
        for key in order:
            s, diags = states[key]
            for k in range(n):
                if diagonal_rays.setdefault(diags[k], s.g_vectors[k]) != s.g_vectors[k]:
                    raise InconsistentSystem(f"diagonal {diags[k]} matched two g-vectors")
        ray_diag = {ray_index[g]: d for d, g in diagonal_rays.items()}
        labels = [f"{ray_diag[i][0]}-{ray_diag[i][1]}" for i in range(len(all_rays))]
    fan = Fan(n, all_rays, list(cone_of.values()), labels)
    cone_pos = {cone: i for i, cone in enumerate(fan.maximal_cones)}
    node_of_key = {key: cone_pos[cone_of[key]] for key in order}
    graph_edges = set()
    for key_pair, ray_pair in edges:
        k1, k2 = tuple(key_pair)
        a, b = sorted((node_of_key[k1], node_of_key[k2]))
        graph_edges.add((a, b, tuple(sorted(ray_index[g] for g in ray_pair))))
    graph = ExchangeGraph(fan.maximal_cones, tuple(sorted(graph_edges)))
    node_triangulations = ()
    if triangulation is not None:
        by_node = sorted((node_of_key[key], states[key][1]) for key in order)
        node_triangulations = tuple(t for _i, t in by_node)
    return fan, graph, node_triangulations, diagonal_rays


def _assert_same_enumeration(seed, triangulation=None):
    got = enumerate_fan(seed, triangulation=triangulation)
    fan, graph, node_triangulations, diagonal_rays = _eager_enumerate_fan(seed, triangulation)
    assert got.fan == fan and got.fan.labels == fan.labels
    assert got.graph == graph
    assert got.node_triangulations == node_triangulations
    assert got.diagonal_rays == diagonal_rays
    assert list(got.diagonal_rays) == list(diagonal_rays)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(SYMMETRIZABLE_B)),
    st.lists(st.integers(min_value=0, max_value=3), max_size=12),
)
def test_bfs_equals_the_eager_reference_on_mutated_seeds(name, walk):
    seed = initial_seed(SYMMETRIZABLE_B[name])
    for step in walk:
        seed = mutate_seed(seed, step % seed.rank)
    _assert_same_enumeration(seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=6, max_value=8), st.integers(min_value=0))
def test_bfs_equals_the_eager_reference_on_triangulations(polygon, index):
    tris = all_triangulations(polygon)
    tri = tris[index % len(tris)]
    _assert_same_enumeration(seed_from_triangulation(tri), tri)


@pytest.mark.parametrize("name", ["A3", "D4", "heptagon-fan"])
def test_bfs_builds_one_seed_per_new_cluster(monkeypatch, name):
    tri = TRIANGULATION_SEEDS.get(name)
    seed = DIFFERENTIAL_SEEDS[name]
    calls = []
    mutated = clusterfan._mutated

    def counting_mutated(s, k, g_k):
        calls.append(k)
        return mutated(s, k, g_k)

    monkeypatch.setattr(clusterfan, "_mutated", counting_mutated)
    enum = enumerate_fan(seed, triangulation=tri)
    assert len(calls) == len(enum.graph.nodes) - 1


@pytest.mark.parametrize("name", ["A3", "D4", "heptagon-fan"])
def test_bfs_skips_the_direction_back_to_the_parent(monkeypatch, name):
    # every cluster but the start was reached along one direction, and
    # mutating back along it would only find the parent again; an edge to a
    # later cluster is not looked up again from that cluster either, so
    # each edge takes one exchanged g-vector; every seed is still proved
    # (one _dual call each, the start seed's at its construction) and
    # tested for 2-finiteness
    tri = TRIANGULATION_SEEDS.get(name)
    calls = {"exchanged": 0, "dual": 0, "finite": 0}
    exchanged, dual, finite = (
        clusterfan.exchanged_g_vector,
        clusterfan._dual,
        clusterfan._check_finite_type,
    )

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(clusterfan, "exchanged_g_vector", counting("exchanged", exchanged))
    monkeypatch.setattr(clusterfan, "_dual", counting("dual", dual))
    monkeypatch.setattr(clusterfan, "_check_finite_type", counting("finite", finite))
    if tri is None:
        seed = initial_seed(SYMMETRIZABLE_B[name])
    else:
        seed = seed_from_triangulation(tri)
    enum = enumerate_fan(seed, triangulation=tri)
    nodes = len(enum.graph.nodes)
    assert calls == {"exchanged": len(enum.graph.edges), "dual": nodes, "finite": nodes}


@pytest.mark.parametrize("name", ["A3", "D4", "B3", "G2", "heptagon-fan", "octagon-zigzag"])
def test_bfs_resolves_each_edge_with_one_exchanged_g_vector(monkeypatch, name):
    tri = TRIANGULATION_SEEDS.get(name)
    seen = []
    exchanged = clusterfan.exchanged_g_vector

    def recorded(s, k):
        # the edge is the wall both its clusters share
        seen.append(frozenset(s.g_vectors) - {s.g_vectors[k]})
        return exchanged(s, k)

    monkeypatch.setattr(clusterfan, "exchanged_g_vector", recorded)
    enum = enumerate_fan(DIFFERENTIAL_SEEDS[name], triangulation=tri)
    # no edge is looked up twice, from either end
    assert len(seen) == len(set(seen)) == len(enum.graph.edges)
    assert len(enum.graph.edges) * 2 == DIFFERENTIAL_SEEDS[name].rank * len(enum.graph.nodes)


@pytest.mark.parametrize("name, walk", [("D4", [0, 1, 3]), ("B3", [1, 0, 2, 1])])
def test_mutation_shares_the_rows_it_does_not_change(name, walk):
    seed = DIFFERENTIAL_SEEDS[name]
    for k in walk:
        s2 = mutate_seed(seed, k)
        for i, (row, row2) in enumerate(zip(seed.b_matrix, s2.b_matrix)):
            assert (row2 is row) == (i != k and row[k] == 0)
        seed = s2


def test_largest_finite_type_per_rank():
    # rank 6 is B6/C6, not E6 (833); rank 9 is E8 x A1, not B9 (48620)
    got = [clusterfan._largest_finite_type(n) for n in range(1, 10)]
    assert got == [2, 8, 20, 105, 252, 924, 4160, 25080, 50160]


def test_infinite_type_is_rejected_at_the_finite_type_bound(monkeypatch):
    # linear affine E6, the centre 1 with arms 1-2-3, 1-4-5 and 1-6-7: every
    # seed is 2-finite up to node 2571, so only the bound can stop it earlier
    b = [[0] * 7 for _ in range(7)]
    for s, t in [(3, 2), (2, 1), (5, 4), (4, 1), (7, 6), (6, 1)]:
        b[t - 1][s - 1] += 1
        b[s - 1][t - 1] -= 1
    monkeypatch.setattr(clusterfan, "_largest_finite_type", lambda n: 1500)
    bound = "1501 clusters, more than the 1500 of any finite type of rank 7"
    with pytest.raises(InfiniteType, match=bound):
        enumerate_fan(initial_seed(b))


@pytest.mark.parametrize("name", ["heptagon-fan", "octagon-zigzag"])
def test_tracked_bfs_validates_each_triangulation_once(monkeypatch, name):
    tri = TRIANGULATION_SEEDS[name]
    seed = seed_from_triangulation(tri)
    calls = {"new": 0, "triangles": 0}
    new, triangles = Triangulation.__new__, Triangulation.triangles

    def counting_new(cls, *args):
        calls["new"] += 1
        return new(cls, *args)

    def counting_triangles(self):
        calls["triangles"] += 1
        return triangles(self)

    monkeypatch.setattr(Triangulation, "__new__", counting_new)
    monkeypatch.setattr(Triangulation, "triangles", counting_triangles)
    enum = enumerate_fan(seed, triangulation=tri)
    # flips reuse the validated start, so no Triangulation is built;
    # triangles() runs only for the check that the seed matches the start
    assert calls == {"new": 0, "triangles": 1}
