"""Seeds, g-vector mutation, fan enumeration, and the polygon oracle.

A seed is an exchange matrix together with its g-vectors and c-vectors,
stored as one tuple per direction; mutation follows the sign-coherent
tropical recurrence (Nakanishi-Zelevinsky, "On tropical dualities in cluster
algebras", 2012), which replaces g-vector k and the c-vectors it touches, so
cluster variables are tracked purely through their integer g-vectors (which
separate variables in finite type). A seed also carries the positive integer
symmetrizer D of its exchange matrix. The integer identity
d_i b_ij = -d_j b_ji on every pair is the one test of skew-symmetrizability:
for a seed built from input, D is only proposed (along a spanning forest of
the nonzero pairs) and then put to that test, and mutation, which preserves
D-symmetrizability, passes D on, so each mutated matrix is certified by the
same identity instead of a fresh derivation. The same D makes the g- and
c-vectors dual, G D C^T = D: one integer identity proves a seed's
g-vectors unimodular and gives its cone's inverse D^-1 C D, which the
enumerator hands to the fan it builds. Every seed is proved by one route
(_prove), on what it does not share with a proved parent. A start seed
is proved on every entry, a mutated seed only on what its mutation
rebuilt: the pairs on its rebuilt rows of B, its rebuilt c-vectors, and
the rows of rebuilt g-vectors and the columns of rebuilt c-vectors of
G D C^T; the rest is its parent's. A mutation rebuilds only g-vector k,
row k of the exchange matrix and the rows i with b_ik != 0, and c_k and
the c-vectors c_j with eps b_kj > 0. The fan
enumerator is a BFS over clusters: mutation in direction k changes only
g-vector k, so a neighbour is named by the cluster's rays with g_k
exchanged (exchanged_g_vector), and a full seed is built, once, only for
a cluster not seen before. Each exchange-graph edge is resolved once,
from the end the BFS reaches first: a cluster never looks again along
the direction that reached it (mutation is an involution) or along one
by which an earlier cluster found it. The BFS raises InfiniteType as
soon as a reached seed has |b_ij b_ji| > 3 (Fomin-Zelevinsky, "Cluster
algebras II", Invent. Math. 2003, Thm 1.8), or once it holds more
clusters than any finite type of its rank has (_largest_finite_type);
for type A it can carry polygon triangulations alongside, which yields
the diagonal-to-ray dictionary used by the mesh cross-checks.
A diagonal is a sorted vertex pair (is_diagonal), and a flip reads its
quadrilateral off the triangulation's edges (_flipped). The tracked BFS
flips each cluster's diagonals with that rule and validates only the start
triangulation, since a flip of a triangulation is one; the flip graph is
the flip closure of the fan triangulation at vertex 1.
"""

import json
from collections import namedtuple
from fractions import Fraction
from itertools import chain, combinations
from math import comb

from .errors import BudgetExceeded, InconsistentSystem, InfiniteType
from .linalg import dot, primitive
from .polyhedra import Fan, _immutable, _json_field, int_rows

DEFAULT_BFS_BUDGET = 100_000


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _symmetrizer(b):
    """The one candidate for a positive integer symmetrizer of b: d = 1 at
    the first vertex of each component of the pairs whose two entries are
    nonzero, d_j = d_i |b_ij| / |b_ji| along a spanning forest, then made
    primitive. Whether it symmetrizes b is for _symmetrizes to decide."""
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
                if d[j] is None and b[i][j] and b[j][i]:
                    d[j] = d[i] * Fraction(abs(b[i][j]), abs(b[j][i]))
                    stack.append(j)
    return primitive(d)


def _symmetrizes(d, b, rows):
    """Whether d_i b_ij = -d_j b_ji for every i in rows and every j (which
    also forces a zero diagonal), each row in rows having len(d) entries:
    the one test of skew-symmetrizability. A start seed tests every row, a
    mutated seed the rows its mutation rebuilt (_prove)."""
    n = len(d)
    if any(len(b[i]) != n for i in rows):
        return False
    return all(d[i] * b[i][j] == -d[j] * b[j][i] for i in rows for j in range(n))


def _dual(g, c, d, rows, cols):
    """Whether the g-vectors g and c-vectors c are integer and dual under
    the symmetrizer d: sum_k g_j[k] d_k c_i[k] = d_j [i == j] for all i, j,
    that is G D C^T = D (Nakanishi-Zelevinsky 2012). Then det G det C = 1,
    so G is unimodular and M = G^T, the g-vectors as columns, has the
    integer inverse D^-1 C D. Only the rows j in rows and the columns i in
    cols of G D C^T are tested, on g_j and c_i alone: all of them for a
    start seed, for a mutated seed those its mutation rebuilt (_prove)."""
    n = len(d)
    if not len(g) == len(c) == n:
        return False
    tested = [g[j] for j in rows] + [c[i] for i in cols]
    if not all(len(v) == n for v in tested):
        return False
    if not set(map(type, chain(*tested))) <= {int}:  # a rank-0 seed has no entries
        return False
    # row j of G D C^T is (D g_j) . c_i over i, column i is g_j . (D c_i)
    # over j; either is d_j or d_i at its diagonal entry and 0 elsewhere
    scaled = d.count(1) != n
    for v, j, others in [(g[j], j, c) for j in rows] + [(c[i], i, g) for i in cols]:
        if scaled:
            v = tuple(dk * x for dk, x in zip(d, v))
        target = [0] * n
        target[j] = d[j]
        if [dot(v, w) for w in others] != target:
            return False
    return True


def _rebuilt(new, old):
    """The indices where new holds a tuple of its own, not old's: what a
    mutation rebuilt, read off by identity rather than by the mutation
    rule, so a wrong update anywhere is in scope. No old: every index."""
    return [i for i, x in enumerate(new) if old is None or x is not old[i]]


def _prove(b, g, c, d, parent=None):
    """Raise ValueError unless b, g, c and d make a seed of a cluster
    pattern: d symmetrizes b (_symmetrizes), each c-vector is
    sign-coherent and G D C^T = D (_dual), on the tuples of b, g and c
    that are not parent's, the proved seed they were mutated from over the
    same d (_rebuilt): every other entry is parent's, so the proof is as
    complete as parent's. A start seed has no parent: every entry is new."""
    b_rows = _rebuilt(b, getattr(parent, "b_matrix", None))
    g_rows = _rebuilt(g, getattr(parent, "g_vectors", None))
    c_cols = _rebuilt(c, getattr(parent, "c_vectors", None))
    if not _symmetrizes(d, b, b_rows):
        raise ValueError("exchange matrix is not skew-symmetrizable")
    for k in c_cols:
        if not (min(c[k], default=0) >= 0 or max(c[k]) <= 0):
            raise ValueError(f"c-vector {k} is not sign-coherent")
    if not _dual(g, c, d, g_rows, c_cols):
        raise ValueError("g-vectors are not proved unimodular: G D C^T != D")


def _inverse_rows(seed):
    """The rows of M^-1 = D^-1 C D for M the seed's g-vectors as columns,
    one per direction, which the seed's identity proved (_dual): row j is
    c_j with entry k scaled by d_k / d_j, an exact division, and is c_j
    itself when D = I."""
    c, d = seed.c_vectors, seed.symmetrizer
    if d.count(1) == len(d):
        return c
    return tuple(tuple(dk * x // dj for dk, x in zip(d, cj)) for cj, dj in zip(c, d))


class Seed:
    """Mutation state: the exchange matrix plus the g-vectors and c-vectors
    of the current cluster, one tuple per direction, and the positive
    integer symmetrizer D with d_i b_ij = -d_j b_ji, derived when not
    given. Equality and hash ignore D.

    Construction requires a square exchange matrix and one positive integer
    of D per row, and tests (_prove) that D symmetrizes it, that each
    c-vector is sign-coherent and that G D C^T = D (_dual), as every seed
    of a cluster pattern does (Nakanishi-Zelevinsky 2012). The identity
    proves the g-vectors unimodular and gives each cone its inverse
    (_inverse_rows). A seed built here has no parent, so every entry is
    tested; a mutated seed (_mutated) is proved by the same route on the
    entries its mutation rebuilt."""

    __slots__ = ("b_matrix", "g_vectors", "c_vectors", "symmetrizer")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, b_matrix, g_vectors, c_vectors, symmetrizer=None):
        if any(len(row) != len(b_matrix) for row in b_matrix):
            raise ValueError("exchange matrix is not square")
        d = _symmetrizer(b_matrix) if symmetrizer is None else symmetrizer
        if len(d) != len(b_matrix) or any(type(x) is not int or x < 1 for x in d):
            raise ValueError("exchange matrix is not skew-symmetrizable")
        _prove(b_matrix, g_vectors, c_vectors, d)
        _fill(self, b_matrix, g_vectors, c_vectors, d)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.b_matrix, self.g_vectors, self.c_vectors) == (
            other.b_matrix,
            other.g_vectors,
            other.c_vectors,
        )

    def __hash__(self):
        return hash((self.b_matrix, self.g_vectors, self.c_vectors))

    def __repr__(self):
        b, g, c = self.b_matrix, self.g_vectors, self.c_vectors
        return f"Seed(b_matrix={b!r}, g_vectors={g!r}, c_vectors={c!r})"

    @property
    def rank(self):
        return len(self.b_matrix)


def _fill(seed, b, g, c, d):
    """Set the fields of a seed that _prove has proved."""
    put = object.__setattr__
    put(seed, "b_matrix", b)
    put(seed, "g_vectors", g)
    put(seed, "c_vectors", c)
    put(seed, "symmetrizer", d)


def initial_seed(b_matrix):
    """Seed with g = c = identity over the given exchange matrix."""
    b = tuple(tuple(row) for row in b_matrix)
    ident = _identity(len(b))
    return Seed(b, ident, ident)


def exchanged_g_vector(seed, k):
    """The g-vector that mutation in direction k (0-based) puts in place of
    g_k: g'_k = -g_k + sum_{j != k} max(0, -eps*b_jk) g_j, where eps is the
    sign of c_k. Mutation changes no other g-vector, so this alone names
    the neighbouring cluster."""
    n = seed.rank
    if not 0 <= k < n:
        raise ValueError(f"direction {k} out of range")
    b, g = seed.b_matrix, seed.g_vectors
    eps = 1 if max(seed.c_vectors[k]) > 0 else -1
    g_k = [-x for x in g[k]]
    for j in range(n):
        coeff = -eps * b[j][k]
        if j != k and coeff > 0:
            g_k = [x + coeff * y for x, y in zip(g_k, g[j])]
    return tuple(g_k)


def mutate_seed(seed, k):
    """Mutation in direction k (0-based). Exchange matrix mutates by the
    standard rule; g- and c-vectors mutate by the sign-coherent tropical
    recurrence, and every vector it does not change is shared with the old
    seed. The symmetrizer is passed on unchanged and certifies the new
    exchange matrix. The new seed is proved by Seed's tests on the entries
    the mutation rebuilt (_prove): the rest is the old seed's, which is
    proved. An involution: mutate_seed(mutate_seed(s, k), k) == s."""
    return _mutated(seed, k, exchanged_g_vector(seed, k))


def _mutated(seed, k, g_k):
    """mutate_seed(seed, k) given g_k = exchanged_g_vector(seed, k)."""
    n = seed.rank
    b, g, c = seed.b_matrix, seed.g_vectors, seed.c_vectors
    eps = 1 if max(c[k]) > 0 else -1
    # c'_j = c_j + max(0, eps*b_kj) c_k for j != k, and c'_k = -c_k
    c2 = list(c)
    c2[k] = tuple(-x for x in c[k])
    for j in range(n):
        coeff = eps * b[k][j]
        if j != k and coeff > 0:
            c2[j] = tuple(x + coeff * y for x, y in zip(c[j], c[k]))
    # b'_ij = -b_ij on row and column k, else b_ij + sgn(b_ik) max(0, b_ik b_kj),
    # which is b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2, an exact division; a
    # row i with b_ik = 0 gains 0 everywhere, so it is shared with the old seed
    b_k = b[k]
    b2 = list(b)
    b2[k] = tuple(-x for x in b_k)
    for i, row in enumerate(b):
        b_ik = row[k]
        if b_ik:  # never on row k: b_kk = 0
            new = [x + (abs(b_ik) * y + b_ik * abs(y)) // 2 for x, y in zip(row, b_k)]
            new[k] = -b_ik
            b2[i] = tuple(new)
    b2, g2, c2, d = tuple(b2), g[:k] + (g_k,) + g[k + 1 :], tuple(c2), seed.symmetrizer
    # the parent is proved, so only what this mutation rebuilt is tested
    _prove(b2, g2, c2, d, seed)
    s2 = object.__new__(Seed)
    _fill(s2, b2, g2, c2, d)
    return s2


def is_diagonal(d, polygon_size):
    """Whether the sorted pair d = (a, b), 1 <= a < b <= polygon_size, joins
    two vertices that are not adjacent on the polygon's boundary."""
    return 2 <= d[1] - d[0] <= polygon_size - 2


class Triangulation(namedtuple("Triangulation", "polygon_size diagonals")):
    """Triangulation of a convex polygon with vertices 1..polygon_size in
    counterclockwise order; diagonals are sorted endpoint pairs."""

    __slots__ = ()

    def __new__(cls, polygon_size, diagonals):
        if polygon_size < 4:
            raise ValueError("polygon must have at least 4 vertices")
        diags = tuple(sorted(tuple(sorted(d)) for d in diagonals))
        for a, b in diags:
            if not (1 <= a < b <= polygon_size):
                raise ValueError(f"diagonal {(a, b)} endpoints out of range")
            if not is_diagonal((a, b), polygon_size):
                raise ValueError(f"{(a, b)} joins adjacent boundary vertices")
        if len(set(diags)) != len(diags):
            raise ValueError("repeated diagonal")
        if len(diags) != polygon_size - 3:
            raise ValueError(f"a triangulation needs exactly {polygon_size - 3} diagonals")
        for d1, d2 in combinations(diags, 2):
            if diagonals_cross(d1, d2):
                raise ValueError(f"diagonals {d1} and {d2} cross")
        return super().__new__(cls, polygon_size, diags)

    def triangles(self):
        """The polygon_size - 2 triangular faces, as sorted vertex triples."""
        edges = set(self.diagonals)
        m = self.polygon_size
        for i in range(1, m):
            edges.add((i, i + 1))
        edges.add((1, m))
        tris = [
            (p, q, r)
            for p, q, r in combinations(range(1, m + 1), 3)
            if (p, q) in edges and (q, r) in edges and (p, r) in edges
        ]
        if len(tris) != m - 2:
            raise InconsistentSystem("triangulation face count mismatch")
        return tris


def diagonals_cross(d1, d2):
    """Strict interior crossing of two chords of a convex polygon."""
    a, b = d1
    c, d = d2
    if len({a, b, c, d}) < 4:
        return False
    inside_c = a < c < b
    inside_d = a < d < b
    return inside_c != inside_d


def seed_from_triangulation(tri):
    """Seed of a polygon triangulation: the exchange matrix is the signed
    adjacency of diagonals sharing a triangle (arrow = counterclockwise turn
    around the common vertex), g and c start as the identity. Direction k
    corresponds to the k-th diagonal in the triangulation's sorted order."""
    return initial_seed(_triangulation_matrix(tri))


def _triangulation_matrix(tri):
    """The exchange matrix of seed_from_triangulation(tri), as tuples."""
    diags = tri.diagonals
    index = {d: i for i, d in enumerate(diags)}
    n = len(diags)
    b = [[0] * n for _ in range(n)]
    for p, q, r in tri.triangles():
        # ccw arrows inside triangle p<q<r: pq -> pr -> qr -> pq
        sides = [(p, q), (p, r), (q, r)]
        for s_from, s_to in ((sides[0], sides[1]), (sides[1], sides[2]), (sides[2], sides[0])):
            if s_from in index and s_to in index:
                b[index[s_from]][index[s_to]] += 1
                b[index[s_to]][index[s_from]] -= 1
    return tuple(map(tuple, b))


def _flipped(polygon_size, diagonals, d):
    """The other diagonal of the quadrilateral that diagonal d bounds in the
    triangulation with these diagonals: its two corners off d (the apexes)
    are the vertices joined to both ends of d, one on each side of it."""
    m = polygon_size
    edges = set(diagonals) | {(i, i % m + 1) for i in range(1, m + 1)}
    joined = [{v for e in edges if x in e for v in e} for x in d]
    other = tuple(sorted((joined[0] & joined[1]) - set(d)))
    if len(other) != 2:
        raise InconsistentSystem("diagonal must bound two triangles")
    return other


def flip(tri, diagonal):
    """Replace one diagonal by the other diagonal of its quadrilateral."""
    d = tuple(sorted(diagonal))
    if d not in tri.diagonals:
        raise ValueError(f"{d} is not a diagonal of the triangulation")
    other = _flipped(tri.polygon_size, tri.diagonals, d)
    new_diags = tuple(other if x == d else x for x in tri.diagonals)
    return Triangulation(tri.polygon_size, new_diags), other


class ExchangeGraph(namedtuple("ExchangeGraph", "nodes edges")):
    """Clusters as nodes (ray-index sets, aligned with Fan.maximal_cones)
    and mutations as edges labeled by the exchanged ray pair."""

    __slots__ = ()

    def is_regular(self, degree):
        deg = [0] * len(self.nodes)
        for a, b, _pair in self.edges:
            deg[a] += 1
            deg[b] += 1
        return all(d == degree for d in deg)

    def is_connected(self):
        if not self.nodes:
            return True
        adj = {i: [] for i in range(len(self.nodes))}
        for a, b, _pair in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.nodes)

    def to_dot(self, dependency_labels=None):
        """Deterministic DOT text; node labels are sorted ray indices. When
        dependency_labels maps an exchanged ray pair to a string, each edge
        is annotated with its wall dependency."""
        lines = ["graph exchange {"]
        for i, node in enumerate(self.nodes):
            lines.append(f'  {i} [label="{",".join(str(r) for r in node)}"];')
        for a, b, pair in self.edges:
            label = f"{pair[0]}|{pair[1]}"
            if dependency_labels and pair in dependency_labels:
                label += " " + dependency_labels[pair]
            lines.append(f'  {a} -- {b} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


class FanEnumeration(
    namedtuple("FanEnumeration", "fan graph node_triangulations diagonal_rays")
):
    """Everything the BFS discovered: the fan, the exchange graph, and (for
    tracked type-A runs) the triangulation attached to each graph node plus
    the diagonal -> ray dictionary."""

    __slots__ = ()


def _check_finite_type(b, node, rows):
    """Raise InfiniteType if some |b_ij * b_ji| exceeds 3, testing the
    pairs on the given rows and naming the first such pair: a seed of
    finite type has none (Fomin-Zelevinsky, Cluster algebras II, Thm 1.8)."""
    n = len(b)
    bad = [
        (min(i, j), max(i, j))
        for i in rows
        for j in range(n)
        if abs(b[i][j] * b[j][i]) > 3
    ]
    if bad:
        i, j = min(bad)
        raise InfiniteType(
            f"seed {node} of the BFS has |b[{i}][{j}] * b[{j}][{i}]| = "
            f"{abs(b[i][j] * b[j][i])} > 3: the cluster algebra is of infinite type"
        )


# cluster counts of the connected types that are not A_r, B_r/C_r or D_r
_EXCEPTIONAL_CLUSTERS = {2: 8, 4: 105, 6: 833, 7: 4160, 8: 25080}  # G2, F4, E6, E7, E8


def _largest_finite_type(n):
    """The most clusters of any cluster algebra of finite type and rank n:
    the largest product of connected types' cluster counts over the ways
    to split n into their ranks. The counts are A_r: Cat(r+1), B_r and C_r:
    C(2r, r), D_r: (3r-2)/r C(2r-2, r-1), and G2, F4, E6, E7, E8: 8, 105,
    833, 4160, 25080 (Fomin-Zelevinsky, "Y-systems and generalized
    associahedra", Ann. Math. 2003)."""
    best = [1]
    for r in range(1, n + 1):
        connected = max(
            comb(2 * r + 2, r + 1) // (r + 2),
            comb(2 * r, r),
            (3 * r - 2) * comb(2 * r - 2, r - 1) // r if r >= 4 else 0,
            _EXCEPTIONAL_CLUSTERS.get(r, 0),
        )
        best.append(max([connected, *(best[a] * best[r - a] for a in range(1, r))]))
    return best[n]


def enumerate_fan(seed, triangulation=None, budget=DEFAULT_BFS_BUDGET):
    """BFS over seeds modulo cluster-set equality.

    Returns a FanEnumeration whose fan has all distinct g-vectors as rays
    (lexicographically decreasing, so the initial cluster is the positive
    orthant and its basis vectors come first) and one maximal cone per
    cluster, sorted as Fan sorts them: cone 0 is the initial cluster, the
    start cluster of an initial seed. With a triangulation supplied, flips
    are tracked alongside mutations and every diagonal is matched to its
    g-vector ray; agreement across all clusters containing the diagonal is
    checked, for each new seed on the one pair it does not share with its
    parent. Each cluster is one BFS node (key, seed, diagonals and ray
    ids), and each edge is resolved once, by one exchanged g-vector: a
    node does not expand the direction that reached it (mutation is an
    involution) nor one along which an earlier node found it. Every seed
    is proved (_prove) and tested for 2-finiteness on the entries it does
    not share with a proved parent: all of them for the start seed, which
    has none, and for a new seed those its mutation rebuilt. Raises
    InfiniteType, a BudgetExceeded, as soon as a reached seed is not
    2-finite or more clusters are reached than any finite type of rank n
    has (_largest_finite_type), and else BudgetExceeded, naming that bound,
    when more than budget are reached.
    Each seed's duality identity gives its cone's inverse (_inverse_rows),
    which the fan takes, so validating it inverts no matrix.
    """
    n = seed.rank
    if triangulation is not None:
        if seed.b_matrix != _triangulation_matrix(triangulation):
            raise ValueError("seed does not match the triangulation (flip tracking would drift)")
    _check_finite_type(seed.b_matrix, 0, _rebuilt(seed.b_matrix, None))
    diags = triangulation.diagonals if triangulation else None
    # the start seed's diagonals are distinct, so its pairs cannot disagree
    diagonal_rays = dict(zip(diags, seed.g_vectors)) if triangulation else {}
    bound = _largest_finite_type(n)
    # each distinct g-vector gets an id as the BFS meets it; one node per
    # cluster, in BFS order: its key (the bitmask of its rays' ids), its
    # seed, its diagonals in direction order (a flip of a triangulation is
    # one, so only the start needs validating) and its rays' ids in
    # direction order. resolved[pos] has bit k set once the edge along
    # direction k of that node is recorded.
    ray_ids = {g: k for k, g in enumerate(seed.g_vectors)}
    start_key = (1 << n) - 1
    position = {start_key: 0}
    nodes = [(start_key, seed, diags, tuple(range(n)))]
    resolved = [0]
    edges = []  # (position, later position, id of g_k, id of g'_k), each edge once
    for pos, (key, s, diags, rays) in enumerate(nodes):
        for k in range(n):
            if resolved[pos] >> k & 1:
                continue
            g2 = exchanged_g_vector(s, k)
            r2 = ray_ids.setdefault(g2, len(ray_ids))
            key2 = key ^ 1 << rays[k] | 1 << r2
            pos2 = position.get(key2)
            if pos2 is None:
                pos2 = len(nodes)
                # proved on what the mutation rebuilt, the rest being s's
                s2 = _mutated(s, k, g2)
                _check_finite_type(s2.b_matrix, pos2, _rebuilt(s2.b_matrix, s.b_matrix))
                diags2 = None
                if diags is not None:
                    new_diag = _flipped(triangulation.polygon_size, diags, diags[k])
                    diags2 = diags[:k] + (new_diag,) + diags[k + 1 :]
                    # s2 shares every other (diagonal, g-vector) pair with s
                    if diagonal_rays.setdefault(new_diag, g2) != g2:
                        raise InconsistentSystem(
                            f"diagonal {new_diag} matched two distinct g-vectors"
                        )
                position[key2] = pos2
                nodes.append((key2, s2, diags2, rays[:k] + (r2,) + rays[k + 1 :]))
                # mutation is an involution: direction k leads back to s
                resolved.append(1 << k)
                if len(nodes) > bound:
                    raise InfiniteType(
                        f"seed BFS reached {len(nodes)} clusters, more than the {bound} "
                        f"of any finite type of rank {n}: the cluster algebra is of infinite type"
                    )
                if len(nodes) > budget:  # then budget < bound
                    raise BudgetExceeded(
                        f"seed BFS exceeded {budget} nodes; a cluster algebra of finite "
                        f"type and rank {n} has up to {bound} clusters"
                    )
            else:
                # a later node, not yet expanded (an earlier one resolved
                # its edge to s): two clusters share at most one wall, so
                # the direction of g'_k leads back to s
                resolved[pos2] |= 1 << nodes[pos2][3].index(r2)
            edges.append((pos, pos2, rays[k], r2))

    all_rays = sorted(ray_ids, reverse=True)
    index = [0] * len(all_rays)  # ray id -> position in all_rays
    for i, g in enumerate(all_rays):
        index[ray_ids[g]] = i
    cones = [tuple(sorted(index[r] for r in rays)) for _key, _s, _diags, rays in nodes]
    labels = None
    if triangulation is not None:
        ray_diag = {index[ray_ids[g]]: d for d, g in diagonal_rays.items()}
        labels = [f"{ray_diag[i][0]}-{ray_diag[i][1]}" for i in range(len(all_rays))]

    fan = Fan(n, all_rays, cones, labels)
    cone_pos = {cone: i for i, cone in enumerate(fan.maximal_cones)}
    node_at = [cone_pos[cone] for cone in cones]
    graph_edges = []
    for pos, pos2, r, r2 in edges:
        a, b = sorted((node_at[pos], node_at[pos2]))
        graph_edges.append((a, b, tuple(sorted((index[r], index[r2])))))
    graph = ExchangeGraph(fan.maximal_cones, tuple(sorted(graph_edges)))
    node_triangulations = ()
    if triangulation is not None:
        by_node = sorted(zip(node_at, (node[2] for node in nodes)))
        node_triangulations = tuple(t for _i, t in by_node)
    # each seed's own identity proved its cone unimodular, so the rays are
    # its g-vectors and its inverse is (D^-1 C D, det 1), rows in the
    # cone's sorted-ray order: the cache Fan._cone_data fills. Each seed is
    # dropped once read, so the rows take the seeds' memory.
    inverses = [None] * len(nodes)
    for pos, node in enumerate(node_at):
        _key, s, _diags, rays = nodes[pos]
        nodes[pos] = None
        rows = sorted(zip([index[r] for r in rays], _inverse_rows(s)))
        inverses[node] = ([row for _i, row in rows], 1)
    fan._cone_inverses = inverses
    return FanEnumeration(fan, graph, node_triangulations, diagonal_rays)


def all_triangulations(polygon_size):
    """Every triangulation of the convex polygon, canonically ordered."""
    order = sorted(diags for diags, _reached in _flip_closure(polygon_size))
    return [Triangulation(polygon_size, d) for d in order]


class FlipGraph(namedtuple("FlipGraph", "nodes edges")):
    __slots__ = ()


def flip_graph(polygon_size):
    """Graph of all triangulations with diagonal flips as edges, sorted by
    their diagonals."""
    closure = list(_flip_closure(polygon_size))
    order = sorted(diags for diags, _reached in closure)
    index = {diags: i for i, diags in enumerate(order)}
    edges = sorted(tuple(sorted((index[a], index[b]))) for a, bs in closure for b in bs)
    return FlipGraph(tuple(Triangulation(polygon_size, d) for d in order), tuple(edges))


def _flip_closure(polygon_size):
    """Each triangulation, as its sorted diagonals, with those one flip
    away along the edges not yet flipped from their other end, so each edge
    comes once. It is the flip closure of the fan triangulation at vertex 1:
    the flip graph is connected, so that reaches every one."""
    if polygon_size < 4:
        raise ValueError("need a polygon with at least 4 vertices")
    start = tuple((1, j) for j in range(3, polygon_size))
    seen = {start}
    order = [start]
    done = set()  # (triangulation, diagonal): the flip back along an edge already found
    for diags in order:
        reached = []
        for d in diags:
            if (diags, d) in done:
                continue
            other = _flipped(polygon_size, diags, d)
            diags2 = tuple(sorted(other if x == d else x for x in diags))
            done.add((diags2, other))
            if diags2 not in seen:
                seen.add(diags2)
                order.append(diags2)
            reached.append(diags2)
        yield diags, reached


def _is_label(value):
    return type(value) in (int, str) or (
        isinstance(value, list) and all(type(x) is int for x in value)
    )


def seed_from_json(text):
    """Accept {"b": [[..]]} or {"triangulation": {"polygon": m, "diagonals":
    [[a,b],...]}}, not both. Either may list "labels", which are checked
    but not kept: a cluster is named by its g-vectors."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("seed JSON must be an object")
    if "b" in data and "triangulation" in data:
        raise ValueError("seed JSON takes a 'b' matrix or a 'triangulation', not both")
    b, labels = data.get("b"), data.get("labels")
    if labels and not (isinstance(labels, list) and all(map(_is_label, labels))):
        raise ValueError("seed 'labels' must list integers, strings or integer lists")
    if "triangulation" in data:
        td = data["triangulation"]
        polygon = _json_field(td, "polygon", "seed 'triangulation'")
        if type(polygon) is not int:
            raise ValueError("seed 'triangulation' needs an integer 'polygon'")
        diagonals = int_rows(_json_field(td, "diagonals", "seed 'triangulation'"), 2)
        tri = Triangulation(polygon, [tuple(d) for d in diagonals])
        return seed_from_triangulation(tri), tri
    if "b" in data:
        if not isinstance(b, list):
            raise ValueError("seed 'b' must be a square integer matrix")
        int_rows(b, len(b))
        return initial_seed(b), None
    raise ValueError("seed JSON needs a 'b' matrix or a 'triangulation'")
