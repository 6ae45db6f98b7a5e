"""Auslander-Reiten quiver knitting for simply-laced tree quivers.

The knitting window runs from the slice of shifted injectives through the
slice of injectives. Dimension vectors propagate by mesh additivity on
signed classes (shifted injectives carry the negated injective dimension
vector), which uniformly handles both the initial meshes ending at the
projectives and the ordinary module meshes.

A window vertex is its position and its signed class; a mesh's parameter
is indexed by the mesh's position in `ARQuiver.meshes`.
"""

import json
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .errors import NonPositiveParameter, SingularSystem
from .polyhedra import HPolytope

TREE_BUILDERS = {
    "A": lambda n: [(i, i + 1) for i in range(1, n)],
    "D": lambda n: [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)],
    "E": lambda n: [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, n)],
}

TYPE_RANKS = {"A": range(1, 64), "D": range(3, 64), "E": (6, 7, 8)}


def dynkin_tree_edges(type_, rank):
    if type_ not in TREE_BUILDERS:
        raise ValueError(f"unknown Dynkin type {type_!r}")
    if rank not in TYPE_RANKS[type_]:
        raise ValueError(f"rank {rank} invalid for type {type_}")
    return [tuple(sorted(e)) for e in TREE_BUILDERS[type_](rank)]


class DynkinQuiver(namedtuple("DynkinQuiver", "type rank orientation")):
    """Dynkin tree with an orientation: arrows are (source, target) pairs
    covering each tree edge exactly once. Vertices are labeled 1..rank."""

    __slots__ = ()

    def __new__(cls, type, rank, orientation=None):
        edges = dynkin_tree_edges(type, rank)
        if orientation is None:
            orientation = tuple((max(e), min(e)) for e in edges)
        arrows = tuple(tuple(a) for a in orientation)
        if sorted(tuple(sorted(a)) for a in arrows) != sorted(edges):
            raise ValueError("orientation must direct each tree edge exactly once")
        return super().__new__(cls, type, rank, arrows)

    def is_linear_type_a(self):
        return self.type == "A" and set(self.orientation) == {
            (i + 1, i) for i in range(1, self.rank)
        }

    def exchange_matrix(self):
        """The exchange matrix of the quiver: each arrow s -> t gives
        b_ts = 1 and b_st = -1, every other entry is 0."""
        b = [[0] * self.rank for _ in range(self.rank)]
        for s, t in self.orientation:
            b[t - 1][s - 1] = 1
            b[s - 1][t - 1] = -1
        return b

    def arrows_out(self, v):
        return [t for s, t in self.orientation if s == v]

    def arrows_in(self, v):
        return [s for s, t in self.orientation if t == v]


def linear_quiver(n):
    """Type A_n with the linear orientation 1 <- 2 <- ... <- n."""
    return DynkinQuiver("A", n)


def _path_reachable(quiver, start):
    """Vertices reachable from start along arrows (including start)."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in quiver.arrows_out(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def injective_dims(quiver):
    """dim I_v over v: the module of paths ending at v."""
    n = quiver.rank
    reach = {u: _path_reachable(quiver, u) for u in range(1, n + 1)}
    return {
        v: tuple(1 if v in reach[u] else 0 for u in range(1, n + 1))
        for v in range(1, n + 1)
    }


class ARVertex(namedtuple("ARVertex", "slice_index tree_vertex dim_vector")):
    """A window vertex: its position and its signed class. The class is
    negative exactly for a shifted injective, so its sign is the kind."""

    __slots__ = ()

    @property
    def kind(self):
        return "shifted_injective" if min(self.dim_vector) < 0 else "module"


class MeshRelation(namedtuple("MeshRelation", "start middles end")):
    """One almost-split relation q + t = r1 + ... + c. Vertex fields are ids
    into ARQuiver.vertices; the parameter c is indexed by the mesh's position
    in ARQuiver.meshes."""

    __slots__ = ()


class ARQuiver(namedtuple("ARQuiver", "quiver vertices meshes projection_vertices")):
    __slots__ = ()

    @property
    def n_vertices(self):
        return len(self.vertices)

    def vertex_label(self, vid):
        """q_{i j} labels for linear type A, positional labels otherwise."""
        v = self.vertices[vid]
        if self.quiver.is_linear_type_a():
            row = v.tree_vertex
            m = v.slice_index - (row - 1)
            return f"q_{{{m + 1} {m + row + 2}}}"
        return f"q[{v.slice_index},{v.tree_vertex}]"

    def mesh_param_label(self, mesh):
        """A parameter is labelled like the mesh's end vertex, with c in
        place of q: c_{i j} for linear type A, c[slice,vertex] otherwise."""
        return "c" + self.vertex_label(mesh.end)[1:]

    def coordinate_dictionary(self):
        """Table rows (vertex id, slice, tree vertex, label, kind)."""
        return [
            (i, v.slice_index, v.tree_vertex, self.vertex_label(i), v.kind)
            for i, v in enumerate(self.vertices)
        ]

    def to_json(self):
        payload = {
            "vertices": [
                {
                    "slice": v.slice_index,
                    "vertex": v.tree_vertex,
                    "dim": list(v.dim_vector),
                    "label": v.kind,
                }
                for v in self.vertices
            ],
            "meshes": [
                {"start": m.start, "middles": list(m.middles), "end": m.end}
                for m in self.meshes
            ],
            "projection_vertices": list(self.projection_vertices),
        }
        return json.dumps(payload, separators=(",", ":"))


def knit_ar_quiver(quiver):
    """Knit the translation-quiver window from the shifted-injective slice
    through the injective slice, with dimension vectors by mesh additivity;
    types A, D and E knit alike."""
    n = quiver.rank
    verts = list(range(1, n + 1))
    p = _level_of(quiver)
    shift = 1 - min(p[v] for v in verts)  # row v starts at slice p(v)-1+shift >= 0
    p = {v: p[v] + shift for v in verts}

    idims = injective_dims(quiver)
    inj_lookup = {idims[j]: j for j in verts}

    nodes = {(p[v] - 1, v): tuple(-x for x in idims[v]) for v in verts}  # position -> class
    injective_at = {}  # j -> position of I_j
    meshes_raw = []
    by_p_desc = sorted(verts, key=lambda v: -p[v])
    max_slice = max(p.values()) + 1
    k = 0
    alive = True
    while alive:
        k += 1
        if k > 4 * (n * n + n) + max_slice:
            raise SingularSystem("knitting did not terminate (orientation bug?)")
        alive = False
        for v in by_p_desc:
            prev = nodes.get((k - 1, v))
            if prev is None or prev in inj_lookup or (k, v) in nodes:
                continue  # a row ends at its injective
            middles = []
            for w in quiver.arrows_out(v):
                middles.append((k - 1, w))
            for u in quiver.arrows_in(v):
                middles.append((k, u))
            for pos in middles:
                if pos not in nodes:
                    raise SingularSystem(f"mesh middle {pos} missing while knitting {(k, v)}")
            sdim = tuple(
                sum(nodes[pos][i] for pos in middles) - prev[i] for i in range(n)
            )
            if any(x < 0 for x in sdim) or all(x == 0 for x in sdim):
                raise SingularSystem(f"knitted non-module dimension {sdim} at {(k, v)}")
            if sdim in inj_lookup:
                injective_at[inj_lookup[sdim]] = (k, v)
            nodes[(k, v)] = sdim
            meshes_raw.append(((k - 1, v), tuple(middles), (k, v)))
            alive = True

    order = sorted(nodes)
    vid = {pos: i for i, pos in enumerate(order)}
    vertices = tuple(ARVertex(*pos, nodes[pos]) for pos in order)
    meshes = tuple(  # sorted by start, which is distinct per mesh
        MeshRelation(vid[s], tuple(sorted(vid[m] for m in mids)), vid[e])
        for s, mids, e in sorted(meshes_raw)
    )
    if len(injective_at) != n:
        raise SingularSystem("knitting did not reach every injective")
    projections = tuple(vid[injective_at[j]] for j in verts)
    return ARQuiver(quiver, vertices, meshes, projections)


class AffineFunctional(namedtuple("AffineFunctional", "mesh_coeffs proj_coeffs")):
    """q_M expressed over the mesh parameters and the projection coordinates:
    value = sum(mesh_coeffs . c) + sum(proj_coeffs . x), with mesh_coeffs in
    ARQuiver.meshes order and proj_coeffs in projection_vertices order."""

    __slots__ = ()


def abhy_functionals(ar):
    """Express every coordinate over the n projection coordinates and the
    mesh parameters by back-substitution through meshes in reverse slice
    order (the injective slice carries the free coordinates)."""
    n = ar.quiver.rank
    n_mesh = len(ar.meshes)
    funcs = {}
    for j, vid in enumerate(ar.projection_vertices):
        funcs[vid] = AffineFunctional(
            (0,) * n_mesh, tuple(1 if i == j else 0 for i in range(n))
        )
    level = _level_of(ar.quiver)
    mesh_order = sorted(
        range(n_mesh),
        key=lambda mi: (
            -ar.vertices[ar.meshes[mi].start].slice_index,
            level[ar.vertices[ar.meshes[mi].start].tree_vertex],
        ),
    )
    for mi in mesh_order:
        mesh = ar.meshes[mi]
        if mesh.start in funcs:
            raise SingularSystem(f"vertex {mesh.start} assigned twice")
        try:
            parts = [funcs[m] for m in mesh.middles]
            end = funcs[mesh.end]
        except KeyError as missing:
            raise SingularSystem(f"functional for vertex {missing} not yet known") from None
        mesh_coeffs = [sum(part.mesh_coeffs[i] for part in parts) - end.mesh_coeffs[i] for i in range(n_mesh)]
        mesh_coeffs[mi] += 1
        proj = [
            sum(part.proj_coeffs[i] for part in parts) - end.proj_coeffs[i]
            for i in range(n)
        ]
        funcs[mesh.start] = AffineFunctional(tuple(mesh_coeffs), tuple(proj))
    if len(funcs) != len(ar.vertices):
        raise SingularSystem("some coordinate was never isolated")
    return funcs


def _level_of(quiver):
    """Level function with p(source) = p(target) + 1 across each arrow."""
    p = {1: 0}
    pending = [1]
    while pending:
        v = pending.pop()
        for s, t in quiver.orientation:
            if s == v and t not in p:
                p[t] = p[v] - 1
                pending.append(t)
            elif t == v and s not in p:
                p[s] = p[v] + 1
                pending.append(s)
    return p


def abhy_polytope(ar, c):
    """Closed ABHY polytope in R^n: one inequality functional >= 0 per
    AR-quiver vertex, with the mesh parameters fixed to c > 0."""
    c = [Fraction(x) for x in c]
    if len(c) != len(ar.meshes):
        raise ValueError(f"need one parameter per mesh ({len(ar.meshes)})")
    if any(x <= 0 for x in c):
        raise NonPositiveParameter("all mesh parameters must be strictly positive")
    funcs = abhy_functionals(ar)
    rows, bounds = [], []
    for vid in range(len(ar.vertices)):
        rows.append([-x for x in funcs[vid].proj_coeffs])
        bounds.append(sum(map(mul, funcs[vid].mesh_coeffs, c)))
    return HPolytope(rows, bounds)
