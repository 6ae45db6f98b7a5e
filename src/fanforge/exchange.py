"""Cluster-category shadow of mutation: relative Auslander-Reiten meshes of
polygon diagonals, and the fan-level assertions of the silting mutation
theorem.

In type A the indecomposables of the cluster category are the diagonals of
the (n+3)-gon and the translation acts by unit rotation. Equipping the
category with the relative structure of an initial triangulation drops
exactly the n almost-split triangles ending at initial diagonals; the
remaining N - n mesh relations must reproduce the type cone facets, which is
the package's independent cross-check of the realization pipeline.
Diagonals are the sorted vertex pairs of clusterfan, and rotation maps
pairs to pairs.
"""

from collections import namedtuple

from .clusterfan import enumerate_fan, is_diagonal, seed_from_triangulation
from .errors import InconsistentSystem
from .typecone import unique_exchange_check, wall_dependency, walls


def rotated(d, polygon_size):
    """Unit rotation of both endpoints (the inverse translation)."""
    return tuple(sorted(x % polygon_size + 1 for x in d))


def all_diagonals(polygon_size):
    return [
        (a, b)
        for a in range(1, polygon_size + 1)
        for b in range(a + 2, polygon_size + 1)
        if is_diagonal((a, b), polygon_size)
    ]


class RelativeMesh(namedtuple("RelativeMesh", "start middles end normal")):
    """Almost-split configuration start -> middles -> end in the cluster
    category that the relative structure keeps, with end the rotation of
    start and all diagonals sorted vertex pairs; the normal is the
    inequality functional over the fan's ray coordinates."""

    __slots__ = ()


def _corner_cuts(start, polygon_size):
    """The one or two middle diagonals of the mesh from start to rotated."""
    m = polygon_size
    a, b = start
    cuts = (tuple(sorted(pair)) for pair in ((a % m + 1, b), (a, b % m + 1)))
    return tuple(sorted(d for d in cuts if is_diagonal(d, m)))


def relative_ar_meshes(tri, enumeration=None):
    """Non-excluded relative AR meshes of the triangulation, with their
    inequality normals over the g-vector fan rays.

    The diagonal -> ray dictionary comes from the tracked fan enumeration
    started at the triangulation's seed; pass the enumeration in when it has
    already been computed. An enumeration started anywhere else, where the
    k-th diagonal of tri is not the k-th unit ray, raises ValueError.
    """
    if enumeration is None:
        enumeration = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
    diag_ray = enumeration.diagonal_rays
    fan = enumeration.fan
    ray_index = {ray: i for i, ray in enumerate(fan.rays)}
    m = tri.polygon_size
    n = m - 3
    for k, d in enumerate(tri.diagonals):
        if diag_ray.get(d) != tuple(int(i == k) for i in range(n)):
            raise ValueError("the enumeration was not started at this triangulation")
    initial = set(tri.diagonals)
    meshes = []
    excluded = 0
    for start in all_diagonals(m):
        end = rotated(start, m)
        if end in initial:
            excluded += 1
            continue
        middles = _corner_cuts(start, m)
        normal = [0] * fan.n_rays
        normal[ray_index[diag_ray[start]]] += 1
        normal[ray_index[diag_ray[end]]] += 1
        for mid in middles:
            normal[ray_index[diag_ray[mid]]] -= 1
        meshes.append(RelativeMesh(start, middles, end, tuple(normal)))
    if len(meshes) + excluded != fan.n_rays:
        raise InconsistentSystem("one mesh per diagonal expected")
    if excluded != n:
        raise InconsistentSystem("the relative structure drops exactly n meshes")
    return meshes


def verify_mutation_theorem(fan, graph):
    """Fan-level report of the silting mutation theorem.

    Checks (i) every wall borders exactly two maximal cones (unique
    complement), (ii) the exchange graph is n-regular and connected, and
    (iii) each wall dependency with alpha = alpha' = 1 is an exchange
    relation r + r' = sum(c_s s) over the shared rays with integer
    coefficients c_s: its normal v has v[r] = v[r'], the identity
    v[r]*(r + r') = sum(-v[s] s) holds and v[r] divides every v[s].
    """
    unique_complement = all(
        len(cones) == 2 for cones in fan.wall_subsets().values()
    )
    regular = graph.is_regular(fan.dim)
    connected = graph.is_connected()
    deps = [wall_dependency(fan, w) for w in walls(fan)]
    unit_walls = 0
    integral = True
    for dep in deps:
        v, w = dep.normal, dep.wall
        r, r2 = w.exchanged
        if v[r] == v[r2]:  # alpha = alpha' = 1: v[r]*(r + r') = sum(-v[s] s)
            unit_walls += 1
            lhs = [v[r] * (x + y) for x, y in zip(fan.rays[r], fan.rays[r2])]
            combo = [sum(-v[s] * fan.rays[s][i] for s in w.shared) for i in range(fan.dim)]
            if any(v[s] % v[r] for s in w.shared) or lhs != combo:
                integral = False
    report = {
        "unique_complement": unique_complement,
        "regular": regular,
        "connected": connected,
        "exchange_relations_integral": integral,
        "walls_checked": len(deps),
        "walls_with_unit_coefficients": unit_walls,
        "uerp": unique_exchange_check(fan, deps)["holds"],
    }
    report["holds"] = (
        unique_complement and regular and connected and integral
    )
    return report
