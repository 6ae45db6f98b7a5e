"""Exact polyhedral primitives: fans, H/V-polytopes, normal fans.

Everything is computed over exact rationals; tolerance is identically zero.
Every cone question (vertices, facets, type cones) goes through one
routine, :func:`extreme_rays`, an incremental double description on integer
vectors with the combinatorial adjacency test of Fukuda and Prodon, "Double
description method revisited" (1996). Fan completeness is proved by a
wall-and-degree certificate in :meth:`Fan.validate`.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import DimensionDeficient, Empty, InconsistentSystem, Unbounded
from .linalg import (
    det_int,
    dot,
    kernel_basis,
    primitive,
    rank,
    rref,
    scale_rows_int,
    transpose,
)


class Fan:
    """Complete simplicial fan: primitive integer rays plus maximal cones
    given as sorted ray-index tuples of size n.

    Construction performs the cheap structural checks (primitive distinct
    rays, simplicial cones). :meth:`validate` proves completeness and
    face-to-face intersection exactly, by the wall-and-degree certificate
    (every wall in two cones on opposite sides, one interior point covered
    once), using the per-cone adjugates that :meth:`_cone_data` caches.
    """

    def __init__(self, dim, rays, maximal_cones, labels=None):
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        self.dim = dim
        norm_rays = []
        for ray in rays:
            if len(ray) != dim:
                raise ValueError("ray length != dim")
            p = primitive(ray)
            if all(x == 0 for x in p):
                raise ValueError("zero ray")
            norm_rays.append(p)
        if len(set(norm_rays)) != len(norm_rays):
            raise ValueError("rays not pairwise distinct after normalization")
        self.rays = tuple(norm_rays)
        cones = sorted({tuple(sorted(c)) for c in maximal_cones})
        for cone in cones:
            if len(cone) != dim:
                raise ValueError("maximal cone must have exactly dim rays")
            if cone[0] < 0 or cone[-1] >= len(self.rays):
                raise ValueError("cone ray index out of range")
            if det_int([list(self.rays[i]) for i in cone]) == 0:
                raise ValueError("maximal cone is not simplicial (rank deficient)")
        self.maximal_cones = tuple(cones)
        if labels is None:
            labels = ["(" + ",".join(str(x) for x in r) + ")" for r in self.rays]
        if len(labels) != len(self.rays):
            raise ValueError("one label per ray required")
        self.labels = tuple(labels)
        # per-cone adjugate data for the validate certificate, built lazily
        self._cone_inverses = None

    @property
    def n_rays(self):
        return len(self.rays)

    def ray_matrix(self):
        """The N x n matrix whose rows are the rays, in fan order."""
        return [list(r) for r in self.rays]

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.dim == other.dim
            and self.rays == other.rays
            and self.maximal_cones == other.maximal_cones
        )

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={self.n_rays}, cones={len(self.maximal_cones)})"

    def _cone_data(self):
        if self._cone_inverses is None:
            data = []
            for cone in self.maximal_cones:
                # rays as columns: lambda = adj.x / det solves sum(lambda_i r_i) = x
                m = [[self.rays[i][k] for i in cone] for k in range(self.dim)]
                d = det_int(m)
                adj = _adjugate_int(m)
                if d < 0:
                    d = -d
                    adj = [[-x for x in row] for row in adj]
                data.append((adj, d))
            self._cone_inverses = data
        return self._cone_inverses

    def wall_subsets(self):
        """Multiplicity map: (n-1)-subset of ray indices -> incident cones."""
        inc = {}
        for ci, cone in enumerate(self.maximal_cones):
            for sub in combinations(cone, self.dim - 1):
                inc.setdefault(sub, []).append(ci)
        return inc

    def validate(self):
        """Prove that the maximal cones form a complete simplicial fan, or
        raise ValueError.

        The certificate is exact and has no parameters:

        1. there is at least one maximal cone;
        2. every (n-1)-subset of a maximal cone lies in exactly two cones;
        3. across every such wall the two exchanged rays lie strictly on
           opposite sides of the wall's hyperplane;
        4. the sum of the rays of cone 0 lies in exactly one closed cone.

        Steps 2-3 make the cones a closed pseudomanifold whose neighbours
        never fold back onto each other, so on each connected component the
        number of cones containing a point is the same positive constant for
        every point off the (n-2)-skeleton. A point covered exactly once
        lies on no other cone, hence is generic, so step 4 forces a single
        component of degree one: the cones cover R^n with disjoint interiors
        and meet face to face. This is the pseudomanifold/degree argument of
        De Loera, Rambau and Santos, *Triangulations* (2010), ch. 4.
        """
        if not self.maximal_cones:
            raise ValueError("fan has no maximal cone")
        data = self._cone_data()
        for sub, incident in self.wall_subsets().items():
            if len(incident) != 2:
                raise ValueError(
                    f"wall condition violated: subset {sub} lies in {len(incident)} cones"
                )
            a, b = incident
            cone_a, cone_b = self.maximal_cones[a], self.maximal_cones[b]
            pos = next(k for k, i in enumerate(cone_a) if i not in sub)
            other = next(i for i in cone_b if i not in sub)
            # row pos of cone a's adjugate vanishes on the wall, positive on its own ray
            if dot(data[a][0][pos], self.rays[other]) >= 0:
                raise ValueError(
                    f"cones {a} and {b} lie on the same side of their wall {sub}"
                )
        point = [sum(self.rays[i][k] for i in self.maximal_cones[0]) for k in range(self.dim)]
        covering = sum(all(dot(row, point) >= 0 for row in adj) for adj, _den in data)
        if covering != 1:
            raise ValueError(f"interior point {point} of cone 0 lies in {covering} cones")
        return True


def _adjugate_int(m):
    """Adjugate of an invertible square integer matrix: its determinant
    times the inverse from one fraction-free elimination of [m | I]."""
    n = len(m)
    det = det_int(m)
    red, _pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    return [[int(det * x) for x in row[n:]] for row in red]


def extreme_rays(constraints, d):
    """Extreme rays of {z in R^d : constraints . z >= 0} by incremental
    double description, as sorted primitive integer tuples. The constraint
    rows are integer vectors of rank d, so the cone is pointed."""
    init = rref(transpose(constraints))[1]
    if len(init) != d:
        raise InconsistentSystem(f"constraints do not span R^{d}")
    # the initial simplicial cone's rays are the columns of the inverse,
    # i.e. of the adjugate oriented by the sign of the determinant
    a0 = [list(constraints[i]) for i in init]
    sign = 1 if det_int(a0) > 0 else -1
    adj = _adjugate_int(a0)
    rays = [
        (primitive([sign * adj[i][j] for i in range(d)]), frozenset(init) - {init[j]})
        for j in range(d)
    ]
    for ci in range(len(constraints)):
        if ci in init:
            continue
        a = constraints[ci]
        plus, zero, minus = [], [], []
        for ray, tight in rays:
            v = dot(a, ray)
            if v > 0:
                plus.append((ray, tight, v))
            elif v == 0:
                zero.append((ray, tight | {ci}))
            else:
                minus.append((ray, tight, v))
        new = []
        for rp, tp, vp in plus:
            for rm, tm, vm in minus:
                common = tp & tm
                # adjacent iff they share at least d - 2 tight rows and no
                # third ray is tight on all of them
                if len(common) < d - 2 or any(
                    common <= t for _r, t in rays if t is not tp and t is not tm
                ):
                    continue
                combo = [vp * y - vm * x for x, y in zip(rp, rm)]
                new.append((primitive(combo), common | {ci}))
        rays = [(r, t) for r, t, _v in plus] + zero + new
    for ray, _tight in rays:
        if any(dot(c, ray) < 0 for c in constraints):
            raise InconsistentSystem("double description produced an infeasible ray")
    return sorted({r for r, _t in rays})


@dataclass(frozen=True)
class HPolytope:
    """Rational halfspace intersection {x : A x <= b}; rows of A are outer
    facet normals when the representation is irredundant."""

    ineq_matrix: tuple
    bounds: tuple

    def __init__(self, ineq_matrix, bounds):
        rows = tuple(tuple(Fraction(x) for x in row) for row in ineq_matrix)
        b = tuple(Fraction(x) for x in bounds)
        if len(rows) != len(b):
            raise ValueError("one bound per inequality row required")
        object.__setattr__(self, "ineq_matrix", rows)
        object.__setattr__(self, "bounds", b)

    @property
    def dim(self):
        return len(self.ineq_matrix[0]) if self.ineq_matrix else 0

    def contains(self, point):
        return all(dot(row, point) <= bi for row, bi in zip(self.ineq_matrix, self.bounds))


@dataclass(frozen=True)
class VPolytope:
    """Vertex list in canonical (lexicographic) order.

    Producers guarantee irredundancy; ``normal_fan`` re-checks it. The
    optional H-representation provenance carries the inequality system a
    vertex enumeration started from, which normal-fan extraction then uses
    instead of re-deriving facets from scratch.
    """

    vertices: tuple
    hrep: HPolytope = field(default=None, compare=False)

    def __init__(self, vertices, hrep=None):
        pts = sorted({tuple(Fraction(x) for x in v) for v in vertices})
        if not pts:
            raise ValueError("empty vertex list")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("inconsistent point dimensions")
        object.__setattr__(self, "vertices", tuple(pts))
        object.__setattr__(self, "hrep", hrep)

    @property
    def dim(self):
        return len(self.vertices[0])


def vertices(p):
    """Exact vertex enumeration of a bounded H-polytope.

    The extreme rays (x, t) of the homogenized cone {(x, t) : Ax <= bt,
    t >= 0} are the vertices x/t (t > 0) and the recession directions
    (t = 0). Boundedness is decided first, then emptiness (no ray at all),
    then full-dimensionality; the three failure modes raise distinct errors.
    A recession direction reports Unbounded whether or not the region is
    empty.
    """
    a_rows, b = scale_rows_int(p.ineq_matrix, p.bounds)
    n = p.dim
    if n == 0 or not a_rows:
        raise Unbounded("no constraints: feasible set is all of R^n")
    if rank(a_rows) < n:
        raise Unbounded("constraint matrix is rank deficient")
    cone = [[-x for x in row] + [bi] for row, bi in zip(a_rows, b)]
    cone.append([0] * n + [1])
    verts = []
    for ray in extreme_rays(cone, n + 1):
        t = ray[n]
        if t == 0:
            raise Unbounded(f"recession direction {list(ray[:n])} exists")
        verts.append(tuple(Fraction(x, t) for x in ray[:n]))
    if not verts:
        raise Empty("no feasible point")
    verts.sort()
    if _affine_rank(verts) != n:
        raise DimensionDeficient("polytope has no interior point")
    return VPolytope(verts, hrep=p)


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    return rank(diffs)


def facet_description(vp):
    """Outer facet normals of a full-dimensional VPolytope.

    Returns (normals, offsets, contact lists) with primitive integer normals
    in canonical order. Uses the H-rep provenance when available; otherwise
    the facets are the extreme rays (a, beta) of the cone of valid
    inequalities {(a, beta) : a . v <= beta for every vertex v}. The polytope
    is bounded, so the trivial ray (0, ..., 0, 1) is a positive combination
    of facet rows and never extreme.
    """
    n = vp.dim
    pts = vp.vertices
    if _affine_rank(pts) != n:
        raise DimensionDeficient("polytope is not full-dimensional")
    facets = {}
    if vp.hrep is not None:
        cand_rows, cand_b = scale_rows_int(vp.hrep.ineq_matrix, vp.hrep.bounds)
        seen = set()
        for row, bi in zip(cand_rows, cand_b):
            key = tuple(row) + (bi,)
            if key in seen:
                continue
            seen.add(key)
            contact = [i for i, v in enumerate(pts) if dot(row, v) == bi]
            if len(contact) >= n and _affine_rank([pts[i] for i in contact]) == n - 1:
                facets[(tuple(row), bi)] = contact
    else:
        valid = scale_rows_int([[-x for x in v] + [1] for v in pts])
        for ray in extreme_rays(valid, n + 1):
            normal, offset = ray[:n], ray[n]
            facets[(normal, offset)] = [i for i, v in enumerate(pts) if dot(normal, v) == offset]
    ordered = sorted(facets, key=lambda f: f[0], reverse=True)
    normals = [f[0] for f in ordered]
    offsets = [f[1] for f in ordered]
    contacts = [facets[f] for f in ordered]
    for i, v in enumerate(pts):
        active = [normals[k] for k in range(len(normals)) if i in contacts[k]]
        if rank([list(a) for a in active]) != n:
            raise ValueError(f"point {v} is not a vertex (redundant input point)")
    return normals, offsets, contacts


def normal_fan(vp):
    """Outer normal fan of a full-dimensional VPolytope: rays are the
    primitive facet normals, one maximal cone per vertex."""
    normals, _offsets, contacts = facet_description(vp)
    cones = []
    for i in range(len(vp.vertices)):
        cone = tuple(sorted(k for k in range(len(normals)) if i in contacts[k]))
        cones.append(cone)
    return Fan(vp.dim, normals, cones)


def p_h(fan, h):
    """The polytope {x : Gx <= h} with G the fan's ray matrix in fan order."""
    if len(h) != fan.n_rays:
        raise ValueError(f"height vector must have length {fan.n_rays}")
    return HPolytope(fan.ray_matrix(), h)


def fan_eq(f1, f2):
    """Fan equality up to ray relabeling: primitive ray sets coincide and the
    induced index bijection maps maximal cones onto maximal cones."""
    if f1.dim != f2.dim:
        raise ValueError("fans live in different ambient dimensions")
    if f1.n_rays != f2.n_rays or len(f1.maximal_cones) != len(f2.maximal_cones):
        return False
    index2 = {ray: i for i, ray in enumerate(f2.rays)}
    try:
        relabel = [index2[ray] for ray in f1.rays]
    except KeyError:
        return False
    mapped = sorted(tuple(sorted(relabel[i] for i in cone)) for cone in f1.maximal_cones)
    return tuple(mapped) == f2.maximal_cones


# --- serialization ---------------------------------------------------------


def fan_to_json(fan):
    """Byte-deterministic Fan JSON."""
    payload = {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "cones": [list(c) for c in fan.maximal_cones],
        "labels": list(fan.labels),
    }
    return json.dumps(payload, separators=(",", ":"))


def fan_from_json(text):
    data = json.loads(text)
    return Fan(data["dim"], data["rays"], data["cones"], data.get("labels"))


def _frac_str(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def write_roff(vp):
    """ROFF text: header, `V F` counts, vertex rows as `p/q` rationals,
    then facet lines `k i1 ... ik` with sorted vertex indices."""
    _normals, _offsets, contacts = facet_description(vp)
    facet_lists = sorted(tuple(sorted(c)) for c in contacts)
    lines = ["ROFF", f"{len(vp.vertices)} {len(facet_lists)}"]
    for v in vp.vertices:
        lines.append(" ".join(_frac_str(x) for x in v))
    for fl in facet_lists:
        lines.append(" ".join(str(i) for i in (len(fl),) + fl))
    return "\n".join(lines) + "\n"


def parse_roff(text):
    """Parse ROFF text into (vertex tuples, facet index lists)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "ROFF":
        raise ValueError("missing ROFF header")
    nv, nf = (int(tok) for tok in lines[1].split())
    if len(lines) != 2 + nv + nf:
        raise ValueError("ROFF line count mismatch")
    verts = []
    for ln in lines[2 : 2 + nv]:
        verts.append(tuple(Fraction(tok) for tok in ln.split()))
    facets = []
    for ln in lines[2 + nv :]:
        toks = [int(tok) for tok in ln.split()]
        if toks[0] != len(toks) - 1:
            raise ValueError("facet count prefix mismatch")
        facets.append(tuple(toks[1:]))
    return verts, facets


def roff_normal_fan(verts, facet_lists):
    """Normal fan reconstructed from ROFF data, recomputing each facet's
    hyperplane from its vertex set. Raises ValueError on any geometric
    inconsistency (non-coplanar facet, wrong orientation, non-simple vertex)."""
    n = len(verts[0])
    normals = []
    for fl in facet_lists:
        pts = [verts[i] for i in fl]
        base = pts[0]
        diffs = [[x - y for x, y in zip(p, base)] for p in pts[1:]]
        kb = kernel_basis(diffs) if diffs else [[Fraction(1)]]  # n == 1
        if len(kb) != 1:
            raise ValueError("facet vertex set does not span a hyperplane")
        normal = primitive(kb[0])
        offset = dot(normal, base)
        if any(dot(normal, p) != offset for p in pts):
            raise ValueError("facet vertices are not coplanar")
        others = [dot(normal, v) for i, v in enumerate(verts) if i not in fl]
        if all(val < offset for val in others):
            pass
        elif all(val > offset for val in others):
            normal = tuple(-x for x in normal)
        else:
            raise ValueError("facet hyperplane does not support the polytope")
        normals.append(normal)
    order = sorted(range(len(normals)), key=lambda k: normals[k], reverse=True)
    ray_list = [normals[k] for k in order]
    if len(set(ray_list)) != len(ray_list):
        raise ValueError("duplicate facet normals")
    pos_of = {old: new for new, old in enumerate(order)}
    cones = []
    for i in range(len(verts)):
        cone = tuple(sorted(pos_of[k] for k, fl in enumerate(facet_lists) if i in fl))
        cones.append(cone)
    return Fan(n, ray_list, cones)
