"""Exact polyhedral primitives: fans, H/V-polytopes, normal fans.

Everything is computed over exact rationals; tolerance is identically zero.
Cone questions (vertices, facets, type cones) go through one routine,
:func:`extreme_rays`, an incremental double description on integer
vectors with the combinatorial adjacency test of Fukuda and Prodon, "Double
description method revisited" (1996), which also returns the constraints
tight on each ray. Incidence is kept as int bitmasks (bit i for constraint,
vertex or ray i), so the adjacency test and every facet question below are
bitwise ANDs. From that incidence, a row is a facet iff the points it is
tight on form an inclusion-maximal set (:func:`facet_rows`), and a point is
a vertex iff it is the only point on all of its facets. Vertex enumeration
stays in integers up to its output: full-dimensionality is the integer rank
of the homogeneous rays, and each vertex becomes a Fraction tuple once.
Fan completeness is proved by a wall-and-degree certificate in
:meth:`Fan.validate`, and :func:`realization` proves that P_h realizes such
a fan with one certificate per cone, with no double description.
"""

import json
from collections import namedtuple
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm

from .errors import DimensionDeficient, Empty, InconsistentSystem, Unbounded
from .linalg import (
    _echelon,
    _independent_rows,
    det_int,
    dot,
    primitive,
    scale_rows_int,
)


class Fan:
    """Complete simplicial fan: primitive integer rays plus maximal cones
    given as sorted ray-index tuples of size n.

    Construction checks structure (primitive distinct rays, n rays per
    cone); a cone is proved nonsingular where it is inverted, in
    :meth:`_cone_data`. :meth:`validate` proves completeness and
    face-to-face intersection exactly, by the wall-and-degree certificate
    (every wall in two cones on opposite sides, one interior point covered
    once), using the per-cone adjugates that :meth:`_cone_data` caches.
    A fan built by the seed BFS (clusterfan.enumerate_fan) arrives with
    that cache filled: each cone's inverse is read off its seed's
    c-vectors, which the seed's own duality identity proved. Any other fan
    computes it on first use, one :func:`_adjugate_int` per cone.
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
        cones = sorted(tuple(sorted(c)) for c in maximal_cones)
        if len(set(cones)) != len(cones):
            raise ValueError("a maximal cone is listed twice")
        for cone in cones:
            if len(cone) != dim:
                raise ValueError("maximal cone must have exactly dim rays")
            if cone[0] < 0 or cone[-1] >= len(self.rays):
                raise ValueError("cone ray index out of range")
        self.maximal_cones = tuple(cones)
        if labels is None:
            labels = ["(" + ",".join(str(x) for x in r) + ")" for r in self.rays]
        if len(labels) != len(self.rays):
            raise ValueError("one label per ray required")
        self.labels = tuple(labels)
        # per-cone adjugate data for the validate certificate and the wall
        # dependencies (typecone.wall_dependency): filled by the seed BFS
        # from its proved seeds, else built lazily
        self._cone_inverses = None
        self._wall_subsets = None

    @property
    def n_rays(self):
        return len(self.rays)

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
        """(adj, det > 0) per maximal cone; ValueError on a singular one."""
        if self._cone_inverses is None:
            data = []
            for cone in self.maximal_cones:
                # rays as columns: lambda = adj.x / det solves sum(lambda_i r_i) = x
                adj, d = _adjugate_int([[self.rays[i][k] for i in cone] for k in range(self.dim)])
                if d == 0:
                    raise ValueError("maximal cone is not simplicial (rank deficient)")
                data.append((adj, d))
            self._cone_inverses = data
        return self._cone_inverses

    def wall_subsets(self):
        """Multiplicity map: (n-1)-subset of ray indices -> incident cones,
        built once per fan and shared by every caller, which only reads it."""
        if self._wall_subsets is None:
            inc = {}
            for ci, cone in enumerate(self.maximal_cones):
                for sub in combinations(cone, self.dim - 1):
                    inc.setdefault(sub, []).append(ci)
            self._wall_subsets = inc
        return self._wall_subsets

    def validate(self):
        """Prove that the maximal cones form a complete simplicial fan, or
        raise ValueError.

        The certificate is exact and has no parameters:

        1. there is at least one maximal cone;
        2. every (n-1)-subset of a maximal cone lies in exactly two cones;
        3. across every such wall the two exchanged rays lie strictly on
           opposite sides of the wall's hyperplane;
        4. the sum of the rays of cone 0 lies in exactly one closed cone;
        5. every ray lies in some maximal cone.

        Steps 2-3 make the cones a closed pseudomanifold whose neighbours
        never fold back onto each other, so on each connected component the
        number of cones containing a point is the same positive constant for
        every point off the (n-2)-skeleton. A point covered exactly once
        lies on no other cone, hence is generic, so step 4 forces a single
        component of degree one: the cones cover R^n with disjoint interiors
        and meet face to face. This is the pseudomanifold/degree argument of
        De Loera, Rambau and Santos, *Triangulations* (2010), ch. 4. Step 5
        makes the rays exactly those of the cones.
        """
        if not self.maximal_cones:
            raise ValueError("fan has no maximal cone")
        data = self._cone_data()
        # a cone's ray off a wall is the one index it has beyond the wall's
        totals = [sum(cone) for cone in self.maximal_cones]
        for sub, incident in self.wall_subsets().items():
            if len(incident) != 2:
                raise ValueError(
                    f"wall condition violated: subset {sub} lies in {len(incident)} cones"
                )
            a, b = incident
            rest = sum(sub)
            pos = self.maximal_cones[a].index(totals[a] - rest)
            other = totals[b] - rest
            # row pos of cone a's adjugate vanishes on the wall, positive on its own ray
            if dot(data[a][0][pos], self.rays[other]) >= 0:
                raise ValueError(
                    f"cones {a} and {b} lie on the same side of their wall {sub}"
                )
        point = [sum(self.rays[i][k] for i in self.maximal_cones[0]) for k in range(self.dim)]
        covering = sum(all(dot(row, point) >= 0 for row in adj) for adj, _den in data)
        if covering != 1:
            raise ValueError(f"interior point {point} of cone 0 lies in {covering} cones")
        unused = set(range(self.n_rays)).difference(*self.maximal_cones)
        if unused:
            i = min(unused)
            raise ValueError(f"ray {i} {self.rays[i]} lies in no maximal cone")
        return True


def _adjugate_int(m):
    """(d m^-1, d) with d = |det m| for a square integer matrix m, the
    adjugate up to the sign of det, or (None, 0) when m is singular. The
    integer echelon of [m | I] has row i's pivot p_i in column i, so row i
    of the inverse is the row's right half over p_i."""
    det = abs(det_int(m))
    if det == 0:
        return None, 0
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    _echelon(rows)
    return [[det * x // row[i] for x in row[n:]] for i, row in enumerate(rows)], det


def extreme_rays(constraints, d):
    """Extreme rays of {z in R^d : constraints . z >= 0} by incremental
    double description. Returns a dict from each ray, a primitive integer
    tuple, to the bitmask of the constraints tight on it (bit i for
    constraints[i]); the rays iterate in sorted order. The constraint rows
    are integer vectors of rank d, so the cone is pointed. The sweep drops a
    ray wherever a row it meets is negative on it, so the closing
    infeasible-ray check evaluates only the pairs the sweep never did: each
    ray on the basis rows (the first d independent rows) and on the rows up
    to and including the one whose step created it."""
    init = _independent_rows(constraints, d)
    if len(init) != d:
        raise InconsistentSystem(f"constraints do not span R^{d}")
    # the initial simplicial cone's rays are the columns of the inverse
    adj, _det = _adjugate_int([list(constraints[i]) for i in init])
    basis = sum(1 << i for i in init)
    # (ray, tight mask, index of the row whose step created it)
    rays = [
        (primitive([adj[i][j] for i in range(d)]), basis ^ 1 << init[j], -1)
        for j in range(d)
    ]
    for ci, a in enumerate(constraints):
        bit = 1 << ci
        if basis & bit:
            continue
        plus, zero, minus = [], [], []
        for ray, tight, born in rays:
            v = dot(a, ray)
            if v > 0:
                plus.append((ray, tight, born, v))
            elif v == 0:
                zero.append((ray, tight | bit, born))
            else:
                minus.append((ray, tight, v))
        new = []
        masks = [t for _r, t, _b in rays]
        for rp, tp, _bp, vp in plus:
            for rm, tm, vm in minus:
                common = tp & tm
                # adjacent iff they share at least d - 2 tight rows and no
                # third ray is tight on all of them (distinct extreme rays
                # of a pointed cone have distinct tight sets)
                if common.bit_count() < d - 2 or any(
                    t & common == common and t != tp and t != tm for t in masks
                ):
                    continue
                combo = [vp * y - vm * x for x, y in zip(rp, rm)]
                new.append((primitive(combo), common | bit, ci))
        # rays tight on this row first: later adjacency scans find a third
        # ray among them sooner (the sort below fixes the output order)
        rays = zero + [(r, t, b) for r, t, b, _v in plus] + new
    for ray, _tight, born in rays:
        unseen = chain(constraints[: born + 1], (constraints[i] for i in init if i > born))
        if any(dot(c, ray) < 0 for c in unseen):
            raise InconsistentSystem("double description produced an infeasible ray")
    return dict(sorted((r, t) for r, t, _b in rays))


def row_contacts(tight, count):
    """The contact bitmask of each of count constraint rows (bit j for
    tight[j]), from the bitmask of the rows tight on each ray or vertex;
    bits at or above count are ignored."""
    contacts = [0] * count
    for j, t in enumerate(tight):
        t &= (1 << count) - 1
        while t:
            contacts[(t & -t).bit_length() - 1] |= 1 << j
            t &= t - 1
    return contacts


def facet_rows(rows, contacts):
    """Indices of the facet rows of a full-dimensional polytope or pointed
    cone, given each row's contact set as a bitmask (bit j for the j-th
    vertex or extreme ray it is tight on): the rows whose contact sets are
    inclusion-maximal. A zero row is never a candidate."""
    live = [k for k, row in enumerate(rows) if any(row)]
    masks = [contacts[k] for k in live]
    return [
        k for k in live if not any(m != contacts[k] and m | contacts[k] == m for m in masks)
    ]


def _fraction(x):
    return x if type(x) is Fraction else Fraction(x)


class HPolytope(namedtuple("HPolytope", "ineq_matrix bounds")):
    """Rational halfspace intersection {x : A x <= b}, with the entries of A
    and b stored as given (ints or Fractions); rows of A are outer facet
    normals when the representation is irredundant."""

    __slots__ = ()

    def __new__(cls, ineq_matrix, bounds):
        rows = tuple(map(tuple, ineq_matrix))
        b = tuple(bounds)
        if len(rows) != len(b):
            raise ValueError("one bound per inequality row required")
        return super().__new__(cls, rows, b)

    @property
    def dim(self):
        return len(self.ineq_matrix[0]) if self.ineq_matrix else 0


def _immutable(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class VPolytope:
    """Vertex list in lexicographic order, from points given in any order.

    Producers guarantee irredundancy; ``normal_fan`` re-checks it. A vertex
    enumeration or :func:`realization` passes incidence = (rows, tight):
    its rows keyed (primitive integer normal, offset), and per input point
    the bitmask of the rows tight on it. They are kept as contacts, a dict
    row -> bitmask of vertex indices (bit j for vertices[j]), from which
    facet extraction then selects the facets. Equality and hash read only
    the vertices.
    """

    __slots__ = ("vertices", "contacts")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, vertices, incidence=None):
        pts = [tuple(_fraction(x) for x in v) for v in vertices]
        if not pts:
            raise ValueError("empty vertex list")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("inconsistent point dimensions")
        order = _lex_order(pts)
        object.__setattr__(self, "vertices", tuple(pts[i] for i in order))
        contacts = None
        if incidence is not None:
            rows, tight = incidence
            contacts = dict(zip(rows, row_contacts([tight[i] for i in order], len(rows))))
        object.__setattr__(self, "contacts", contacts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash((self.vertices,))

    def __repr__(self):
        return f"VPolytope(vertices={self.vertices!r}, contacts={self.contacts!r})"

    @property
    def dim(self):
        return len(self.vertices[0])


def _lex_order(points):
    """Indices of the distinct rational points in lexicographic order. The
    points are compared as integer vectors over their common denominator,
    which orders them as the Fractions would."""
    den = lcm(*(x.denominator for v in points for x in v))
    keyed = {tuple(x.numerator * (den // x.denominator) for x in v): i for i, v in enumerate(points)}
    return [keyed[k] for k in sorted(keyed)]


def vertices(p):
    """Exact vertex enumeration of a bounded H-polytope.

    The extreme rays (x, t) of the homogenized cone {(x, t) : Ax <= bt,
    t >= 0} are the vertices x/t (t > 0) and the recession directions
    (t = 0). Boundedness is decided first, then emptiness (no ray at all),
    then full-dimensionality; the three failure modes raise distinct errors.
    A recession direction reports Unbounded whether or not the region is
    empty. The rays stay integer vectors until the vertex tuples are built:
    the homogeneous rays have rank n + 1 iff the vertices have affine rank
    n. Each row's contact set is keyed by its primitive normal and offset.
    """
    rows = scale_rows_int([*a, beta] for a, beta in zip(p.ineq_matrix, p.bounds))
    n = p.dim
    if n == 0 or not rows:
        raise Unbounded("no constraints: feasible set is all of R^n")
    if len(_independent_rows((row[:n] for row in rows), n)) < n:
        raise Unbounded("constraint matrix is rank deficient")
    cone = [[-x for x in row[:n]] + row[n:] for row in rows]
    cone.append([0] * n + [1])
    rays = extreme_rays(cone, n + 1)
    for ray in rays:
        if ray[n] == 0:
            raise Unbounded(f"recession direction {list(ray[:n])} exists")
    if not rays:
        raise Empty("no feasible point")
    if len(_independent_rows(rays, n + 1)) != n + 1:
        raise DimensionDeficient("polytope has no interior point")
    keys = [_facet_key(row) for row in rows]
    verts = [[Fraction(x, ray[n]) for x in ray[:n]] for ray in rays]
    return VPolytope(verts, (keys, list(rays.values())))


def _facet_key(row):
    """(primitive normal, offset) of the integer inequality row (a, beta),
    which stands for a . x <= beta."""
    *a, beta = row
    g = gcd(*a) or 1
    return tuple(x // g for x in a), Fraction(beta, g)


def facet_description(vp):
    """Outer facet normals of a full-dimensional VPolytope.

    Returns (normals, offsets, contact lists) with primitive integer normals
    in canonical order. The candidate rows and their contact sets are the
    ones a vertex enumeration recorded; otherwise they are the extreme rays
    (a, beta) of the cone of valid inequalities {(a, beta) : a . v <= beta
    for every point v}, whose tight constraints are exactly the points on
    the row. The facets are the rows :func:`facet_rows` selects, and a
    point is a vertex iff it is the only point on all of its facets.
    Full-dimensionality is proved here only for a point list: a vertex
    enumeration has proved it for its own output. The points span R^n
    affinely iff the valid-inequality rows (-v, 1) have rank n + 1.
    """
    n = vp.dim
    pts = vp.vertices
    candidates = vp.contacts
    if candidates is None:
        valid = scale_rows_int([[-x for x in v] + [1] for v in pts])
        if len(_independent_rows(valid, n + 1)) != n + 1:
            raise DimensionDeficient("polytope is not full-dimensional")
        candidates = {_facet_key(ray): tight for ray, tight in extreme_rays(valid, n + 1).items()}
    keys = list(candidates)
    chosen = facet_rows([k[0] for k in keys], [candidates[k] for k in keys])
    ordered = sorted((keys[k] for k in chosen), key=lambda f: f[0], reverse=True)
    on_facet = [candidates[f] for f in ordered]
    for i, v in enumerate(pts):
        common = (1 << len(pts)) - 1
        for c in on_facet:
            if c >> i & 1:
                common &= c
        if common != 1 << i:
            raise ValueError(f"point {v} is not a vertex (redundant input point)")
    lists = [[j for j in range(len(pts)) if c >> j & 1] for c in on_facet]
    return [f[0] for f in ordered], [f[1] for f in ordered], lists


def normal_fan(vp):
    """Outer normal fan of a full-dimensional VPolytope: rays are the
    primitive facet normals, one maximal cone per vertex."""
    normals, _offsets, contacts = facet_description(vp)
    cones = [[] for _ in vp.vertices]
    for k, on_facet in enumerate(contacts):
        for i in on_facet:
            cones[i].append(k)
    return Fan(vp.dim, normals, cones)


def p_h(fan, h):
    """The polytope {x : Gx <= h} with G the fan's ray matrix in fan order."""
    if len(h) != fan.n_rays:
        raise ValueError(f"height vector must have length {fan.n_rays}")
    return HPolytope(fan.rays, h)


def realization(fan, h):
    """P_h = {x : Gx <= h} as a VPolytope proved to have the validated fan as
    its normal fan, or ValueError. By Chapoton, Fomin and Zelevinsky (Canad.
    Math. Bull. 2002) it has iff for each maximal cone C the point
    x_C = G_C^-1 h_C satisfies every other ray's inequality strictly; x_C is
    then the vertex with normal cone C. With h scaled to integers and (adj,
    det) the cone's cached adjugate, x = adj^T h_C is det x_C, and the check
    is det h_r > r . x. Facet (r, h_r) holds the x_C with r in C."""
    if len(h) != fan.n_rays:
        raise ValueError(f"height vector must have length {fan.n_rays}")
    *h_int, s = primitive([*h, 1])
    points, tight = [], []
    for cone, (adj, det) in zip(fan.maximal_cones, fan._cone_data()):
        x = [dot(col, [h_int[i] for i in cone]) for col in zip(*adj)]
        if any(i not in cone and det * h_int[i] <= dot(r, x) for i, r in enumerate(fan.rays)):
            raise ValueError("the normal fan of the polytope differs from the fan")
        points.append([Fraction(xk, det * s) for xk in x])
        tight.append(sum(1 << i for i in cone))
    return VPolytope(points, (list(zip(fan.rays, h)), tight))


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
    dim, labels = _json_field(data, "dim", "fan JSON"), data.get("labels")
    if type(dim) is not int or not isinstance(labels, (list, type(None))):
        raise ValueError("fan JSON needs an integer 'dim' and 'labels' as a list")
    rays, cones = (int_rows(_json_field(data, k, "fan JSON"), dim) for k in ("rays", "cones"))
    return Fan(dim, rays, cones, labels)


def _json_field(data, key, what):
    """data[key] of the JSON object that `what` names; a value that is not
    an object, or a missing key, is a ValueError that says so."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object")
    if key not in data:
        raise ValueError(f"{what} has no {key!r}")
    return data[key]


def int_rows(value, width):
    """A JSON value checked to be a list of integer lists of length width."""
    if not isinstance(value, list) or not all(
        isinstance(row, list) and len(row) == width and all(type(x) is int for x in row)
        for row in value
    ):
        raise ValueError(f"expected a list of integer lists of length {width}")
    return value


def write_roff(vp):
    """ROFF text: header, `V F` counts, vertex rows as `p/q` rationals,
    then facet lines `k i1 ... ik` with sorted vertex indices."""
    _normals, _offsets, contacts = facet_description(vp)
    lines = ["ROFF", f"{len(vp.vertices)} {len(contacts)}"]
    for v in vp.vertices:
        lines.append(" ".join(f"{x.numerator}/{x.denominator}" for x in v))
    for fl in sorted(contacts):
        lines.append(" ".join(str(i) for i in [len(fl), *fl]))
    return "\n".join(lines) + "\n"


def parse_roff(text):
    """Parse ROFF text into (vertex tuples, facet index lists); malformed
    text raises ValueError."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2 or lines[0] != "ROFF":
        raise ValueError("missing ROFF header")
    nv, nf = (int(tok) for tok in lines[1].split())
    if nv < 1 or nf < 0 or len(lines) != 2 + nv + nf:
        raise ValueError("ROFF line count mismatch")
    try:
        verts = [tuple(Fraction(tok) for tok in ln.split()) for ln in lines[2 : 2 + nv]]
    except ZeroDivisionError:
        raise ValueError("vertex coordinate with zero denominator") from None
    if len({len(v) for v in verts}) != 1:
        raise ValueError("vertex rows differ in length")
    facets = []
    for ln in lines[2 + nv :]:
        toks = [int(tok) for tok in ln.split()]
        if not 0 < toks[0] == len(toks) - 1 or not all(0 <= i < nv for i in toks[1:]):
            raise ValueError(f"facet line {ln!r} needs a count prefix and indices in 0..{nv - 1}")
        facets.append(tuple(toks[1:]))
    return verts, facets


def roff_realization(fan, verts, facet_lists):
    """The polytope of ROFF data in R^fan.dim, proved to realize the validated
    fan, or ValueError: it is P_h for its heights h_r = max r.v over its
    vertices v, with the file's vertices and facet lists up to vertex order."""
    den = lcm(*(x.denominator for v in verts for x in v))
    scaled = [[x.numerator * (den // x.denominator) for x in v] for v in verts]
    vp = realization(fan, [Fraction(max(dot(r, v) for v in scaled), den) for r in fan.rays])
    position = {v: j for j, v in enumerate(vp.vertices)}
    index = [position.get(v, -1) for v in verts]
    given = sorted(sorted(index[i] for i in fl) for fl in facet_lists)
    if sorted(index) != list(range(len(position))) or given != sorted(facet_description(vp)[2]):
        raise ValueError("the file's vertices and facets are not those of the polytope")
    return vp
