"""Wall dependencies, the unique exchange check and McMullen type cones.

A wall is an adjacent pair of maximal cones (polyhedra owns Wall and walls;
both are imported here too). Its dependency is read off the integer
adjugate of one of those cones, the per-cone data that :meth:`Fan.validate`
builds and caches, and kept as one primitive integer normal on all N rays.
That adjugate is det times a proved cone inverse, so the normal annihilates
the ray matrix by construction: wall_dependency is the one place the
identity sum(v_i r_i) = 0 is established. The type cone, the unique
exchange check and the mutation theorem read that normal and do not
re-derive it; Fractions appear only when its entries are read normalized to
alpha + alpha' = 2, and in the report of a failed check.

The type cone lives in R^N and has an n-dimensional lineality space (the
span of the ray-matrix columns), so facet extraction works on the left
kernel of G, in the coordinates of the N - n rays outside maximal cone 0:
that cone is nonsingular, so a kernel row's entries on it are fixed by the
others. The extreme rays of the projected cone are computed exactly by
incremental double description, and the facets are read off its exact
incidence: the rows tight on inclusion-maximal sets of rays. Two such rows
with the same set mean the cone has no interior, which is how a complete
fan that is not polytopal is rejected. TypeCone JSON is written
(TypeCone.to_json) and read back (type_cone_from_json) here, as Fan JSON
is in polyhedra.
"""

import json
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import (
    DegenerateWall,
    InconsistentSystem,
    NonPositiveParameter,
    NotSimplicial,
)
from .linalg import _independent_rows, dot, primitive, solve
from .polyhedra import Wall, _json_field, extreme_rays, facet_rows, int_rows, p_h, row_contacts, walls


class LinearDependency(namedtuple("LinearDependency", "wall normal")):
    """The dependency across a wall as its primitive integer normal on all
    N rays: normal[r]*r + normal[r']*r' + sum(normal[s]*s over shared s) = 0
    with normal[r], normal[r'] > 0 and zeros off the wall. alpha,
    alpha_prime and middle_coeffs (shared ray -> alpha_i, in shared-ray
    order) are computed on each read, as Fractions normalized to
    alpha*r + alpha_prime*r' = sum alpha_i s_i, alpha + alpha_prime = 2."""

    __slots__ = ()

    def _normalized(self, x):
        r, r2 = self.wall.exchanged
        return Fraction(2 * x, self.normal[r] + self.normal[r2])

    @property
    def alpha(self):
        return self._normalized(self.normal[self.wall.exchanged[0]])

    @property
    def alpha_prime(self):
        return self._normalized(self.normal[self.wall.exchanged[1]])

    @property
    def middle_coeffs(self):
        return {s: self._normalized(-self.normal[s]) for s in self.wall.shared}


def wall_dependency(fan, wall):
    """The unique linear dependency across a wall, as its primitive normal.

    Cone A = {r} + shared is nonsingular (Fan._cone_data proves it), so
    the rays r, r' and shared have a one-dimensional kernel and
    det*r' = sum(lambda_k a_k) over cone A's rays a_k, with lambda_k =
    adj_A[k] . r' from cone A's cached adjugate. With a = lambda_r the
    normal is -a at r, det at r' and -lambda_s at each shared s, made
    primitive by the gcd of those n + 1 entries; it has both exchanged
    entries positive iff a < 0.
    """
    r, r2 = wall.exchanged
    cone = fan.maximal_cones[wall.cone_a]
    if cone != tuple(sorted((r, *wall.shared))):
        raise DegenerateWall(f"wall {wall.exchanged} is not a facet of cone {wall.cone_a}")
    adj, det = fan._cone_data()[wall.cone_a]
    ray = fan.rays[r2]
    lam = [dot(row, ray) for row in adj]
    # det and the lambda_k are the normal's only nonzero entries
    g = gcd(det, *lam)
    vec = [0] * fan.n_rays
    for k, x in zip(cone, lam):
        vec[k] = -x // g
    if vec[r] <= 0:
        raise DegenerateWall(
            f"exchanged rays of wall {wall.exchanged} are not on opposite sides"
        )
    vec[r2] = det // g
    return LinearDependency(wall, tuple(vec))


def unique_exchange_check(fan, dependencies=None):
    """Group walls by exchanged ray pair and compare the full dependency
    vectors (the strictest reading); equal primitive integer normals are
    equal normalized dependencies. A group that fails is reported with its
    vectors normalized to alpha + alpha' = 2, and the weaker reading,
    equality only on the walls' common supports, is reported alongside
    whenever the two disagree."""
    if dependencies is None:
        dependencies = [wall_dependency(fan, w) for w in walls(fan)]
    groups = {}
    for dep in dependencies:
        key = tuple(sorted(dep.wall.exchanged))
        groups.setdefault(key, []).append(dep)
    violations = []
    weak_disagrees = False
    for key in sorted(groups):
        deps = groups[key]
        if len({d.normal for d in deps}) == 1:
            continue
        vectors = [tuple(d._normalized(x) for x in d.normal) for d in deps]
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


class TypeCone(namedtuple("TypeCone", "n_rays wall_list raw_inequalities facets")):
    """Inequality description of the cone of admissible height vectors:
    raw_inequalities holds one primitive integer N-vector per wall, facets
    the irredundant ones, sorted.

    The normals are stored closed; the cone itself is open, so membership
    is strict comparison."""

    __slots__ = ()

    @property
    def k_matrix(self):
        """The matrix K whose rows are the facets."""
        return self.facets

    @property
    def n_facets(self):
        return len(self.facets)

    def contains(self, h):
        """Membership of a height vector in the open cone: every facet
        normal pairs strictly positively with h."""
        return all(dot(f, h) > 0 for f in self.facets)

    def to_json(self):
        payload = {
            "N": self.n_rays,
            "walls": [
                {
                    "cones": [w.cone_a, w.cone_b],
                    "shared": list(w.shared),
                    "exchanged": list(w.exchanged),
                }
                for w in self.wall_list
            ],
            "facets": [list(f) for f in self.facets],
            "K": [list(f) for f in self.k_matrix],
        }
        return json.dumps(payload, separators=(",", ":"))


def type_cone_from_json(text):
    """The TypeCone that to_json wrote, as `realize --typecone` reads it:
    N and the facets; the walls are not read back."""
    data = json.loads(text)
    n_rays = _json_field(data, "N", "type cone JSON")
    if type(n_rays) is not int:
        raise ValueError("type cone JSON needs an integer 'N'")
    facets = int_rows(_json_field(data, "facets", "type cone JSON"), n_rays)
    return TypeCone(n_rays, (), (), tuple(map(tuple, facets)))


def type_cone(fan):
    """Type cone of a complete simplicial fan.

    Raw inequalities are the primitive integer normals of all wall
    dependencies, deduplicated in wall order (positive scaling only, so
    sign is meaningful); the facets are the rows whose contact sets with
    the extreme rays are inclusion-maximal, on the rows' entries at the
    rays outside maximal cone 0. A fan with no strictly convex heights
    (complete but not polytopal) raises InconsistentSystem.
    """
    if not fan.maximal_cones:
        raise InconsistentSystem("fan has no maximal cone")
    wall_list = walls(fan)
    raw = [wall_dependency(fan, w).normal for w in wall_list]
    dedup = list(dict.fromkeys(raw))
    # wall_dependency builds every row from a proved cone inverse, so it
    # annihilates G; cone 0's rays are independent, so dropping a row's
    # entries on cone 0 maps the left kernel of G one to one onto
    # R^(N-n): tight sets are unchanged
    cone0 = fan.maximal_cones[0]
    free = [i for i in range(fan.n_rays) if i not in cone0]
    reduced = [tuple(p[i] for i in free) for p in dedup]
    extreme = extreme_rays(reduced, len(free))
    contacts = row_contacts(list(extreme.values()), len(reduced))
    selected = facet_rows(reduced, contacts)
    # the masks are exact zero tests on rays that satisfy every row, so the
    # sum of a facet's contact rays is tight on exactly the rows whose
    # contact sets contain its own; facet sets are inclusion-maximal, so it
    # is strictly inside every other row iff no two facets share a set
    if len({contacts[k] for k in selected}) != len(selected):
        raise InconsistentSystem("the type cone has no interior: the fan is not polytopal")
    facets = [dedup[k] for k in selected]
    return TypeCone(fan.n_rays, tuple(wall_list), tuple(raw), tuple(sorted(facets)))


class SlackCertificate(namedtuple("SlackCertificate", "h c k_matrix ray_matrix")):
    """Witnesses Q_c = {q : Kq = c, q >= 0} ~ P_h via q = h - Gx: the map
    preserves the K-fibers (KG = 0, Kh = c) and q >= 0 <=> Gx <= h."""

    __slots__ = ()

    def slack(self, x):
        """Nonnegative slack coordinates of a point of P_h."""
        return tuple(
            hi - dot(g_row, x) for hi, g_row in zip(self.h, self.ray_matrix)
        )

    def check(self):
        """K G = 0 on the integer matrices, and K h = c on h scaled to
        integers: K (s h) = s c for the scale s of (h, 1) to a primitive
        integer vector."""
        columns = list(zip(*self.ray_matrix))
        for k_row in self.k_matrix:
            if any(dot(k_row, col) for col in columns):
                raise InconsistentSystem("K G != 0")
        *h_int, s = primitive([*self.h, 1])
        if [dot(k_row, h_int) for k_row in self.k_matrix] != [s * Fraction(x) for x in self.c]:
            raise InconsistentSystem("K h != c")
        return True


def qc_polytope(fan, tc, c):
    """Realize the fan as Q_c: solve Kh = c exactly and return P_h together
    with the slack embedding x -> h - Gx."""
    expected = fan.n_rays - fan.dim
    if tc.n_facets != expected:
        raise NotSimplicial(
            f"type cone has {tc.n_facets} facets, expected N - n = {expected}"
        )
    # K's rows are integer facets, so its integer rank is its rank
    if len(_independent_rows(tc.k_matrix, expected)) != expected:
        raise InconsistentSystem("facet matrix K is rank deficient")
    c = [Fraction(x) for x in c]
    if len(c) != expected:
        raise ValueError(f"need one parameter per facet ({expected})")
    if any(x <= 0 for x in c):
        raise NonPositiveParameter("all parameters must be strictly positive")
    # K is square of full rank, so Kh = c has exactly one solution
    h = solve(tc.k_matrix, c)
    cert = SlackCertificate(tuple(h), tuple(c), tc.k_matrix, fan.rays)
    cert.check()
    return p_h(fan, h), cert
