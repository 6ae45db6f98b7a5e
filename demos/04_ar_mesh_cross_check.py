"""Two independent routes to the same facet matrix.

Route one computes type cone facets from wall dependencies of the fan.
Route two never looks at walls: it rotates polygon diagonals (the
translation of the cluster category), drops the n meshes ending at initial
diagonals, and reads one inequality normal per surviving mesh. The two
normal sets agree exactly, which is the package's structural cross-check.
"""

from fanforge import (
    Triangulation,
    enumerate_fan,
    relative_ar_meshes,
    seed_from_triangulation,
    type_cone,
    verify_mutation_theorem,
)
from fanforge.linalg import primitive

for diagonals in ([(1, 3), (1, 4), (1, 5)], [(2, 6), (2, 5), (3, 5)], [(1, 3), (3, 6), (3, 5)]):
    tri = Triangulation(6, diagonals)
    enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
    meshes = relative_ar_meshes(tri, enum)
    mesh_normals = {primitive(m.normal) for m in meshes}
    facets = set(type_cone(enum.fan).facets)
    print(f"start {diagonals}:")
    print(f"  surviving meshes: {len(meshes)} (= N - n = {enum.fan.n_rays - 3})")
    print(f"  mesh normals == type cone facets: {mesh_normals == facets}")

# The rotation picture for one mesh:
tri = Triangulation(6, [(1, 3), (1, 4), (1, 5)])
enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
mesh = relative_ar_meshes(tri, enum)[0]
mids = ", ".join(str(m) for m in mesh.middles)
print(f"\nsample mesh: {mesh.start} -> [{mids}] -> {mesh.end}")

# Fan-level shadow of silting mutation: unique complements, a regular
# connected exchange graph, and integer exchange relations on every wall.
report = verify_mutation_theorem(enum.fan, enum.graph)
for key, value in report.items():
    print(f"  {key}: {value}")
