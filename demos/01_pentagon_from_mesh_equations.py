"""The rank-2 story, end to end.

Knit the Auslander-Reiten window of the linearly oriented rank-2 quiver,
read off its three mesh equations, eliminate everything down to the two
projection coordinates, and watch the pentagon appear.
"""

from fanforge import (
    abhy_functionals,
    abhy_polytope,
    knit_ar_quiver,
    linear_quiver,
    normal_fan,
    vertices,
)

# Knit the window: 5 vertices (2 shifted injectives + 3 modules), 3 meshes.
ar = knit_ar_quiver(linear_quiver(2))
print("window vertices:")
for vid, slice_idx, tree_v, label, kind in [
    (i, v.slice_index, v.tree_vertex, ar.vertex_label(i), v.kind)
    for i, v in enumerate(ar.vertices)
]:
    print(f"  {label:9s} slice={slice_idx} row={tree_v} {kind}")

# Each mesh contributes one affine equation q + t = middles + c.
print("\nmesh equations:")
for mesh in ar.meshes:
    mids = " + ".join(ar.vertex_label(m) for m in mesh.middles) or "0"
    print(
        f"  {ar.vertex_label(mesh.start)} + {ar.vertex_label(mesh.end)}"
        f" = {mids} + {ar.mesh_param_label(mesh)}"
    )

# Back-substitution in reverse slice order expresses every coordinate over
# the two free coordinates q_{2 5} and q_{3 5} plus the parameters.
funcs = abhy_functionals(ar)
print("\neliminated functionals (mesh coefficients, projection coefficients):")
for vid in range(len(ar.vertices)):
    f = funcs[vid]
    print(f"  {ar.vertex_label(vid):9s} mesh={f.mesh_coeffs} proj={f.proj_coeffs}")

# Setting every parameter to 1 and demanding every coordinate >= 0 cuts out
# the closed pentagon 0 <= x <= 2, 0 <= y <= 2, y - x <= 1.
poly = abhy_polytope(ar, (1, 1, 1))
vp = vertices(poly)
print("\npentagon vertices:", [tuple(map(int, v)) for v in vp.vertices])

# Its outer normal fan is the rank-2 g-vector fan: five rays, five cones.
fan = normal_fan(vp)
print("normal fan rays:", list(fan.rays))
print("normal fan cones:", list(fan.maximal_cones))
