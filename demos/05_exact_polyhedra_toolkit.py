"""The exact polyhedral substrate.

Everything runs over exact rationals: vertex enumeration takes the extreme
rays of the homogenized cone by integer double description, a ray at
infinity proves unboundedness, and serialization is byte-deterministic.
"""

from fractions import Fraction

from fanforge import HPolytope, fan_eq, normal_fan, p_h, vertices, write_roff
from fanforge.errors import DimensionDeficient, Empty, Unbounded
from fanforge.polyhedra import Fan

# A pentagon as an intersection of five halfspaces.
pentagon = HPolytope(
    [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)],
    (2, 2, 1, 0, 0),
)
vp = vertices(pentagon)
print("pentagon vertices:", [tuple(map(int, v)) for v in vp.vertices])

# Rationals stay exact all the way through.
squeezed = HPolytope([(3, 0), (-7, 0), (0, 2), (0, -5)], (1, 1, 1, 1))
print("rational box vertices:", vertices(squeezed).vertices)

# The three failure modes are reported distinctly. A recession direction is
# reported as Unbounded whether or not the region is empty.
for rows, b, expected in [
    ([(-1, 0), (0, -1)], (0, 0), Unbounded),
    ([(1, 0), (-1, 0), (0, 1), (0, -1)], (-1, 0, 1, 1), Empty),
    ([(1, 0), (-1, 0), (0, 1), (0, -1)], (0, 0, 1, 0), DimensionDeficient),
]:
    try:
        vertices(HPolytope(rows, b))
    except expected as exc:
        print(f"{expected.__name__}: {exc}")

# Normal fans, fan equality, and the height-vector construction. Heights
# are indexed in the fan's own ray order: (1,0),(0,1),(0,-1),(-1,1),(-1,0).
fan = normal_fan(vp)
print("\nfan of the pentagon:", fan)
print("p_h with the same heights recovers it:", fan_eq(fan, normal_fan(vertices(p_h(fan, (2, 2, 0, 1, 0))))))
print("heights outside the type cone lose a ray:",
      normal_fan(vertices(p_h(fan, (2, 2, 0, 3, 0)))).n_rays, "rays")

# Byte-deterministic ROFF with rationals serialized as p/q.
print("\nROFF of the square [0,1/2]^2:")
square = vertices(HPolytope([(1, 0), (-1, 0), (0, 1), (0, -1)], (Fraction(1, 2), 0, Fraction(1, 2), 0)))
print(write_roff(square))

# Fans prove their own completeness: every wall lies in two cones on
# opposite sides, and one interior point is covered exactly once.
quadrants = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])
print("quadrant fan validates:", quadrants.validate())
