"""Seeds, mutation, and fan enumeration.

A seed is an exchange matrix plus its g- and c-vectors, one per direction.
Mutation is an involution; iterating it from any finite-type seed closes up
into a complete simplicial fan whose maximal cones are the clusters.
"""

from fanforge import (
    Triangulation,
    enumerate_fan,
    flip_graph,
    initial_seed,
    mutate_seed,
    seed_from_triangulation,
)

# Start from the rank-3 path quiver; its g-vectors form the identity matrix.
seed = initial_seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
print("initial g-matrix:", seed.g_vectors)

# One mutation flips one g-vector; doing it twice returns the seed.
s1 = mutate_seed(seed, 0)
print("after mu_0, new g-vector:", s1.g_vectors[0])
assert mutate_seed(s1, 0) == seed

# Breadth-first search modulo cluster equality enumerates the whole fan.
enum = enumerate_fan(seed)
print(f"\nfan: {enum.fan.n_rays} rays, {len(enum.fan.maximal_cones)} cones")
print("rays:", list(enum.fan.rays))
print(f"exchange graph: {len(enum.graph.nodes)} nodes, {len(enum.graph.edges)} edges,",
      f"3-regular={enum.graph.is_regular(3)}, connected={enum.graph.is_connected()}")

# Exact completeness certificate: every wall lies in two cones on opposite
# sides, and one interior point is covered by exactly one cone.
enum.fan.validate()
print("fan invariants certified")

# Polygon oracle: clusters of the rank-3 fan are triangulations of a hexagon,
# mutations are diagonal flips. Track them side by side.
tri = Triangulation(6, [(1, 3), (1, 4), (1, 5)])
tracked = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
fg = flip_graph(6)
print(f"\nhexagon: {len(fg.nodes)} triangulations, {len(fg.edges)} flips")
print(f"tracked BFS: {len(tracked.graph.nodes)} clusters, {len(tracked.graph.edges)} walls")
print("diagonal -> g-vector dictionary:")
for diag, ray in sorted(tracked.diagonal_rays.items()):
    print(f"  {diag} -> {ray}")
