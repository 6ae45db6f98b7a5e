"""Seeded input generation for the fanforge benchmark.

Every random choice of every workload is drawn here from one workload seed:
`c` vectors, violated-height draws, triangulation samples, mutation
sequences and orientations. Nothing in this module imports fanforge; the
program only ever receives the generated inputs (exchange matrices,
triangulation diagonals, rational vectors).

Ops come in endless streams of blocks (pipeline: ladders) of fixed
composition; only the instances inside a block are random. A run measures
whole blocks, so every seed sees the same mix of op kinds, which keeps the
latency percentiles and throughput comparable across seeds.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb

# Dynkin tree edges with vertices 1..n, the same trees as the CLI's
# --type/--rank; the default orientation points each edge from its larger
# to its smaller vertex (the CLI's "linear" orientation).
TREE_EDGES = {
    "A": lambda n: [(i, i + 1) for i in range(1, n)],
    "D": lambda n: [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)],
    "E": lambda n: [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, n)],
}

# Infinite-type seeds of the sweep; each must be rejected with a FanforgeError.
KRONECKER = ((0, 2), (-2, 0))
AFFINE_A2 = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))
INFINITE_BUDGET = 2000


def linear_orientation(type_, n):
    return tuple((max(e), min(e)) for e in TREE_EDGES[type_](n))


def alternating_orientation(n):
    """Type A_n with alternating arrows, as in the acceptance suite."""
    return tuple((i, i + 1) if i % 2 else (i + 1, i) for i in range(1, n))


def all_orientations(type_, n):
    edges = TREE_EDGES[type_](n)
    return [
        tuple((b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips))
        for flips in product((False, True), repeat=len(edges))
    ]


def deck(rng, items):
    """Endless draws without replacement: each pass is a fresh shuffle."""
    while True:
        items = list(items)
        rng.shuffle(items)
        yield from items


def b_matrix(n, orientation):
    """Skew-symmetric exchange matrix of a quiver given by (source, target)
    arrows on vertices 1..n (the CLI's convention)."""
    b = [[0] * n for _ in range(n)]
    for s, t in orientation:
        b[t - 1][s - 1] += 1
        b[s - 1][t - 1] -= 1
    return tuple(tuple(row) for row in b)


def mutate_matrix(b, k):
    """Matrix mutation mu_k of an exchange matrix."""
    n = len(b)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -b[i][j]
            else:
                sign = (b[i][k] > 0) - (b[i][k] < 0)
                out[i][j] = b[i][j] + sign * max(0, b[i][k] * b[k][j])
    return tuple(tuple(row) for row in out)


def random_mutation(rng, b, min_steps=3, max_steps=9):
    """Apply a random mutation sequence, never repeating the last direction
    (which would undo it)."""
    prev = None
    for _ in range(rng.randint(min_steps, max_steps)):
        k = rng.choice([d for d in range(len(b)) if d != prev])
        b = mutate_matrix(b, k)
        prev = k
    return b


def random_triangulation(rng, polygon_size):
    """Diagonals of a random triangulation of the convex polygon 1..m:
    pick a random apex over the base edge, recurse on both sides."""
    diagonals = []

    def split(vertices):
        if len(vertices) < 4:
            return
        lo, hi = vertices[0], vertices[-1]
        pos = rng.randrange(1, len(vertices) - 1)
        apex = vertices[pos]
        for a, b in ((lo, apex), (apex, hi)):
            if b - a >= 2 and not (a == 1 and b == polygon_size):
                diagonals.append((a, b))
        split(vertices[: pos + 1])
        split(vertices[pos:])

    split(list(range(1, polygon_size + 1)))
    return tuple(sorted(diagonals))


def random_c(rng, m):
    """Positive rational parameter vector, criterion 4's distribution."""
    return tuple(Fraction(rng.randint(1, 24), rng.randint(1, 6)) for _ in range(m))


# --- expected counts (finite-type laws) ------------------------------------


def expected_counts(type_, n):
    """(clusters, rays) of the g-vector fan of a finite-type seed."""
    if type_ == "A":
        return comb(2 * n + 2, n + 1) // (n + 2), n * (n + 3) // 2
    if type_ == "D":
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n, n * n
    if (type_, n) == ("E", 6):
        return 833, 42
    raise ValueError(f"no count law for {type_}{n}")


# --- pipeline ---------------------------------------------------------------

# (type, rank, runs abhy); the ladder runs in this order.
LADDER = (("A", 3, True), ("A", 4, True), ("A", 5, False), ("D", 4, True), ("D", 5, False))


def pipeline_cs(seed):
    """Endless stream of ladders; each ladder maps an instance name to the
    seeded positive `c` given to `realize`."""
    rng = random.Random(f"pipeline/{seed}")
    while True:
        ladder = {}
        for type_, n, _abhy in LADDER:
            rays = expected_counts(type_, n)[1]
            ladder[f"{type_}{n}"] = random_c(rng, rays - n)
        yield ladder


# --- cfz --------------------------------------------------------------------

# Checks per block: (fan, positive checks, violated checks). Type A fans get
# twice the weight of type D fans so that the median check falls inside the
# cluster of A4 positive checks and the 90th percentile inside the cluster of
# D4 positive checks, not on the edge between two clusters.
CFZ_BLOCK = (("A4", 4, 2), ("A4alt", 4, 2), ("D4", 2, 1), ("D4mut", 2, 1))


def cfz_fans(seed):
    """The four rank-4 exchange matrices of the cfz workload; the last one
    is a seeded random mutation of the D4 initial seed."""
    rng = random.Random(f"cfz-fans/{seed}")
    d4 = b_matrix(4, linear_orientation("D", 4))
    return {
        "A4": b_matrix(4, linear_orientation("A", 4)),
        "A4alt": b_matrix(4, alternating_orientation(4)),
        "D4": d4,
        "D4mut": random_mutation(rng, d4),
    }


def cfz_blocks(seed, facet_counts):
    """Endless stream of blocks of cfz checks: ("pos", fan, c) with a positive
    parameter vector, or ("viol", fan, facet index, t) for the violated
    height h0 - (1 + t) w_f of criterion 4. facet_counts maps a fan name to
    its number of type cone facets."""
    rng = random.Random(f"cfz-ops/{seed}")
    while True:
        block = []
        for name, n_pos, n_viol in CFZ_BLOCK:
            m = facet_counts[name]
            block += [("pos", name, random_c(rng, m)) for _ in range(n_pos)]
            block += [
                ("viol", name, rng.randrange(m), Fraction(rng.randint(1, 5)))
                for _ in range(n_viol)
            ]
        rng.shuffle(block)
        yield block


# --- sweep ------------------------------------------------------------------

# One sweep op is ("b", type, rank, matrix), ("tri", type, rank, polygon
# size, diagonals), ("e6", matrix) or ("infinite", matrix). A block holds
# SWEEP_RANDOM's kinds and counts, drawn by the seed, plus every
# SWEEP_FIXED seed once, in seeded order. The costs of the heavy seeds
# differ by orientation (D5: by a factor of two), and a run fits only three
# or four blocks, so the heavy seeds are the same in every block: that keeps
# the 90th percentile and the throughput independent of the seed and of the
# number of blocks. D4 orientations are dealt from a shuffled deck of all
# eight.
SWEEP_RANDOM = (
    ("tri7", 5),
    ("mutA3", 4),
    ("mutA4", 4),
    ("mutD4", 4),
    ("orientD4", 3),
    ("tri8", 1),
)
_D5 = linear_orientation("D", 5)
_D5_ORIENTATIONS = (
    _D5,
    tuple((t, s) for s, t in _D5),
    tuple((t, s) if i % 2 else (s, t) for i, (s, t) in enumerate(_D5)),
    tuple((s, t) if i % 2 else (t, s) for i, (s, t) in enumerate(_D5)),
)
SWEEP_FIXED = (
    ("e6", b_matrix(6, linear_orientation("E", 6))),
    ("infinite", KRONECKER),
    ("infinite", AFFINE_A2),
) + tuple(("b", "D", 5, b_matrix(5, o)) for o in _D5_ORIENTATIONS)


def sweep_blocks(seed):
    """Endless stream of blocks of sweep seeds."""
    rng = random.Random(f"sweep/{seed}")
    d4_orientations = deck(rng, all_orientations("D", 4))

    def draw(kind):
        if kind in ("tri7", "tri8"):
            m = int(kind[3])
            return ("tri", "A", m - 3, m, random_triangulation(rng, m))
        type_, n = kind[-2], int(kind[-1])
        if kind.startswith("mut"):
            return ("b", type_, n, random_mutation(rng, b_matrix(n, linear_orientation(type_, n))))
        return ("b", type_, n, b_matrix(n, next(d4_orientations)))

    while True:
        block = list(SWEEP_FIXED) + [draw(kind) for kind, count in SWEEP_RANDOM for _ in range(count)]
        rng.shuffle(block)
        yield block


def take(stream, count):
    return [next(stream) for _ in range(count)]
