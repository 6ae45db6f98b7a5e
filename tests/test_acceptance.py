"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Tested-instance sets (documented here once):
  - orientations per rank n: linear, plus an alternating orientation for n >= 2;
  - triangulations per rank n: the first three of the canonical enumeration of
    the (n+3)-gon (the square has only two, so rank 1 uses both);
  - the CFZ lemma runs on two triangulations per rank through 4 and one at
    rank 5, ten positive parameter samples and five violated heights each.

Each test prints one CRITERION line (visible with pytest -s).
"""

import io
import json
import random
import time
from fractions import Fraction

import pytest

from fanforge import cli
from fanforge.arquiver import DynkinQuiver, abhy_polytope, knit_ar_quiver, linear_quiver
from fanforge.clusterfan import (
    Triangulation,
    all_triangulations,
    enumerate_fan,
    flip_graph,
    initial_seed,
    mutate_seed,
    seed_from_triangulation,
)
from fanforge.errors import DimensionDeficient, Empty, Unbounded
from fanforge.exchange import relative_ar_meshes, verify_mutation_theorem
from fanforge.linalg import dot, primitive, solve
from fanforge.polyhedra import Fan, fan_eq, normal_fan, p_h, vertices
from fanforge.typecone import qc_polytope, type_cone, unique_exchange_check

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}


def orientations_for(n):
    out = [None]  # linear
    if n >= 2:
        out.append(tuple((i, i + 1) if i % 2 else (i + 1, i) for i in range(1, n)))
    return out


def triangulations_for(n, count=3):
    return all_triangulations(n + 3)[:count]


def perturbed_orthant_fan():
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, -1), (1, 0, 1)]
    cones = [
        (0, 2, 5), (0, 3, 5), (1, 2, 5), (1, 3, 5),
        (0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4),
    ]
    return Fan(3, rays, cones)


def test_criterion_1_paper_a2_golden(capsys):
    start = time.monotonic()
    code = cli.main(["paper-a2"])
    elapsed = time.monotonic() - start
    out, _err = capsys.readouterr()
    assert code == 0, out
    assert out.strip().endswith("OK")
    for line in (
        "q_{1 3} + q_{2 4} = q_{1 4} + c_{2 4}",
        "q_{1 4} + q_{2 5} = q_{2 4} + c_{2 5}",
        "q_{2 4} + q_{3 5} = q_{2 5} + c_{3 5}",
        "q_{1 3} = c_{2 4} + c_{2 5} - q_{2 5}",
        "q_{1 4} = c_{2 5} + c_{3 5} - q_{3 5}",
        "q_{2 4} = c_{3 5} + q_{2 5} - q_{3 5}",
        "(0,0) (0,1) (1,2) (2,0) (2,2)",
    ):
        assert line in out
    assert elapsed < 1.0, f"paper-a2 took {elapsed:.2f}s"
    print(f"CRITERION 1 PASS ({elapsed:.2f}s): paper-a2 golden reproduction, exact")


def test_criterion_2_counting_laws():
    start = time.monotonic()
    for n in range(1, 6):
        n_expected = n * (n + 3) // 2
        for orientation in orientations_for(n):
            ar = knit_ar_quiver(DynkinQuiver("A", n, orientation))
            assert ar.n_vertices == n_expected
            assert len(ar.meshes) == n_expected - n
        for tri in triangulations_for(n):
            enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
            assert enum.fan.n_rays == n_expected
            assert len(enum.fan.maximal_cones) == CATALAN[n + 1]
            tc = type_cone(enum.fan)
            assert tc.n_facets == n_expected - n
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"counting laws took {elapsed:.2f}s"
    print(
        f"CRITERION 2 PASS ({elapsed:.2f}s): AR, ray, cone and facet counts exact "
        "for A_1..A_5"
    )


def test_criterion_3_uerp():
    start = time.monotonic()
    for n in range(1, 6):
        for tri in triangulations_for(n):
            fan = enumerate_fan(seed_from_triangulation(tri), triangulation=tri).fan
            report = unique_exchange_check(fan)
            assert report["holds"], (n, tri.diagonals, report)
    bad = unique_exchange_check(perturbed_orthant_fan())
    assert not bad["holds"]
    assert bad["violations"]
    elapsed = time.monotonic() - start
    print(
        f"CRITERION 3 PASS ({elapsed:.2f}s): UERP holds on all tested g-vector fans "
        "and fails on the perturbed orthant fan"
    )


def _cfz_fans():
    for n in range(1, 5):
        for tri in triangulations_for(n, count=2):
            yield tri
    yield triangulations_for(5, count=1)[0]


def test_criterion_4_cfz_lemma_both_directions():
    start = time.monotonic()
    rng = random.Random(0)
    for tri in _cfz_fans():
        fan = enumerate_fan(seed_from_triangulation(tri)).fan
        tc = type_cone(fan)
        m = tc.n_facets
        for _ in range(10):
            c = [Fraction(rng.randint(1, 24), rng.randint(1, 6)) for _ in range(m)]
            poly, _cert = qc_polytope(fan, tc, c)
            assert fan_eq(normal_fan(vertices(poly)), fan)
        poly, cert = qc_polytope(fan, tc, [1] * m)
        h0 = list(cert.h)
        k_rows = [list(f) for f in tc.k_matrix]
        for _ in range(5):
            f_idx = rng.randrange(m)
            target = [Fraction(0)] * m
            target[f_idx] = Fraction(1)
            w = solve(k_rows, target)
            t = Fraction(rng.randint(1, 5))
            h_bad = [hi - (1 + t) * wi for hi, wi in zip(h0, w)]
            assert dot(tc.facets[f_idx], h_bad) < 0
            assert all(dot(tc.facets[j], h_bad) > 0 for j in range(m) if j != f_idx)
            try:
                nf = normal_fan(vertices(p_h(fan, h_bad)))
            except (Unbounded, Empty, DimensionDeficient, ValueError):
                continue  # no realization at all: certainly differs
            assert not fan_eq(nf, fan)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"CFZ checks took {elapsed:.2f}s"
    print(
        f"CRITERION 4 PASS ({elapsed:.2f}s): normal_fan(Q_c) = fan for 10 positive c "
        "per fan; one violated facet breaks realization, 5 heights per fan"
    )


def test_criterion_5_relative_ar_meshes_match_facets():
    start = time.monotonic()
    for n in range(1, 6):
        for tri in triangulations_for(n):
            enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
            meshes = relative_ar_meshes(tri, enum)  # asserts excluded count == n
            assert len(meshes) == enum.fan.n_rays - n
            normals = {primitive(mesh.normal) for mesh in meshes}
            facets = set(type_cone(enum.fan).facets)
            assert normals == facets, (n, tri.diagonals)
    elapsed = time.monotonic() - start
    print(
        f"CRITERION 5 PASS ({elapsed:.2f}s): relative AR mesh normals equal type cone "
        "facets as sets, excluded count = n"
    )


def test_criterion_6_abhy_equals_type_cone_route():
    start = time.monotonic()
    for n in range(1, 5):
        ar = knit_ar_quiver(linear_quiver(n))
        abhy_verts = set(vertices(abhy_polytope(ar, [1] * len(ar.meshes))).vertices)

        tri = Triangulation(n + 3, [(1, j) for j in range(3, n + 3)])
        enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
        fan = enum.fan
        tc = type_cone(fan)
        poly, cert = qc_polytope(fan, tc, [1] * tc.n_facets)

        # slack dictionary: AR projection vertex -> diagonal -> ray position
        ray_pos = {ray: i for i, ray in enumerate(fan.rays)}
        proj_rows = []
        for vid in ar.projection_vertices:
            label = ar.vertex_label(vid)  # "q_{i j}"
            i_s, j_s = label.split("{")[1].rstrip("}").split()
            diag = (int(i_s), int(j_s))
            proj_rows.append(ray_pos[enum.diagonal_rays[diag]])
        mapped = set()
        for x in vertices(poly).vertices:
            q = cert.slack(x)
            assert all(v >= 0 for v in q)
            mapped.add(tuple(q[r] for r in proj_rows))
        assert mapped == abhy_verts, f"rank {n}"
    elapsed = time.monotonic() - start
    print(
        f"CRITERION 6 PASS ({elapsed:.2f}s): ABHY route and Q_c route agree exactly "
        "after the slack-coordinate translation, c = all ones, n <= 4"
    )


def test_criterion_7_mutation_property_suite():
    start = time.monotonic()
    rng = random.Random(0)
    base_matrices = [
        [[0]],
        [[0, 1], [-1, 0]],
        [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
        [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]],  # D4
    ]
    starts = [initial_seed(b) for b in base_matrices]
    starts.append(seed_from_triangulation(Triangulation(7, [(1, 3), (1, 4), (1, 5), (1, 6)])))
    pool = []
    for seed in starts:
        pool.append(seed)
        for _ in range(40):
            seed = mutate_seed(seed, rng.randrange(seed.rank))
            pool.append(seed)
    checks = 0
    while checks < 1000:
        seed = pool[rng.randrange(len(pool))]
        k = rng.randrange(seed.rank)
        assert mutate_seed(mutate_seed(seed, k), k) == seed
        checks += 1

    for b in base_matrices:
        enum = enumerate_fan(initial_seed(b))
        report = verify_mutation_theorem(enum.fan, enum.graph)
        assert report["holds"], report

    for polygon in range(4, 10):
        tri = Triangulation(polygon, [(1, j) for j in range(3, polygon)])
        enum = enumerate_fan(seed_from_triangulation(tri), triangulation=tri)
        fg = flip_graph(polygon)
        n = polygon - 3
        assert enum.fan.n_rays == n * (n + 3) // 2
        assert len(enum.graph.nodes) == len(fg.nodes) == CATALAN[polygon - 2]
        assert len(enum.graph.edges) == len(fg.edges)
        mapping = {i: frozenset(t) for i, t in enumerate(enum.node_triangulations)}
        assert len(set(mapping.values())) == len(mapping)
        fg_edges = {
            frozenset(
                (frozenset(fg.nodes[a].diagonals), frozenset(fg.nodes[b].diagonals))
            )
            for a, b in fg.edges
        }
        mapped = {frozenset((mapping[a], mapping[b])) for a, b, _p in enum.graph.edges}
        assert mapped == fg_edges
        assert frozenset(tri.diagonals) in set(mapping.values())
    elapsed = time.monotonic() - start
    print(
        f"CRITERION 7 PASS ({elapsed:.2f}s): 1000 involutions, regular connected "
        "exchange graphs, flip-graph isomorphism through the 9-gon"
    )


def _artifact_bundle(threads, tmp_path, tag):
    """Deterministic artifacts covering the criterion 1..7 surface."""
    outputs = {}
    basedir = tmp_path / tag
    basedir.mkdir(exist_ok=True)

    def run_to_file(name, argv):
        path = basedir / name
        code = cli.main(["--threads", str(threads)] + argv + ["-o", str(path)])
        assert code == 0, argv
        outputs[name] = path.read_bytes()

    run_to_file("paper_a2.txt", ["paper-a2"])
    for n in (1, 2, 3, 4, 5):
        run_to_file(f"fan_a{n}.json", ["fan", "--type", "A", "--rank", str(n)])
    fan_path = basedir / "fan_a3.json"
    run_to_file("tc_a3.json", ["typecone", "--fan", str(fan_path)])
    run_to_file(
        "poly_a3.off",
        ["realize", "--fan", str(fan_path), "--typecone", str(basedir / "tc_a3.json")],
    )
    run_to_file("graph_a3.dot", ["graph", "--type", "A", "--rank", "3"])
    run_to_file("abhy_a3.txt", ["abhy", "--type", "A", "--rank", "3"])
    return outputs


def test_criterion_8_determinism(tmp_path, capsys):
    start = time.monotonic()
    first = _artifact_bundle(1, tmp_path, "run1")
    second = _artifact_bundle(1, tmp_path, "run2")
    threaded = _artifact_bundle(4, tmp_path, "run4")
    capsys.readouterr()
    assert first.keys() == second.keys() == threaded.keys()
    for name in first:
        assert first[name] == second[name], f"rerun changed {name}"
        assert first[name] == threaded[name], f"threads changed {name}"
    elapsed = time.monotonic() - start
    print(
        f"CRITERION 8 PASS ({elapsed:.2f}s): byte-identical artifacts across reruns "
        "and across --threads 1 vs 4"
    )


def test_criterion_8_rerun_in_place(tmp_path, capsys):
    """A rerun into the same directory overwrites every file, and a shorter
    output written over a longer one leaves exactly the fresh bytes."""
    start = time.monotonic()
    fresh = _artifact_bundle(1, tmp_path, "fresh")
    first = _artifact_bundle(1, tmp_path, "again")
    basedir = tmp_path / "again"
    long_c = ",".join(f"{10**12 + k}/{10**12 - k}" for k in range(6))
    argv = ["realize", "--fan", str(basedir / "fan_a3.json"), "--c", long_c]
    assert cli.main(argv + ["-o", str(basedir / "poly_a3.off")]) == 0
    assert len((basedir / "poly_a3.off").read_bytes()) > len(fresh["poly_a3.off"])
    second = _artifact_bundle(1, tmp_path, "again")
    capsys.readouterr()
    for name in fresh:
        assert first[name] == fresh[name], f"overwrite changed {name}"
        assert second[name] == fresh[name], f"shrinking overwrite changed {name}"
    assert first.keys() == second.keys() == fresh.keys()
    elapsed = time.monotonic() - start
    print(
        f"CRITERION 8 PASS ({elapsed:.2f}s): reruns in place, a shorter output over a "
        "longer one included, give the fresh-directory bytes"
    )
