"""Tests of the benchmark itself: seeded inputs, failure accounting and
span nesting. They run in a few seconds on rank-2 and rank-3 inputs."""

from fractions import Fraction

import bench_inputs as bi
import bench_trace
import bench_workloads as bw
import run

run.import_fanforge()

FACETS = {"A4": 10, "A4alt": 10, "D4": 12, "D4mut": 12}


def _streams(seed):
    return (
        bi.take(bi.pipeline_cs(seed), 3),
        bi.cfz_fans(seed),
        bi.take(bi.cfz_blocks(seed, FACETS), 3),
        bi.take(bi.sweep_blocks(seed), 3),
    )


def test_same_seed_same_inputs_other_seed_other_inputs():
    first, again, other = _streams(7), _streams(7), _streams(8)
    assert first == again
    for a, b in zip(first, other):
        assert a != b


def test_generated_inputs_are_well_formed():
    for seed in range(20):
        first, second = bi.take(bi.sweep_blocks(seed), 2)
        assert first != second and len(first) == len(second)
        for op in first:
            if op[0] == "tri":
                assert len(op[4]) == op[3] - 3
        b = bi.cfz_fans(seed)["D4mut"]
        assert all(b[i][j] == -b[j][i] for i in range(4) for j in range(4))


def _count(fn, *args):
    outcome = bw.Outcome()
    outcome.attempt(fn, *args)
    return outcome


def test_faulty_ops_are_counted():
    a2 = bi.b_matrix(2, bi.linear_orientation("A", 2))
    state = bw.cfz_state({"A2": a2})
    assert _count(bw.cfz_check, state, ("pos", "A2", (1, 2, 3))).failed == 0
    assert _count(bw.cfz_check, state, ("viol", "A2", 0, Fraction(2))).failed == 0
    # a ValueError is an accepted rejection only for a violated height
    wrong_length = _count(bw.cfz_check, state, ("pos", "A2", (1, 2)))
    assert (wrong_length.attempted, wrong_length.failed) == (1, 1)
    assert wrong_length.latencies == []
    # a seed whose fan does not have the claimed type's counts
    assert _count(bw.sweep_seed, ("b", "A", 2, a2)).failed == 0
    assert _count(bw.sweep_seed, ("b", "D", 2, a2)).failed == 1
    assert _count(bw.sweep_seed, ("b", "A", 3, a2)).failed == 1


def test_digest_mismatch_is_a_failed_op(tmp_path):
    import json

    expected = json.loads((run.HERE / "digests.json").read_text())
    c = [Fraction(1)] * 6
    cli = bw.InProcessCLI()
    ok = _count(bw.checked_chain, cli, tmp_path, ("A", 3, True), c, expected)
    assert ok.failed == 0, ok.errors
    assert cli.bytes_out > 0
    tampered = dict(expected, **{"A3/typecone.json": "0" * 64})
    bad = _count(bw.checked_chain, cli, tmp_path, ("A", 3, True), c, tampered)
    assert bad.failed == 1 and "A3/typecone.json" in bad.errors[0]


def test_det_int_spans_nest_under_vertices_on_a2():
    from fanforge import clusterfan, linalg, polyhedra, typecone

    originals = (polyhedra.vertices, polyhedra.det_int, linalg.det_int)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        seed = clusterfan.initial_seed(bi.b_matrix(2, bi.linear_orientation("A", 2)))
        fan = clusterfan.enumerate_fan(seed).fan
        tc = typecone.type_cone(fan)
        poly, _cert = typecone.qc_polytope(fan, tc, [1] * tc.n_facets)
        assert polyhedra.fan_eq(polyhedra.normal_fan(polyhedra.vertices(poly)), fan)
    finally:
        tracer.uninstall()
    assert (polyhedra.vertices, polyhedra.det_int, linalg.det_int) == originals

    names = [tracer.names[i] for i in tracer.span_name]
    under = tracer.under("polyhedra.vertices")
    assert any(flag and name == "linalg.det_int" for flag, name in zip(under, names))
    for _name, busy, own in tracer.span_table():
        assert -1e-9 <= own <= busy
    calls, _busy, _own, _layers = tracer.per_layer()
    assert calls["polyhedra.vertices"] == 1
    assert tracer.counters["polyhedra.vertices.vertices_out"] == 5
    assert set(tracer.span_op) == {0}
