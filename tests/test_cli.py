import copy
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fanforge import polyhedra
from fanforge.cli import main


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_paper_a2_ok(capsys):
    code, out, err = run(capsys, ["paper-a2"])
    assert code == 0
    assert out.strip().endswith("OK")
    assert "q_{1 3} + q_{2 4} = q_{1 4} + c_{2 4}" in out
    assert "q_{1 3} = c_{2 4} + c_{2 5} - q_{2 5}" in out
    assert "(0,0) (0,1) (1,2) (2,0) (2,2)" in out


def test_paper_a2_fails_on_a_missing_equation(capsys, monkeypatch):
    from fanforge import cli

    extra = cli.PAPER_A2_EQUATIONS + ["q_{3 5} + q_{1 3} = c_{1 3}"]
    monkeypatch.setattr(cli, "PAPER_A2_EQUATIONS", extra)
    code, out, _ = run(capsys, ["paper-a2"])
    assert code == 1
    assert "MISMATCH equation mismatch" in out
    assert "OK" not in out.splitlines()


def test_fan_rank1_json(capsys):
    code, out, _ = run(capsys, ["fan", "--type", "A", "--rank", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 1
    assert data["rays"] == [[1], [-1]]
    assert len(data["cones"]) == 2


def test_fan_pipe_typecone_report(capsys, monkeypatch):
    code, fan_json, _ = run(capsys, ["fan", "--type", "A", "--rank", "3"])
    assert code == 0
    code, out, _ = run(capsys, ["typecone", "--report"], stdin_text=fan_json, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "facets=6 expected=6 uerp=true"


def test_fan_from_triangulation_seed(tmp_path, capsys):
    seed_file = tmp_path / "snake.json"
    seed_file.write_text(
        json.dumps({"triangulation": {"polygon": 6, "diagonals": [[2, 6], [2, 5], [3, 5]]}})
    )
    code, out, _ = run(capsys, ["fan", "--seed", str(seed_file)])
    assert code == 0
    data = json.loads(out)
    assert len(data["rays"]) == 9
    assert len(data["cones"]) == 14
    # tracked run labels rays by their diagonals
    assert any("-" in lbl for lbl in data["labels"])


def test_realize_verify_roundtrip(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    off_path = tmp_path / "poly.off"
    code, out, _ = run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(fan_path)])
    assert code == 0
    code, _, _ = run(
        capsys,
        ["realize", "--fan", str(fan_path), "--c", "1,1,1", "-o", str(off_path)],
    )
    assert code == 0
    assert off_path.read_text().startswith("ROFF\n")
    code, out, _ = run(capsys, ["verify", "--fan", str(fan_path), "--polytope", str(off_path)])
    assert code == 0
    assert "verified" in out


def test_realize_with_height_vector(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    off_path = tmp_path / "poly.off"
    run(capsys, ["fan", "--type", "A", "--rank", "1", "-o", str(fan_path)])
    code, _, _ = run(
        capsys, ["realize", "--fan", str(fan_path), "--h", "1,1/2", "-o", str(off_path)]
    )
    assert code == 0
    verts, _facets = __import__("fanforge.polyhedra", fromlist=["parse_roff"]).parse_roff(
        off_path.read_text()
    )
    from fractions import Fraction

    assert set(verts) == {(Fraction(1),), (Fraction(-1, 2),)}
    # heights outside the type cone still surface downstream, as exit 1
    code, out, _ = run(capsys, ["verify", "--fan", str(fan_path), "--polytope", str(off_path)])
    assert code == 0


def test_realize_with_height_vector_rejects_a_type_cone_file(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    tc_path = tmp_path / "tc.json"
    off_path = tmp_path / "poly.off"
    run(capsys, ["fan", "--type", "A", "--rank", "1", "-o", str(fan_path)])
    run(capsys, ["typecone", "--fan", str(fan_path), "-o", str(tc_path)])
    argv = ["realize", "--fan", str(fan_path), "--h", "1,1", "--typecone", str(tc_path)]
    code, out, err = run(capsys, argv + ["-o", str(off_path)])
    assert (code, out) == (2, "")
    assert err == "fanforge: error: give either --typecone or --h, not both\n"
    assert not off_path.exists()


@pytest.mark.parametrize("h", ["1,1,1,1,3", "1,2,1,1,1"])
def test_realize_rejects_heights_whose_polytope_is_not_a_realization(tmp_path, capsys, h):
    # 1,1,1,1,3 cuts out a quadrilateral; 1,2,1,1,1 has a vertex on three facets
    fan_path = tmp_path / "fan.json"
    off_path = tmp_path / "poly.off"
    run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(fan_path)])
    code, out, err = run(capsys, ["realize", "--fan", str(fan_path), "--h", h, "-o", str(off_path)])
    assert code == 1
    assert out.startswith("realization failed") and out.count("\n") == 1
    assert err == ""
    assert not off_path.exists()


@pytest.mark.parametrize("h", ["0,0,0,0,0", "-1,-1,-1,-1,-1"])
def test_realize_rejects_heights_whose_polytope_is_a_point_or_empty(tmp_path, capsys, h):
    fan_path = tmp_path / "fan.json"
    off_path = tmp_path / "poly.off"
    run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(fan_path)])
    argv = ["realize", "--fan", str(fan_path), f"--h={h}", "-o", str(off_path)]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out.startswith("realization failed") and out.count("\n") == 1
    assert err == ""
    assert not off_path.exists()


def test_realize_rejects_a_type_cone_file_with_tampered_facets(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    tc_path = tmp_path / "tc.json"
    off_path = tmp_path / "poly.off"
    run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(fan_path)])
    run(capsys, ["typecone", "--fan", str(fan_path), "-o", str(tc_path)])
    tc = json.loads(tc_path.read_text())
    f0, f1 = tc["facets"][:2]
    # still orthogonal to every ray, so K h = c is solved and certified, but
    # the resulting h lies outside the type cone
    tc["facets"][0] = [a + b for a, b in zip(f0, f1)]
    tc_path.write_text(json.dumps(tc))
    code, out, _ = run(
        capsys, ["realize", "--fan", str(fan_path), "--typecone", str(tc_path), "-o", str(off_path)]
    )
    assert code == 1
    assert out.startswith("realization failed")
    assert not off_path.exists()


def test_non_integer_budget_in_the_environment_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("FANFORGE_BUDGET", "abc")
    code, out, err = run(capsys, ["fan", "--type", "A", "--rank", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error: FANFORGE_BUDGET") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_budget_below_one_is_input_error(capsys, budget):
    code, out, err = run(capsys, ["fan", "--type", "A", "--rank", "2", f"--budget={budget}"])
    assert code == 2
    assert out == ""
    assert err == f"fanforge: error: --budget must be at least 1, not {budget}\n"


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_budget_below_one_in_the_environment_is_input_error(capsys, monkeypatch, budget):
    monkeypatch.setenv("FANFORGE_BUDGET", budget)
    code, out, err = run(capsys, ["graph", "--type", "A", "--rank", "2"])
    assert code == 2
    assert out == ""
    assert err == f"fanforge: error: FANFORGE_BUDGET must be at least 1, not {budget}\n"


def test_verify_detects_corruption(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    off_path = tmp_path / "poly.off"
    run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(fan_path)])
    run(capsys, ["realize", "--fan", str(fan_path), "-o", str(off_path)])
    lines = off_path.read_text().splitlines()
    toks = lines[2].split()
    toks[0] = "55/7"
    lines[2] = " ".join(toks)
    bad = tmp_path / "bad.off"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, ["verify", "--fan", str(fan_path), "--polytope", str(bad)])
    assert code == 1
    assert "verification failed" in out


def test_typecone_report_uerp_false_on_custom_fan(tmp_path, capsys):
    fan = {
        "dim": 3,
        "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, -1], [1, 0, 1]],
        "cones": [
            [0, 2, 5], [0, 3, 5], [1, 2, 5], [1, 3, 5],
            [0, 2, 4], [0, 3, 4], [1, 2, 4], [1, 3, 4],
        ],
    }
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(fan))
    code, out, _ = run(capsys, ["typecone", "--fan", str(path), "--report"])
    assert code == 0  # the type cone itself is simplicial here
    assert out.strip() == "facets=3 expected=3 uerp=false"


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "--h", ""],
        ["realize", "--c", ""],
        ["realize", "--typecone", ""],
        ["abhy", "--type", "A", "--rank", "3", "--c", ""],
        ["fan", "--seed", ""],
        ["fan", "--type", "A", "--rank", "3", "--orientation", ""],
        ["graph", "--type", "A", "--rank", "3", "--orientation", ""],
        ["abhy", "--type", "A", "--rank", "3", "--orientation", ""],
    ],
)
def test_an_empty_flag_value_is_an_input_error_not_an_absent_flag(tmp_path, capsys, argv):
    fan_path, out_path = tmp_path / "fan.json", tmp_path / "out"
    run(capsys, ["fan", "--type", "A", "--rank", "5", "-o", str(fan_path)])
    if argv[0] == "realize":
        argv = argv + ["--fan", str(fan_path)]
    code, out, err = run(capsys, argv + ["-o", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith("fanforge: error:") and err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["fan", "graph", "abhy"])
@pytest.mark.parametrize("token", ["2>1>3", ">", "2", "2>x"])
def test_an_orientation_token_that_is_not_one_arrow_is_input_error(capsys, command, token):
    code, out, err = run(capsys, [command, "--type", "A", "--rank", "3", "--orientation", token])
    assert (code, out) == (2, "")
    assert err == f"fanforge: error: orientation token {token!r} must look like '2>1'\n"


@pytest.mark.parametrize("argv", [["typecone"], ["realize", "--h", "1,1,1"]])
def test_incomplete_fan_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1]]}))
    code, out, err = run(capsys, argv + ["--fan", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error: wall condition violated")


def test_input_error_single_line(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, ["typecone", "--fan", str(missing)])
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("fanforge: error:")


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["typecone", "--fan", str(bad)])
    assert code == 2
    assert err.startswith("fanforge: error:")


def test_abhy_command_with_polytope_out(tmp_path, capsys):
    off_path = tmp_path / "abhy.off"
    code, out, _ = run(
        capsys,
        ["abhy", "--type", "A", "--rank", "3", "--polytope-out", str(off_path)],
    )
    assert code == 0
    assert "# mesh equations" in out
    assert off_path.read_text().startswith("ROFF\n")


def _reverse_arrows(monkeypatch):
    """Knit the quiver as given but build its fan from the reversed arrows."""
    from fanforge import arquiver

    exchange_matrix = arquiver.DynkinQuiver.exchange_matrix
    reversed_b = lambda quiver: [[-x for x in row] for row in exchange_matrix(quiver)]
    monkeypatch.setattr(arquiver.DynkinQuiver, "exchange_matrix", reversed_b)


@pytest.mark.parametrize("mismatch", ["reversed arrows", "a doubled row"])
def test_abhy_normals_that_are_not_the_fan_rays_exit_2(tmp_path, capsys, monkeypatch, mismatch):
    """A mismatch between the ABHY rows and the g-vector fan is a knitting
    or orientation bug: there is no second route, and nothing is written,
    neither the text (to -o or to stdout) nor the polytope nor the AR JSON."""
    from fanforge import arquiver

    if mismatch == "reversed arrows":
        _reverse_arrows(monkeypatch)
    else:
        abhy_polytope = arquiver.abhy_polytope

        def doubled_row(ar, c):
            poly = abhy_polytope(ar, c)
            rows = [*poly.ineq_matrix[:-1], [2 * x for x in poly.ineq_matrix[-1]]]
            return polyhedra.HPolytope(rows, poly.bounds)

        monkeypatch.setattr(arquiver, "abhy_polytope", doubled_row)
    paths = [tmp_path / name for name in ("abhy.txt", "abhy.off", "abhy.ar.json")]
    outputs = ["-o", str(paths[0]), "--polytope-out", str(paths[1]), "--ar-out", str(paths[2])]
    message = "fanforge: error: the ABHY normals are not the rays of the g-vector fan\n"
    assert run(capsys, ["abhy", "--type", "A", "--rank", "3", *outputs]) == (2, "", message)
    assert not any(path.exists() for path in paths)
    # without -o the text would go to stdout
    outputs = ["--polytope-out", str(paths[1])]
    assert run(capsys, ["abhy", "--type", "A", "--rank", "3", *outputs]) == (2, "", message)
    assert not paths[1].exists()


def test_abhy_type_e_gate(tmp_path, capsys):
    """Type E knits like A and D: --enable-e is accepted and changes no byte."""
    results = []
    for flag in ([], ["--enable-e"]):
        ar_path = tmp_path / f"e6{len(flag)}.json"
        argv = ["abhy", "--type", "E", "--rank", "6", *flag, "--ar-out", str(ar_path)]
        results.append((run(capsys, argv), ar_path.read_bytes()))
    assert results[0] == results[1]
    (code, out, err), ar = results[0]
    assert code == 0 and err == ""
    assert "# mesh equations" in out and len(json.loads(ar)["vertices"]) == 42


def test_graph_command(capsys):
    code, out, _ = run(capsys, ["graph", "--type", "A", "--rank", "2"])
    assert code == 0
    assert out.startswith("graph exchange {")
    assert out.count(" -- ") == 5


def test_outputs_byte_identical_across_runs_and_threads(tmp_path, capsys):
    texts = []
    for threads in ("1", "4", "1"):
        code, out, _ = run(
            capsys, ["--threads", threads, "fan", "--type", "A", "--rank", "4"]
        )
        assert code == 0
        texts.append(out)
    assert texts[0] == texts[1] == texts[2]


def test_bad_c_vector_is_input_error(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(fan_path)])
    code, _, err = run(capsys, ["realize", "--fan", str(fan_path), "--c", "1,-1,1"])
    assert code == 2
    assert err.startswith("fanforge: error:")


@pytest.mark.parametrize(
    "argv",
    [["realize", "--c", "1/0,1,1"], ["realize", "--h", "1/0,1,1,1,1"], ["abhy", "--c", "1/0"]],
)
def test_zero_denominator_is_input_error(tmp_path, capsys, argv):
    fan_path = tmp_path / "fan.json"
    run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(fan_path)])
    extra = ["--fan", str(fan_path)] if argv[0] == "realize" else []
    code, out, err = run(capsys, argv + extra)
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "seed",
    [{"b": 5}, {"triangulation": {"polygon": "x", "diagonals": 3}}],
)
def test_wrongly_typed_seed_is_input_error(tmp_path, capsys, seed):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed))
    code, out, err = run(capsys, ["fan", "--seed", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error:") and err.count("\n") == 1


def test_a_seed_file_with_both_forms_is_input_error(tmp_path, capsys):
    path = tmp_path / "seed.json"
    tri = {"polygon": 5, "diagonals": [[1, 3], [1, 4]]}
    path.write_text(json.dumps({"triangulation": tri, "b": [[0]]}))
    code, out, err = run(capsys, ["fan", "--seed", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error:") and err.count("\n") == 1
    assert "not both" in err


def test_a_rank_0_seed_is_input_error(tmp_path, capsys):
    path = tmp_path / "seed.json"
    path.write_text('{"b": []}')
    code, out, err = run(capsys, ["fan", "--seed", str(path)])
    assert (code, out, err) == (2, "", "fanforge: error: ambient dimension must be positive\n")


@pytest.mark.parametrize(
    "b",
    [[[0, 2], [-2, 0]], [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]],
    ids=["kronecker", "affine_a2", "markov"],
)
def test_infinite_type_seed_is_input_error(tmp_path, capsys, b):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"b": b}))
    code, out, err = run(capsys, ["fan", "--seed", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error:") and err.count("\n") == 1
    assert "infinite type" in err


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "fanforge.cli", "fan", "--type", "A", "--rank", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 1


# the last text is nested deeper than the recursion limit
@pytest.mark.parametrize(
    "text", ["[1,2]", '"b"', pytest.param("[" * 100_000 + "]" * 100_000, id="deep")]
)
@pytest.mark.parametrize(
    "argv",
    [["typecone", "--fan"], ["realize", "--typecone"], ["fan", "--seed"]],
)
def test_json_that_is_not_an_object_is_input_error(tmp_path, capsys, argv, text):
    fan_path = tmp_path / "fan.json"
    run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(fan_path)])
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    extra = ["--fan", str(fan_path)] if argv[0] == "realize" else []
    code, out, err = run(capsys, argv + [str(bad)] + extra)
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["typecone", "realize", "verify"])
def test_fan_with_a_singular_cone_is_input_error(tmp_path, capsys, command):
    # cone (0, 1) spans only a line: the fan is refused before any other use
    path, off = tmp_path / "singular.json", tmp_path / "any.off"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [-1, 0], [0, 1]], "cones": [[0, 1], [1, 2]]}))
    off.write_text("ROFF\n1 0\n0/1 0/1\n")
    extra = ["--polytope", str(off)] if command == "verify" else []
    code, out, err = run(capsys, [command, "--fan", str(path)] + extra)
    assert (code, out) == (2, "")
    assert err == "fanforge: error: maximal cone is not simplicial (rank deficient)\n"


def test_fan_listing_a_cone_twice_is_input_error(tmp_path, capsys):
    path = tmp_path / "twice.json"
    cones = [[0, 1], [0, 1], [1, 2], [0, 2]]
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": cones}))
    code, out, err = run(capsys, ["typecone", "--report", "--fan", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error: a maximal cone is listed twice")


@pytest.mark.parametrize("command", ["typecone", "realize"])
def test_fan_with_a_ray_in_no_cone_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "unused.json"
    rays = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]]
    cones = [[0, 1], [1, 2], [2, 3], [0, 3]]
    path.write_text(json.dumps({"dim": 2, "rays": rays, "cones": cones}))
    code, out, err = run(capsys, [command, "--fan", str(path)])
    assert code == 2
    assert out == ""
    assert err == "fanforge: error: ray 4 (1, 1) lies in no maximal cone\n"


def a2_roff(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    off_path = tmp_path / "poly.off"
    run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(fan_path)])
    run(capsys, ["realize", "--fan", str(fan_path), "-o", str(off_path)])
    return fan_path, off_path.read_text().splitlines()


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[:-1] + ["2 0 99"],
        lambda lines: lines[:-1] + ["2 -1 0"],
        lambda lines: ["ROFF", "0 0"],
        lambda lines: ["ROFF"],
        lambda lines: lines[:2] + [lines[2] + " 1/1"] + lines[3:],
        lambda lines: lines[:2] + ["1/0 1/1"] + lines[3:],
        lambda lines: lines[:-1] + ["0"],
    ],
    ids=["index-too-large", "index-negative", "no-vertex", "no-counts", "ragged-vertex",
         "zero-denominator", "empty-facet"],
)
def test_malformed_roff_is_input_error(tmp_path, capsys, edit):
    fan_path, lines = a2_roff(tmp_path, capsys)
    bad = tmp_path / "bad.off"
    bad.write_text("\n".join(edit(lines)) + "\n")
    code, out, err = run(capsys, ["verify", "--fan", str(fan_path), "--polytope", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error:") and err.count("\n") == 1


def test_verify_accepts_permuted_vertex_lines(tmp_path, capsys):
    fan_path, lines = a2_roff(tmp_path, capsys)
    nv = int(lines[1].split()[0])
    order = list(range(nv))[::-1]  # new line k holds old vertex order[k]
    new_index = {old: new for new, old in enumerate(order)}
    facets = []
    for line in lines[2 + nv :]:
        count, *idx = line.split()
        facets.append(" ".join([count] + [str(new_index[int(i)]) for i in idx]))
    permuted = tmp_path / "permuted.off"
    permuted.write_text("\n".join(lines[:2] + [lines[2 + k] for k in order] + facets) + "\n")
    code, out, _ = run(capsys, ["verify", "--fan", str(fan_path), "--polytope", str(permuted)])
    assert code == 0
    assert out.startswith("verified")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 100) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def garbled_json(draw, valid):
    """A random JSON value, or `valid` with one value somewhere inside it
    replaced by a random JSON value or deleted."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    value = copy.deepcopy(valid)
    node = value
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (list, dict)) and child and draw(st.booleans()):
            node = child
            continue
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
        return value


@st.composite
def garbled_roff(draw, valid):
    """`valid` ROFF text, cut short or with a few tokens or lines replaced,
    deleted or repeated."""
    lines = [line.split() for line in valid.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "drop-line", "repeat-line", "cut"]))
        if kind == "token" and lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = draw(st.sampled_from(["0", "-1", "3", "99", "1/0", "-2/3", "x", "", "7 7"]))
        elif kind == "drop-line":
            del lines[i]
        elif kind == "repeat-line":
            lines.insert(i, list(lines[i]))
        else:
            lines = lines[:i]
        if not lines:
            break
    return "\n".join(" ".join(line) for line in lines)


@pytest.fixture(scope="module")
def a2_files(tmp_path_factory):
    """A2 fan, type cone and realization files, made through the CLI."""
    d = tmp_path_factory.mktemp("a2")
    paths = {k: d / f"a2.{k}" for k in ("fan", "tc", "off")}
    assert main(["fan", "--type", "A", "--rank", "2", "-o", str(paths["fan"])]) == 0
    assert main(["typecone", "--fan", str(paths["fan"]), "-o", str(paths["tc"])]) == 0
    assert main(["realize", "--fan", str(paths["fan"]), "-o", str(paths["off"])]) == 0
    return paths


VALID_SEEDS = (
    {"b": [[0, 1], [-1, 0]], "labels": [[1, 0], [0, 1]]},
    {"triangulation": {"polygon": 5, "diagonals": [[1, 3], [1, 4]]}},
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["typecone", "realize", "verify", "fan"]))
def test_malformed_input_never_escapes_the_exit_code_contract(a2_files, tmp_path, capsys, data, command):
    fan = str(a2_files["fan"])
    bad = tmp_path / "bad.input"
    if command == "verify":
        bad.write_text(data.draw(garbled_roff(a2_files["off"].read_text())))
        argv = ["verify", "--fan", fan, "--polytope", str(bad)]
    elif command == "fan":
        # a garbled exchange matrix may be of infinite type: the budget ends it
        bad.write_text(json.dumps(data.draw(garbled_json(data.draw(st.sampled_from(VALID_SEEDS))))))
        argv = ["fan", "--budget", "60", "--seed", str(bad)]
    else:
        valid = json.loads(a2_files["fan" if command == "typecone" else "tc"].read_text())
        bad.write_text(json.dumps(data.draw(garbled_json(valid))))
        argv = ["typecone", "--fan", str(bad)] if command == "typecone" else [
            "realize", "--fan", fan, "--typecone", str(bad)]
    code, _out, err = run(capsys, argv)
    # exit 0 is reached only by garbles that leave a valid input (a deleted
    # label, two facet lines swapped, an unused type cone or seed field)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("fanforge: error:") and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("typecone", "dim", None, "fan JSON has no 'dim'"),
        ("typecone", "rays", None, "fan JSON has no 'rays'"),
        ("typecone", "cones", None, "fan JSON has no 'cones'"),
        ("realize", "N", None, "type cone JSON has no 'N'"),
        ("realize", "N", "x", "type cone JSON needs an integer 'N'"),
        ("realize", "facets", None, "type cone JSON has no 'facets'"),
        ("fan", "polygon", None, "seed 'triangulation' has no 'polygon'"),
        ("fan", "diagonals", None, "seed 'triangulation' has no 'diagonals'"),
    ],
)
def test_json_input_names_its_missing_or_mistyped_key(
    a2_files, tmp_path, capsys, command, key, value, message
):
    """A value of None deletes the key; any other value replaces it."""
    if command == "fan":
        data = copy.deepcopy(VALID_SEEDS[1])
        obj = data["triangulation"]
    else:
        data = obj = json.loads(a2_files["fan" if command == "typecone" else "tc"].read_text())
    if value is None:
        del obj[key]
    else:
        obj[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    argv = {
        "typecone": ["typecone", "--fan", str(bad)],
        "realize": ["realize", "--fan", str(a2_files["fan"]), "--typecone", str(bad)],
        "fan": ["fan", "--seed", str(bad)],
    }[command]
    assert run(capsys, argv) == (2, "", f"fanforge: error: {message}\n")


OUTPUT_FLAGS = {
    "fan": ["-o", "--graph-out"],
    "graph": ["-o"],
    "typecone": ["-o"],
    "realize": ["-o"],
    "abhy": ["-o", "--polytope-out", "--ar-out"],
}


@pytest.mark.parametrize("command", list(OUTPUT_FLAGS))
def test_a_run_that_exits_2_writes_no_file(a2_files, tmp_path, capsys, monkeypatch, command):
    """Every output flag the command takes points at a fresh path; an
    input error or a failed proof leaves none of them behind."""
    bad = tmp_path / "bad.json"
    if command in ("fan", "graph"):
        bad.write_text(json.dumps({"b": [[0, 2], [-2, 0]]}))  # Kronecker: infinite type
        argv = [command, "--seed", str(bad)]
    elif command == "typecone":
        fan = json.loads(a2_files["fan"].read_text())
        del fan["cones"]
        bad.write_text(json.dumps(fan))
        argv = ["typecone", "--fan", str(bad)]
    elif command == "realize":
        tc = json.loads(a2_files["tc"].read_text())
        tc["N"] += 1
        bad.write_text(json.dumps(tc))
        argv = ["realize", "--fan", str(a2_files["fan"]), "--typecone", str(bad)]
    else:
        _reverse_arrows(monkeypatch)
        argv = ["abhy", "--type", "A", "--rank", "3"]
    paths = [tmp_path / f"out{i}" for i in range(len(OUTPUT_FLAGS[command]))]
    for flag, path in zip(OUTPUT_FLAGS[command], paths):
        argv += [flag, str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("fanforge: error:") and err.count("\n") == 1
    assert [path.name for path in paths if path.exists()] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["fan", "--type", "A", "--rank", "2", "-o", "f.json", "--graph-out", "nodir/g.dot"],
        [
            "abhy", "--type", "A", "--rank", "2",
            "-o", "t.txt", "--polytope-out", "p.off", "--ar-out", "nodir/a.json",
        ],
        ["typecone", "--report", "-o", "nodir/x"],
        ["fan", "--type", "A", "--rank", "2", "-o", "link.json", "--graph-out", "nodir/g.dot"],
    ],
    ids=["fan", "abhy", "typecone-report", "fan-dangling-symlink"],
)
def test_an_output_that_cannot_be_opened_leaves_every_output_as_it_was(
    a2_files, tmp_path, capsys, monkeypatch, argv
):
    """Every output is opened before any is written: after the exit 2 no
    new file exists (not even a dangling symlink's target), an existing
    output keeps its bytes and stdout is empty."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("kept\n")
    (tmp_path / "link.json").symlink_to("target.json")
    if argv[0] == "typecone":
        argv = argv + ["--fan", str(a2_files["fan"])]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("fanforge: error:") and err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "t.txt"]
    assert (tmp_path / "t.txt").read_text() == "kept\n"


def _prism_file(tmp_path, bottom):
    from test_typecone import PRISM_TOP, prism_fan

    path = tmp_path / "prism.json"
    path.write_text(polyhedra.fan_to_json(prism_fan(PRISM_TOP, bottom)))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["typecone"], ["typecone", "--report"], ["realize", "--c", "1,1,1"]],
    ids=["typecone", "report", "realize"],
)
def test_a_fan_that_is_not_polytopal_exits_2(tmp_path, capsys, argv):
    from test_typecone import TWISTED_BOTTOM

    argv = argv + ["--fan", _prism_file(tmp_path, TWISTED_BOTTOM)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("fanforge: error:") and err.count("\n") == 1
    assert "not polytopal" in err


def test_heights_on_a_fan_that_is_not_polytopal_fail_the_realization(tmp_path, capsys):
    from test_typecone import TWISTED_BOTTOM

    argv = ["realize", "--fan", _prism_file(tmp_path, TWISTED_BOTTOM), "--h", "1,1,1,1,1,1"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert out.startswith("realization failed")


def test_the_control_prism_realizes_and_verifies(tmp_path, capsys):
    from test_typecone import CONTROL_BOTTOM

    fan = _prism_file(tmp_path, CONTROL_BOTTOM)
    off = str(tmp_path / "prism.off")
    code, out, _ = run(capsys, ["typecone", "--report", "--fan", fan])
    assert (code, out.split()[:2]) == (0, ["facets=3", "expected=3"])
    assert run(capsys, ["realize", "--fan", fan, "-o", off]) == (0, "", "")
    code, out, _ = run(capsys, ["verify", "--fan", fan, "--polytope", off])
    assert (code, out) == (0, "verified: normal fan of the polytope equals the fan\n")


def _with_interior_vertex(lines):
    nv, nf = map(int, lines[1].split())
    verts = [[Fraction(tok) for tok in line.split()] for line in lines[2 : 2 + nv]]
    centre = " ".join(str(sum(col) / nv) for col in zip(*verts))
    return ["ROFF", f"{nv + 1} {nf}"] + lines[2 : 2 + nv] + [centre] + lines[2 + nv :]


def _with_a_facet_short_of_a_vertex(lines):
    # a facet away from vertex 0, so that vertex still orients its hyperplane
    nv = int(lines[1].split()[0])
    k = next(
        i for i in range(2 + nv, len(lines))
        if len(lines[i].split()) > 4 and "0" not in lines[i].split()[1:]
    )
    count, *idx = lines[k].split()
    return lines[:k] + [" ".join([str(int(count) - 1)] + idx[:-1])] + lines[k + 1 :]


@pytest.mark.parametrize("edit", [_with_interior_vertex, _with_a_facet_short_of_a_vertex])
def test_verify_rejects_roff_that_disagrees_with_its_own_halfspaces(tmp_path, capsys, edit):
    # the halfspaces of the remaining facets still cut out the right polytope
    fan_path = tmp_path / "fan.json"
    off_path = tmp_path / "poly.off"
    run(capsys, ["fan", "--type", "A", "--rank", "3", "-o", str(fan_path)])
    run(capsys, ["realize", "--fan", str(fan_path), "-o", str(off_path)])
    bad = tmp_path / "bad.off"
    bad.write_text("\n".join(edit(off_path.read_text().splitlines())) + "\n")
    code, out, _ = run(capsys, ["verify", "--fan", str(fan_path), "--polytope", str(bad)])
    assert code == 1
    assert out.startswith("verification failed")


def test_verify_of_an_incomplete_fan_is_input_error(tmp_path, capsys):
    # the A2 fan without one of its five cones, against the A2 realization
    fan_path, lines = a2_roff(tmp_path, capsys)
    fan = json.loads(fan_path.read_text())
    fan["cones"] = fan["cones"][1:]
    holed, off_path = tmp_path / "holed.json", tmp_path / "a2.off"
    holed.write_text(json.dumps(fan))
    off_path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["verify", "--fan", str(holed), "--polytope", str(off_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("fanforge: error: wall condition violated") and err.count("\n") == 1


@pytest.mark.parametrize("fan_rank, polytope_rank", [(2, 3), (3, 2)])
def test_verify_of_a_polytope_in_another_dimension_is_input_error(
    tmp_path, capsys, fan_rank, polytope_rank
):
    paths = {}
    for n in {fan_rank, polytope_rank}:
        paths[n] = tmp_path / f"a{n}.json", tmp_path / f"a{n}.off"
        run(capsys, ["fan", "--type", "A", "--rank", str(n), "-o", str(paths[n][0])])
        run(capsys, ["realize", "--fan", str(paths[n][0]), "-o", str(paths[n][1])])
    argv = ["verify", "--fan", str(paths[fan_rank][0]), "--polytope", str(paths[polytope_rank][1])]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"fanforge: error: the polytope lives in R^{polytope_rank}, the fan in R^{fan_rank}\n"
    )


HEPTAGON_SEED = {"triangulation": {"polygon": 7, "diagonals": [[1, 3], [3, 7], [3, 6], [4, 6]]}}


@pytest.mark.parametrize("seed", [("A", 3), ("D", 4), HEPTAGON_SEED], ids=["A3", "D4", "heptagon"])
def test_realize_and_verify_run_no_double_description(tmp_path, capsys, monkeypatch, seed):
    fan, tc, off = (tmp_path / name for name in ("fan.json", "tc.json", "p.off"))
    if isinstance(seed, dict):
        seed_path = tmp_path / "seed.json"
        seed_path.write_text(json.dumps(seed))
        seed_args = ["--seed", str(seed_path)]
    else:
        seed_args = ["--type", seed[0], "--rank", str(seed[1])]
    assert run(capsys, ["fan", *seed_args, "-o", str(fan)])[0] == 0
    assert run(capsys, ["typecone", "--fan", str(fan), "-o", str(tc)])[0] == 0

    def no_double_description(*_args):
        raise AssertionError("extreme_rays was called")

    monkeypatch.setattr(polyhedra, "extreme_rays", no_double_description)
    argv = ["realize", "--fan", str(fan), "--typecone", str(tc), "-o", str(off)]
    assert run(capsys, argv) == (0, "", "")
    code, out, _ = run(capsys, ["verify", "--fan", str(fan), "--polytope", str(off)])
    assert code == 0
    assert out == "verified: normal fan of the polytope equals the fan\n"


@pytest.mark.parametrize("flag", [[], ["--validate"]], ids=["plain", "validate"])
def test_fan_proves_its_fan_once_from_the_bfs_inverses(tmp_path, capsys, monkeypatch, flag):
    proved = []
    validate = polyhedra.Fan.validate

    def counted(fan):
        proved.append(fan)
        return validate(fan)

    def no_adjugate(*_args):
        raise AssertionError("a cone was inverted")

    monkeypatch.setattr(polyhedra.Fan, "validate", counted)
    monkeypatch.setattr(polyhedra, "_adjugate_int", no_adjugate)
    path = tmp_path / "fan.json"
    assert run(capsys, ["fan", "--type", "D", "--rank", "4", *flag, "-o", str(path)]) == (0, "", "")
    assert proved == [polyhedra.fan_from_json(path.read_text())]


def test_fan_writes_nothing_when_its_proof_fails(tmp_path, capsys, monkeypatch):
    def refuted(_fan):
        raise ValueError("wall condition violated")

    monkeypatch.setattr(polyhedra.Fan, "validate", refuted)
    code, out, err = run(capsys, ["fan", "--type", "A", "--rank", "3"])
    assert (code, out, err) == (2, "", "fanforge: error: wall condition violated\n")


def test_typecone_report_derives_each_wall_dependency_once(tmp_path, capsys, monkeypatch):
    from fanforge import typecone

    path = tmp_path / "d5.json"
    assert run(capsys, ["fan", "--type", "D", "--rank", "5", "-o", str(path)])[0] == 0
    calls = {"wall_dependency": [], "walls": 0, "wall_subsets": 0}
    wall_dependency, walls = typecone.wall_dependency, typecone.walls
    wall_subsets = polyhedra.Fan.wall_subsets

    def counted_dependency(fan, wall):
        calls["wall_dependency"].append(wall)
        return wall_dependency(fan, wall)

    def counted_walls(fan):
        calls["walls"] += 1
        return walls(fan)

    def counted_subsets(fan):
        calls["wall_subsets"] += 1
        return wall_subsets(fan)

    monkeypatch.setattr(typecone, "wall_dependency", counted_dependency)
    monkeypatch.setattr(typecone, "walls", counted_walls)
    monkeypatch.setattr(polyhedra.Fan, "wall_subsets", counted_subsets)
    code, out, err = run(capsys, ["typecone", "--report", "--fan", str(path)])
    assert (code, out, err) == (0, "facets=20 expected=20 uerp=true\n", "")
    # D5 has 182 clusters of rank 5, so 182 * 5 / 2 = 455 walls: one
    # dependency each, one wall list, and wall subsets for validate and it
    deps = calls.pop("wall_dependency")
    assert len(deps) == len(set(deps)) == 455
    assert calls == {"walls": 1, "wall_subsets": 2}


def test_seed_labels_are_checked_but_do_not_change_the_output(tmp_path, capsys):
    b = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
    outputs = []
    for spec in ({"b": b}, {"b": b, "labels": [[1, 0, 0], "x", 3]}):
        seed_file = tmp_path / "seed.json"
        seed_file.write_text(json.dumps(spec))
        dot = tmp_path / "graph.dot"
        code, out, err = run(capsys, ["fan", "--seed", str(seed_file), "--graph-out", str(dot)])
        assert (code, err) == (0, "")
        outputs.append((out, dot.read_text()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("seed", VALID_SEEDS)
def test_seed_labels_that_are_not_a_list_exit_2_in_either_seed_form(tmp_path, capsys, seed):
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps({**seed, "labels": 3}))
    code, out, err = run(capsys, ["fan", "--seed", str(seed_file)])
    assert (code, out) == (2, "")
    assert err == "fanforge: error: seed 'labels' must list integers, strings or integer lists\n"


def test_shorter_output_over_a_longer_file_leaves_only_the_new_bytes(tmp_path, capsys):
    out_path, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run(capsys, ["graph", "--type", "D", "--rank", "5", "-o", str(out_path)])[0] == 0
    longer = out_path.stat().st_size
    for path in (out_path, fresh):
        assert run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", str(path)])[0] == 0
    assert out_path.stat().st_size < longer
    assert out_path.read_bytes() == fresh.read_bytes()


def test_output_through_a_symlink_rewrites_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 5000)
    target.chmod(0o600)
    link.symlink_to(target.name)
    assert run(capsys, ["fan", "--type", "A", "--rank", "1", "-o", str(link)]) == (0, "", "")
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())["dim"] == 1
    assert target.stat().st_mode & 0o777 == 0o600


def test_output_to_dev_null_exits_0(capsys):
    assert run(capsys, ["fan", "--type", "A", "--rank", "2", "-o", "/dev/null"]) == (0, "", "")


def test_output_to_a_directory_is_input_error(tmp_path, capsys):
    code, out, err = run(capsys, ["fan", "--type", "A", "--rank", "1", "-o", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("fanforge: error:") and err.count("\n") == 1


def test_file_output_is_opened_without_truncation(tmp_path, capsys, monkeypatch):
    import os

    from fanforge import cli

    real_open, calls = os.open, []

    def spy(path, flags, *rest, **kw):
        calls.append((str(path), flags))
        return real_open(path, flags, *rest, **kw)

    monkeypatch.setattr(cli.os, "open", spy)
    out_path = tmp_path / "fan.json"
    for _ in range(2):
        assert run(capsys, ["fan", "--type", "A", "--rank", "1", "-o", str(out_path)])[0] == 0
    assert [path for path, _ in calls] == [str(out_path)] * 2
    assert not any(flags & os.O_TRUNC for _, flags in calls)


@pytest.mark.parametrize("command", ["fan", "verify", "typecone", "help", "fan-help"])
def test_a_closed_stdout_exits_0_without_a_message(tmp_path, capsys, command):
    import os
    import subprocess
    import sys

    fan_path, off_path = tmp_path / "fan.json", tmp_path / "poly.off"
    run(capsys, ["fan", "--type", "A", "--rank", "3", "-o", str(fan_path)])
    run(capsys, ["realize", "--fan", str(fan_path), "-o", str(off_path)])
    argv = {
        "fan": ["fan", "--type", "A", "--rank", "3"],
        "verify": ["verify", "--fan", str(fan_path), "--polytope", str(off_path)],
        "typecone": ["typecone", "--report", "--fan", str(fan_path)],
        "help": ["--help"],
        "fan-help": ["fan", "--help"],
    }[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fanforge.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_a3_chain_in_optimized_processes_matches_the_chain_in_process(tmp_path, capsys):
    """The A3 chain as a user and the benchmark run it, one
    `python -O -m fanforge.cli` process per command (asserts stripped):
    every exit code, stdout, stderr and output file equals the run through
    `main` in this process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    def chain(workdir, cli):
        workdir.mkdir()
        fan, tc, off = (workdir / f"a3.{ext}" for ext in ("fan.json", "tc.json", "off"))
        results = [
            cli(["fan", "--type", "A", "--rank", "3", "-o", str(fan)]),
            cli(["typecone", "--fan", str(fan), "-o", str(tc)]),
            cli(["realize", "--fan", str(fan), "--typecone", str(tc), "-o", str(off)]),
            cli(["verify", "--fan", str(fan), "--polytope", str(off)]),
        ]
        return results, [path.read_bytes() for path in (fan, tc, off)]

    env = dict(os.environ, PYTHONPATH=str(Path(polyhedra.__file__).parents[1]))

    def in_a_process(argv):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "fanforge.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    expected = chain(tmp_path / "in_process", lambda argv: run(capsys, argv))
    assert expected[0][-1] == (0, "verified: normal fan of the polytope equals the fan\n", "")
    assert chain(tmp_path / "processes", in_a_process) == expected
