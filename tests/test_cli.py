import io
import json

import pytest

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


def test_abhy_type_e_gate(capsys):
    code, _, err = run(capsys, ["abhy", "--type", "E", "--rank", "6"])
    assert code == 2
    assert "enable_e" in err
    code, out, _ = run(capsys, ["abhy", "--type", "E", "--rank", "6", "--enable-e"])
    assert code == 0


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
