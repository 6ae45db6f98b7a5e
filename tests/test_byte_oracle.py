"""The benchmark's byte oracle, run in process: `fan`, `typecone` and, on
the rungs that list them, `abhy` reproduce every sha256 digest in
perfbench/digests.json. The digest file is only read. The exchange graph's
DOT bytes (`fan --graph-out`, `graph --annotate`), the `typecone --report`
lines of three non-simply-laced or triangulation seeds and the stdout of
every demo are pinned below."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fanforge.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())
RUNGS = sorted({key.split("/")[0] for key in DIGESTS})


@pytest.mark.parametrize("rung", RUNGS)
def test_cli_outputs_match_the_recorded_digests(tmp_path, rung):
    seed = ["--type", rung[0], "--rank", rung[1:]]
    names = ("fan.json", "typecone.json", "abhy.txt", "abhy.off")
    fan, tc, text, off = (tmp_path / name for name in names)
    commands = [
        ["fan", *seed, "-o", fan],
        ["typecone", "--fan", fan, "-o", tc],
    ]
    if f"{rung}/abhy.txt" in DIGESTS:
        commands.append(["abhy", *seed, "-o", text, "--polytope-out", off])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0, argv
    got = {
        f"{rung}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (fan, tc, text, off)
        if path.exists()
    }
    assert got == {key: digest for key, digest in DIGESTS.items() if key.startswith(f"{rung}/")}


# The exchange graph's DOT bytes, recorded before the seed BFS was rewritten
# to build one seed per cluster: `fan --graph-out` on every seed below, and
# `graph --annotate` on the ones ANNOTATED lists.
SEEDS = {
    "A3": ["--type", "A", "--rank", "3"],
    "A4": ["--type", "A", "--rank", "4"],
    "A5": ["--type", "A", "--rank", "5"],
    "D4": ["--type", "D", "--rank", "4"],
    "D5": ["--type", "D", "--rank", "5"],
    "E6": ["--type", "E", "--rank", "6"],
    "G2": {"b": [[0, 1], [-3, 0]]},
    "B3": {"b": [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]},
    "heptagon": {"triangulation": {"polygon": 7, "diagonals": [[1, 3], [3, 7], [3, 6], [4, 6]]}},
}
GRAPH_DIGESTS = {
    "A3": "9102bfb20cd6684cb3fb40cf21143cbab9d4ea66977adedf44f11409d223595e",
    "A4": "14c61ef59f3a0cdb4ed21915dcb5276dcea593bdd3df05b13c67b4f7d0e9ed8b",
    "A5": "190ff4a0fc826fb46c48907864d4d370a13e50a49a955aa63f9196755355c0fa",
    "D4": "21a9e2830c7417031af83def5466287adc5032a06579232d32f57e04f49fab07",
    "D5": "bccc8efd5d9414b645fa18ccfc6e610b43835ad12ef85fc947e7cc442c975373",
    "E6": "65b61a0d952963a36959b3c51c8f1572ff486183639eeb25bbe3d6892f53b8d6",
    "G2": "02b1cd15c7848c5adf43d7bbfad32b5a703e98f6399962350f82d118cf3ef13c",
    "B3": "21884652b0ba977658222192e6c44d38f6fe4c9bd2f2dca26f4fcda512f5b3cb",
    "heptagon": "3be309489bf6ab76287a1e0117142cef5b75941b453dbe55acf147a1fb065d74",
}
ANNOTATED = {
    "A3": "3b02742e839b5f14b17353f2719182543f5b1afd715a0c2d7cb55a7e11e4972a",
    "D4": "0f0af1b7d803f700ccb5f9aa52e1fc63764c6e71d9ff17d0a5a4e1703ea32a68",
    "heptagon": "dea787ba5a3afb85da57c340debfe47a1f0676555ea9148b4617c296b948f73f",
}


def _seed_args(tmp_path, name):
    spec = SEEDS[name]
    if isinstance(spec, list):
        return spec
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return ["--seed", str(path)]


def _digest(argv, path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0, argv
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRAPH_DIGESTS))
def test_fan_graph_out_matches_the_recorded_digest(tmp_path, name):
    dot = tmp_path / "graph.dot"
    argv = ["fan", *_seed_args(tmp_path, name), "-o", tmp_path / "fan.json", "--graph-out", dot]
    assert _digest(argv, dot) == GRAPH_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ANNOTATED))
def test_annotated_graph_matches_the_recorded_digest(tmp_path, name):
    dot = tmp_path / "graph.dot"
    argv = ["graph", *_seed_args(tmp_path, name), "--annotate", "-o", dot]
    assert _digest(argv, dot) == ANNOTATED[name]


# `typecone --report` stdout and exit code, recorded before the wall layer
# kept one integer identity per wall.
REPORTS = {
    "G2": "facets=6 expected=6 uerp=true\n",
    "B3": "facets=9 expected=9 uerp=true\n",
    "heptagon": "facets=10 expected=10 uerp=true\n",
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_typecone_report_matches_the_recorded_line(tmp_path, name):
    fan = tmp_path / "fan.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fan", *_seed_args(tmp_path, name), "-o", str(fan)]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["typecone", "--fan", str(fan), "--report"]) == 0
    assert out.getvalue() == REPORTS[name]


# sha256 of each demo's stdout, recorded with the digests above. Demo 03
# prints a wall's normalized coefficients (alpha, alpha', middle_coeffs).
DEMO_DIGESTS = {
    "01_pentagon_from_mesh_equations.py": "2df1cea17667bb6db716b0e650b9c662907e372beed2566d8a6aa04a160aef14",
    "02_enumerate_gvector_fans.py": "baf80ee9eb2163d4a575578e47a4d23db23fe8b4c7008b89cfdd979fe75775c1",
    "03_type_cones_and_realizations.py": "b7ee82aab5f0acca307fe4d4e386c1b61d5a1d62f90a64e24db69cd6af1aedfa",
    "04_ar_mesh_cross_check.py": "8f7da3184e188956e9115c7426811634dd82f9f241e96987770d261e4d081623",
    "05_exact_polyhedra_toolkit.py": "d379a6c12adc2879f03ee40ab814251f9a74c00a3e523aece00d00d091c002fc",
}


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_stdout_matches_the_recorded_digest(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_DIGESTS[demo]
