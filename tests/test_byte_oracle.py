"""The benchmark's byte oracle, run in process: `fan`, `typecone` and, on
the rungs that list them, `abhy` reproduce every sha256 digest in
perfbench/digests.json. The digest file is only read. The exchange graph's
DOT bytes (`fan --graph-out`, `graph --annotate`), the `typecone -o` bytes
of two rungs above the ladder and of three non-simply-laced or
triangulation seeds, their `typecone --report` lines and the stdout of
every demo are pinned below."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fanforge.arquiver import dynkin_tree_edges
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
    "A6": ["--type", "A", "--rank", "6"],
    "D6": ["--type", "D", "--rank", "6"],
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


# sha256 of `typecone -o`, recorded before the type cone was computed in
# the coordinates of the rays outside maximal cone 0.
TYPECONE_DIGESTS = {
    "A6": "7ad2c35eced8483864df66115afba19ac75e90999852b7465cc4f08ffea34d6b",
    "D6": "2b717a39a0541d59a9c0a6de0a0b71f64216763ace00154caac96957fde5362b",
    "G2": "87255d58662f5946eda124236f9ae998fa923482b560e5806c6427009c984ea0",
    "B3": "c134654cb17da3b15f6defaeb1787b365ea7854a0093a8a774555beb1ec27d2c",
    "heptagon": "bab51adac9a87e90da0a37873b7fddb71fc5582f10bed320e4577ae5ae5319a4",
}


@pytest.mark.parametrize("name", sorted(TYPECONE_DIGESTS))
def test_typecone_output_matches_the_recorded_digest(tmp_path, name):
    fan, tc = tmp_path / "fan.json", tmp_path / "typecone.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fan", *_seed_args(tmp_path, name), "-o", str(fan)]) == 0
    assert _digest(["typecone", "--fan", fan, "-o", tc], tc) == TYPECONE_DIGESTS[name]


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


# The mesh-equation route beyond the perfbench rungs, recorded before a
# window vertex became its signed class and a mesh parameter its position:
# one sha256 over the exit code and the `abhy -o`, `--polytope-out` and
# `--ar-out` bytes. Every orientation of A1-A4 and D4 runs with all-ones c;
# linear A5, D5 and E6 with one rational c per mesh.
def _every_orientation(type_, rank):
    edges = dynkin_tree_edges(type_, rank)
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield ",".join(f"{b}>{a}" if flip else f"{a}>{b}" for (a, b), flip in zip(edges, flips))


def _rational_c(n_meshes):
    return ",".join(f"{j % 3 + 1}/{j % 2 + 2}" for j in range(n_meshes))


ABHY_INSTANCES = {
    f"{t}{n}:{o}": ["--type", t, "--rank", str(n)] + (["--orientation", o] if o else [])
    for t, n in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4))
    for o in _every_orientation(t, n)
}
ABHY_INSTANCES.update(
    {
        "A5:c": ["--type", "A", "--rank", "5", "--c", _rational_c(15)],
        "D5:c": ["--type", "D", "--rank", "5", "--c", _rational_c(20)],
        "E6:c": ["--type", "E", "--rank", "6", "--enable-e", "--c", _rational_c(36)],
    }
)
ABHY_DIGESTS = {
    "A1:": "b3745f023d67ac920e8ea768c944ab87a2db3e409cea71c4bb95666e3e348007",
    "A2:1>2": "8f8f485d58e8378f20eccc7cc7f683d41d0eb13ea4c12c78ab61563ca8419f88",
    "A2:2>1": "caec9cb5b26424132409a136b47399ea03f5c2f7b86ebc20eda683668f4e1eef",
    "A3:1>2,2>3": "881de9cf039c6f5593383f8c9638961e7430f8ada67c627a1554083eb0137cf4",
    "A3:1>2,3>2": "3caf276a7f616005c1abee994c7e578e553b9abcb606f61ce53ee4c28d05e486",
    "A3:2>1,2>3": "1a3a88d1df619acf0c5a62fba29e86474e5879f1feb5793a3f9ec606781d52bf",
    "A3:2>1,3>2": "220fcf78a108eeeff95419ae280456fda0c5569ba4c4196d219fe74c51975cc7",
    "A4:1>2,2>3,3>4": "4279763eae81c55cbf39e47350c54266a28a4e8fab01cda575575dff1a7ae7cb",
    "A4:1>2,2>3,4>3": "687f5374e39f0755ba8184c3ab6f845314fcb450e0caf9252fd847fef0610e22",
    "A4:1>2,3>2,3>4": "a588b92831c455af61d330f353e6f2ed744f11e912d9a7394550ae8023521881",
    "A4:1>2,3>2,4>3": "75f19b9bc30006f015bcb56a1e9b9eb00e747da6a989b37aadfbd50ffaba00e1",
    "A4:2>1,2>3,3>4": "3e218fd780bba46916b00dd6d911c8037b8736139b0a865f4a04febff885374c",
    "A4:2>1,2>3,4>3": "19ceb16b1928d081b671589c1d6989afcc176272bde3042da62824c7e911a1d7",
    "A4:2>1,3>2,3>4": "ca9ae9c405c00052fbb97bfbc45ebae001ec998ebd63832072ccda3115ebb35a",
    "A4:2>1,3>2,4>3": "931bc92b8eea36475045fa6cad79cda0b63a591b77e32fb5fc30ed628295f81e",
    "A5:c": "77fff9e814f6dae5fdb3b7a1497d3818da05c2d1283fc9c341b86adb8a997380",
    "D4:1>2,2>3,2>4": "3912444fce9574d4f5fba149cc927c1b5cc8ccd93fb897cd15f913c5b54dd9c7",
    "D4:1>2,2>3,4>2": "2d44df7ad535e684b047eb707d03637dd3ffdfdf4ddeafb5fe0961a1151e2f80",
    "D4:1>2,3>2,2>4": "79887ea344f8d11fd35222ee44bff48a21db3dd20599df7cf056f2c3784ba3b2",
    "D4:1>2,3>2,4>2": "edac3bc75f1b7ade6842c5aac9d8ad0fd92a805120c3aa4323801c6bd344648c",
    "D4:2>1,2>3,2>4": "7c60f52cabefe7bcf6dbecb7918a1fd096af515bd35f7a5d2e18b6cb50ad575c",
    "D4:2>1,2>3,4>2": "1d3d0a2a9809576b70fb9d5a3ed02bbe6f0615076dc7a50e3310d85efe1a73d0",
    "D4:2>1,3>2,2>4": "32c3259e96e06fc886acc095bed3c0606a5e8ad4fbc19f76bf86ff9c8b4553d5",
    "D4:2>1,3>2,4>2": "5a6f869f92c7dc3e43637ae79c315e1a4fa2eadf03a5a1326ce0d99735b0273e",
    "D5:c": "2da7e64150a6cd93384e939e27d1a755bfb99a5fd7f40d71392018cb6fd4d2fe",
    "E6:c": "cb83aa1c7cd0df530f31fbf8b51f3eb30958ccecdcf8698744ebc18a730e43fa",
}


def _abhy_digest(tmp_path, args):
    paths = [tmp_path / name for name in ("abhy.txt", "abhy.off", "ar.json")]
    argv = ["abhy", *args, "-o", paths[0], "--polytope-out", paths[1], "--ar-out", paths[2]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    blob = f"{code}\n".encode() + b"".join(path.read_bytes() for path in paths)
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(ABHY_INSTANCES))
def test_abhy_outputs_match_the_recorded_digest(tmp_path, name):
    assert _abhy_digest(tmp_path, ABHY_INSTANCES[name]) == ABHY_DIGESTS[name]
