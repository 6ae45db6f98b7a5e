"""The package resolves each public name on first use, and each CLI command
loads only the fanforge modules it runs and none of the standard library's
code-introspection modules. Module sets are read in a fresh interpreter
per case, since this one has imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanforge
from fanforge import polyhedra
from fanforge.cli import main

SRC = str(Path(fanforge.__file__).parents[1])
CORE = {"fanforge", "fanforge.errors", "fanforge.linalg", "fanforge.polyhedra"}
# what `dataclasses` pulls in: several milliseconds of start-up per process
INTROSPECTION = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}

PROBE = """
import json, runpy, sys
sys.argv = ["fanforge", *json.loads(sys.argv[1])]
code = None
if sys.argv[1:]:
    try:
        runpy.run_module("fanforge.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
else:
    import fanforge
print(json.dumps([code, sorted(sys.modules)]))
"""


def _run(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
        check=True,
    ).stdout


def loaded_after(argv):
    """Exit code, the fanforge modules loaded and every other module
    loaded, after running the CLI with argv (or only `import fanforge`
    when argv is empty) in a fresh interpreter."""
    code, modules = json.loads(_run("-c", PROBE, json.dumps(argv)).splitlines()[-1])
    ours = {m for m in modules if m.split(".")[0] == "fanforge"}
    return code, ours, set(modules) - ours


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare `python -c pass` has loaded: site and its .pth
    files may bring some in before any fanforge code runs."""
    return set(_run("-c", "import sys; print(*sys.modules)").split())


def test_import_fanforge_loads_no_submodule():
    assert loaded_after([])[:2] == (None, {"fanforge"})


@pytest.fixture(scope="module")
def a3_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("a3")
    paths = {k: d / f"a3.{k}" for k in ("fan", "tc", "off")}
    assert main(["fan", "--type", "A", "--rank", "3", "-o", str(paths["fan"])]) == 0
    assert main(["typecone", "--fan", str(paths["fan"]), "-o", str(paths["tc"])]) == 0
    assert main(["realize", "--fan", str(paths["fan"]), "-o", str(paths["off"])]) == 0
    return {k: str(v) for k, v in paths.items()}


def command_argv(command, files, out):
    fan, tc, off = files["fan"], files["tc"], files["off"]
    return {
        "fan": ["fan", "--type", "A", "--rank", "3", "-o", out],
        "graph": ["graph", "--type", "A", "--rank", "3", "--annotate", "-o", out],
        "typecone": ["typecone", "--fan", fan, "-o", out],
        "realize": ["realize", "--fan", fan, "--typecone", tc, "-o", out],
        "verify": ["verify", "--fan", fan, "--polytope", off],
        "abhy": ["abhy", "--type", "A", "--rank", "3", "-o", out],
        "abhy --polytope-out": [
            "abhy", "--type", "A", "--rank", "3", "-o", out, "--polytope-out", f"{out}.off"
        ],
        "paper-a2": ["paper-a2", "-o", out],
    }[command]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("fan", {"clusterfan", "arquiver"}),
        ("graph", {"clusterfan", "arquiver", "typecone"}),
        ("typecone", {"typecone"}),
        ("realize", {"typecone"}),
        ("verify", set()),
        ("abhy", {"arquiver"}),
        ("paper-a2", {"arquiver"}),
        ("abhy --polytope-out", {"arquiver", "clusterfan"}),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(a3_files, tmp_path, command, extra):
    code, ours, _others = loaded_after(command_argv(command, a3_files, str(tmp_path / "out")))
    assert (code, ours) == (0, CORE | {f"fanforge.{m}" for m in extra})


@pytest.mark.parametrize(
    "command",
    ["fan", "graph", "typecone", "realize", "verify", "abhy", "paper-a2", "abhy --polytope-out"],
)
def test_no_command_loads_the_introspection_modules(a3_files, bare_modules, tmp_path, command):
    code, _ours, others = loaded_after(command_argv(command, a3_files, str(tmp_path / "out")))
    assert code == 0
    assert INTROSPECTION & others <= bare_modules


def test_each_public_name_is_its_module_attribute():
    for name in fanforge.__all__:
        obj = getattr(fanforge, name)
        assert obj is getattr(sys.modules[obj.__module__], name)
        assert obj.__module__.startswith("fanforge.")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fanforge import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fanforge.__all__)
    assert all(namespace[name] is getattr(fanforge, name) for name in namespace)


def test_dir_lists_every_public_name():
    assert set(fanforge.__all__) <= set(dir(fanforge))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fanforge.no_such_name
    assert not hasattr(fanforge, "Fraction")


def test_a_name_is_looked_up_on_its_module_each_time(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(polyhedra, "vertices", sentinel)
    assert fanforge.vertices is sentinel
