"""The benchmark's byte oracle, run in process: `fan`, `typecone` and, on
the rungs that list them, `abhy` reproduce every sha256 digest in
perfbench/digests.json. The digest file is only read."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fanforge.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text()
)
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
