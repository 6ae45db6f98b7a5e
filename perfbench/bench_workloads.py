"""The three benchmark workloads: pipeline, cfz and sweep.

Each workload is closed-loop with one client: the next op starts when the
previous one has finished. Every op checks its outputs; an op whose output
is wrong, or that raises anything but the typed rejection its input calls
for, is counted as failed and its time is left out of the latencies.

fanforge is reached only through module attributes (`polyhedra.vertices`,
not a name bound at import), so that the traced run sees every call.
"""

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import bench_inputs as bi

COMMANDS = ("fan", "typecone", "realize", "verify", "abhy")


class BadOutput(Exception):
    """An op ran but its output failed the benchmark's check."""


# Time of the calibration loop on the reference host; see HostClock.
CALIB_REF_S = 0.005


def calibration_loop():
    """A fixed pure-Python integer loop; returns its wall time."""
    start = perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    return perf_counter() - start


@dataclass
class HostClock:
    """Tracks the host's speed by timing the calibration loop between ops.

    The host is shared: its speed swings by tens of percent within seconds
    and drifts over minutes, more than run-to-run medians average out.
    fanforge's pure-Python work slows in step with a pure-Python loop, so a
    run samples the loop before every set-up step and every op, and
    `factor()` scales the times taken while a range of samples was taken to
    the reference host, where the loop takes CALIB_REF_S.
    """

    samples: list = field(default_factory=list)
    setup_samples: int = 0  # samples taken during set-up, which is scaled apart

    def sample(self):
        self.samples.append(calibration_loop())

    def factor(self, start=0, stop=None):
        """Scale for the ops timed while samples[start:stop] were taken."""
        return CALIB_REF_S / statistics.median(self.samples[start:stop])


@dataclass
class Outcome:
    """Attempted and failed op counts and the wall times of passed ops.
    With a HostClock, the clock is sampled before every op."""

    clock: HostClock = None
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def attempt(self, fn, *args):
        self.attempted += 1
        if self.clock is not None:
            self.clock.sample()
        start = perf_counter()
        try:
            fn(*args)
        except Exception as exc:  # any unexpected error is a failed op, not a crash
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        self.latencies.append(perf_counter() - start)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- pipeline ---------------------------------------------------------------


class SubprocessCLI:
    """Runs each command as its own `python -m fanforge.cli` process, the
    way a user does, and logs (command, wall seconds) per call. With a
    HostClock, the clock is sampled before every command."""

    def __init__(self, src, clock=None):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.clock = clock
        self.log = []

    def __call__(self, argv):
        if self.clock is not None:
            self.clock.sample()
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fanforge.cli", *argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=170,
        )
        self.log.append((argv[0], perf_counter() - start))
        return proc.returncode, proc.stdout, proc.stderr


class InProcessCLI:
    """Runs each command through `cli.main` in this process (traced run)."""

    def __init__(self):
        self.bytes_out = 0

    def __call__(self, argv):
        from fanforge import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        self.bytes_out += len(out.getvalue().encode())
        for flag in ("-o", "--polytope-out"):
            if flag in argv:
                self.bytes_out += os.path.getsize(argv[argv.index(flag) + 1])
        return code, out.getvalue(), err.getvalue()


def pipeline_chain(cli, workdir, instance, c):
    """fan -> typecone -> realize -> verify (-> abhy) on one ladder rung.
    Returns the sha256 digests of the seed-independent outputs, keyed like
    digests.json."""
    type_, n, with_abhy = instance
    key = f"{type_}{n}"
    fan, tc, off = (workdir / f"{key}.{ext}" for ext in ("fan.json", "tc.json", "off"))

    def run(command, *argv):
        code, out, err = cli([command, *map(str, argv)])
        if code != 0:
            raise BadOutput(f"{key} {command} exited {code}: {err.strip()[-200:]}")
        return out

    run("fan", "--type", type_, "--rank", n, "-o", fan)
    run("typecone", "--fan", fan, "-o", tc)
    c_text = ",".join(f"{x.numerator}/{x.denominator}" for x in c)
    run("realize", "--fan", fan, "--typecone", tc, "--c", c_text, "-o", off)
    verdict = run("verify", "--fan", fan, "--polytope", off)
    if not verdict.startswith("verified"):
        raise BadOutput(f"{key} verify: {verdict.strip()}")
    n_cones = len(json.loads(fan.read_text())["cones"])
    n_vertices = int(off.read_text().splitlines()[1].split()[0])
    if n_vertices != n_cones:
        raise BadOutput(f"{key} realize: {n_vertices} vertices for {n_cones} cones")
    digests = {f"{key}/fan.json": sha256_file(fan), f"{key}/typecone.json": sha256_file(tc)}
    if with_abhy:
        text, abhy_off = workdir / f"{key}.abhy.txt", workdir / f"{key}.abhy.off"
        run("abhy", "--type", type_, "--rank", n, "-o", text, "--polytope-out", abhy_off)
        digests[f"{key}/abhy.txt"] = sha256_file(text)
        digests[f"{key}/abhy.off"] = sha256_file(abhy_off)
    return digests


def checked_chain(cli, workdir, instance, c, expected):
    got = pipeline_chain(cli, workdir, instance, c)
    for name, digest in got.items():
        if expected.get(name) != digest:
            raise BadOutput(f"{name}: bytes differ from the recorded digest")


def pipeline_ladder(outcome, cli, workdir, ladder_cs, expected):
    """One pass over the instance ladder, one attempted op per rung."""
    for instance in bi.LADDER:
        c = ladder_cs[f"{instance[0]}{instance[1]}"]
        outcome.attempt(checked_chain, cli, workdir, instance, c, expected)


# --- cfz --------------------------------------------------------------------


def cfz_setup(seed):
    return cfz_state(bi.cfz_fans(seed))


def cfz_state(b_matrices):
    """Enumerate each seed's fan, compute its type cone, and prepare
    criterion 4's violated-height recipe: h0 solves Kh = 1 and w_f solves
    Kw = e_f, so h0 - (1 + t) w_f violates facet f only."""
    from fanforge import clusterfan, linalg, typecone

    state = {}
    for name, b in b_matrices.items():
        fan = clusterfan.enumerate_fan(clusterfan.initial_seed(b)).fan
        tc = typecone.type_cone(fan)
        m = tc.n_facets
        _poly, cert = typecone.qc_polytope(fan, tc, [1] * m)
        k_rows = [list(f) for f in tc.k_matrix]
        units = [[Fraction(int(i == f)) for i in range(m)] for f in range(m)]
        state[name] = (fan, tc, cert.h, [linalg.solve(k_rows, e) for e in units])
    return state


def cfz_check(state, op):
    from fanforge import polyhedra, typecone
    from fanforge.errors import DimensionDeficient, Empty, Unbounded

    fan, tc, h0, ws = state[op[1]]
    if op[0] == "pos":
        poly, _cert = typecone.qc_polytope(fan, tc, op[2])
        if not polyhedra.fan_eq(polyhedra.normal_fan(polyhedra.vertices(poly)), fan):
            raise BadOutput(f"{op[1]}: normal fan of Q_c differs from the fan")
        return
    f_idx, t = op[2], op[3]
    h_bad = [h - (1 + t) * w for h, w in zip(h0, ws[f_idx])]
    values = [sum(a * x for a, x in zip(facet, h_bad)) for facet in tc.facets]
    if values[f_idx] >= 0 or any(v <= 0 for i, v in enumerate(values) if i != f_idx):
        raise BadOutput(f"{op[1]}: height does not violate exactly facet {f_idx}")
    try:
        nf = polyhedra.normal_fan(polyhedra.vertices(polyhedra.p_h(fan, h_bad)))
    except (Unbounded, Empty, DimensionDeficient, ValueError):
        return  # criterion 4's typed rejections: no realization at all
    if polyhedra.fan_eq(nf, fan):
        raise BadOutput(f"{op[1]}: a violated height still realizes the fan")


# --- sweep ------------------------------------------------------------------


def sweep_seed(op):
    from fanforge import clusterfan, exchange
    from fanforge.errors import FanforgeError

    kind = op[0]
    if kind == "infinite":
        try:
            clusterfan.enumerate_fan(clusterfan.initial_seed(op[1]), budget=bi.INFINITE_BUDGET)
        except FanforgeError:
            return
        raise BadOutput(f"infinite-type seed {op[1]} was not rejected")
    tri = None
    if kind == "tri":
        type_, n, polygon, diagonals = op[1:]
        tri = clusterfan.Triangulation(polygon, diagonals)
        seed = clusterfan.seed_from_triangulation(tri)
    elif kind == "e6":
        type_, n = "E", 6
        seed = clusterfan.initial_seed(op[1])
    else:
        type_, n = op[1], op[2]
        seed = clusterfan.initial_seed(op[3])
    enum = clusterfan.enumerate_fan(seed, triangulation=tri)
    got = (len(enum.fan.maximal_cones), enum.fan.n_rays)
    if got != bi.expected_counts(type_, n):
        raise BadOutput(f"{type_}{n}: (clusters, rays) = {got}")
    enum.fan.validate()
    if kind == "e6":
        return
    if not exchange.verify_mutation_theorem(enum.fan, enum.graph)["holds"]:
        raise BadOutput(f"{type_}{n}: mutation theorem report does not hold")
    if tri is not None and len(exchange.relative_ar_meshes(tri, enum)) != got[1] - n:
        raise BadOutput(f"{type_}{n}: relative AR mesh count differs from N - n")
