"""fanforge benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {pipeline,cfz,sweep,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports fanforge from `src/`
there and nowhere else, and exits 2 without a result when that tree is
missing. A run sets up, then runs whole passes of the workload (ladders or
blocks of ops, see bench_inputs) with one closed-loop client until the next
pass would end after S seconds, checks every output, and prints a
human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the JSON metrics are the end-to-end metrics of
BENCHMARK.json: setup_s, op_p50_ms, op_p90_ms, ops_per_s and peak_rss_mb.
Times and rates are scaled to a reference host speed measured by a
calibration loop run between ops (bench_workloads.HostClock); the report
above the JSON line gives the unscaled figures under the workload's own
names (pipeline_s, fan_s, ..., check_p50_ms, ..., seeds_per_s,
failed_ratio) with their sample counts, and the scale as host_factor.

With --trace 1 a fixed, seed-determined op list runs once untraced and once
with every public fanforge function wrapped in a span (bench_trace), and
the metrics are the per-layer ones of BENCHMARK.json.

Everything a run writes stays under `.perfbench_out/`: the result with its
provenance (`result-<workload>-seed<N>-trace<T>.json`) and the spans
(`spans-<workload>-seed<N>.csv.gz`). `--workload all` runs the three
workloads one after another, each in its own process.

Workloads (why each exists is recorded in BENCHMARK.json):
  pipeline  the README's user path, one `fanforge` process per command, over
            the ladder A3, A4, A5, D4, D5; an op is one ladder pass.
  cfz       criterion 4's CFZ-lemma loop in process on four rank-4 fans; an
            op is one positive or violated realization check.
  sweep     in-process seed sweep through BFS, validate and the mutation
            theorem report; an op is one seed.

`python3 perfbench/record_digests.py` re-records the pipeline byte oracle,
and `python -m pytest perfbench` (with PYTHONPATH=src) tests the benchmark.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import bench_inputs as bi
import bench_trace
import bench_workloads as bw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("pipeline", "cfz", "sweep")

# Blocks of ops run by the traced pass of each in-process workload.
TRACE_BLOCKS = {"cfz": 2, "sweep": 1}
SETUP_REPEATS = {"pipeline": 11, "cfz": 3, "sweep": 5}
IMPORT_REPEATS = 5


def die(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def import_fanforge():
    """Put the checkout's src/ first on the path and import fanforge from
    it; refuse any other copy."""
    if not (SRC / "fanforge" / "__init__.py").is_file():
        die(f"no fanforge source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import fanforge

    if Path(fanforge.__file__).resolve().parent != (SRC / "fanforge").resolve():
        die(f"imported fanforge from {fanforge.__file__}, not from {SRC}")


def provenance():
    """Where the numbers come from. The git SHA is null outside a git
    checkout (or inside someone else's); the source digest always exists."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    sha = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    files = sorted((SRC / "fanforge").glob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_fanforge_nonblank_lines": sum(
            1 for f in files for line in f.read_text().splitlines() if line.strip()
        ),
    }


# --- statistics -------------------------------------------------------------


def p90(values):
    return values[0] if len(values) < 2 else quantiles(values, n=10)[8]


class Report:
    """Named figures with unit and sample count, in insertion order."""

    def __init__(self):
        self.rows = {}

    def add(self, name, value, unit, samples):
        self.rows[name] = (value, unit, samples)

    def print(self, title):
        print(f"== {title}")
        for name, (value, unit, samples) in self.rows.items():
            print(f"  {name:<34} {value:>14.6g} {unit:<6} n={samples}")


def rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024


def cold_import_s(clock):
    """Median import time of fanforge in fresh interpreters, each timing
    its own import."""
    code = "import time; t = time.perf_counter(); import fanforge; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        clock.sample()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return median(times)


def timed_repeats(fn, count, clock):
    """Median wall time of `count` calls, and the last call's result."""
    times, result = [], None
    for _ in range(count):
        clock.sample()
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return median(times), result


def run_passes(seconds, one_pass):
    """Run whole passes (blocks or ladders) until the next one would end
    after `seconds`; the first always runs."""
    start, passes = perf_counter(), 0
    while True:
        one_pass()
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return


# --- untraced runs ----------------------------------------------------------


def run_pipeline(seed, seconds, report, workdir, clock):
    """Returns (outcome, set-up s, ladder times). A ladder's time is the sum
    of its commands' wall times; a ladder with a failed rung has none."""

    def cold_cli():
        # Captured pipes make the wait end at the child's exit; a bare wait
        # with a timeout polls and rounds the time to 50 ms steps.
        subprocess.run(
            [sys.executable, "-c", "import fanforge.cli"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, check=True, timeout=60,
        )

    setup, _ = timed_repeats(cold_cli, SETUP_REPEATS["pipeline"], clock)
    clock.setup_samples = len(clock.samples)
    report.add("setup_s", setup, "s", SETUP_REPEATS["pipeline"])

    expected = json.loads((HERE / "digests.json").read_text())
    cli = bw.SubprocessCLI(SRC, clock)
    outcome = bw.Outcome()
    ladders = []
    cs = bi.pipeline_cs(seed)

    def one_ladder():
        failed, first = outcome.failed, len(cli.log)
        bw.pipeline_ladder(outcome, cli, workdir, next(cs), expected)
        if outcome.failed == failed:
            ladders.append(cli.log[first:])

    run_passes(seconds, one_ladder)
    walls = [sum(t for _command, t in lad) for lad in ladders]
    report.add("pipeline_s", median(walls) if walls else 0.0, "s", len(walls))
    for command in bw.COMMANDS:
        sums = [sum(t for c, t in lad if c == command) for lad in ladders]
        report.add(f"{command}_s", median(sums) if sums else 0.0, "s", len(sums))
    report.add("peak_rss_mb", rss_mb(resource.RUSAGE_CHILDREN), "MB", 1)
    return outcome, setup, walls


def run_in_process(workload, seed, seconds, report, clock):
    """Returns (outcome, set-up s, op times)."""
    import_s = cold_import_s(clock)
    if workload == "cfz":
        setup, state = timed_repeats(
            lambda: bw.cfz_setup(seed), SETUP_REPEATS["cfz"], clock
        )
        blocks = bi.cfz_blocks(seed, {name: s[1].n_facets for name, s in state.items()})
        op_fn = lambda op: bw.cfz_check(state, op)  # noqa: E731
    else:
        setup, _ = timed_repeats(
            lambda: bi.take(bi.sweep_blocks(seed), 4), SETUP_REPEATS["sweep"], clock
        )
        blocks = bi.sweep_blocks(seed)
        op_fn = bw.sweep_seed
    clock.setup_samples = len(clock.samples)
    report.add("setup_s", import_s + setup, "s", SETUP_REPEATS[workload])

    outcome = bw.Outcome(clock)

    def one_block():
        for op in next(blocks):
            outcome.attempt(op_fn, op)

    run_passes(seconds, one_block)
    lat = outcome.latencies
    word = "check" if workload == "cfz" else "seed"
    report.add(f"{word}_p50_ms", 1000 * median(lat) if lat else 0.0, "ms", len(lat))
    report.add(f"{word}_p90_ms", 1000 * p90(lat) if lat else 0.0, "ms", len(lat))
    report.add(f"{word}s_per_s", len(lat) / sum(lat) if lat else 0.0, "1/s", len(lat))
    report.add("peak_rss_mb", rss_mb(resource.RUSAGE_SELF), "MB", 1)
    return outcome, import_s + setup, lat


def measure(workload, seed, seconds, workdir):
    """Untraced run: the end-to-end metrics. An op is one ladder pass for
    pipeline (its five rungs are too unlike for percentiles over them), one
    check for cfz and one seed for sweep; failed ops have no latency and
    throughput is passed ops over their summed wall time.

    The report rows are as measured. The JSON metrics are scaled to the
    reference host by the run's HostClock factors, one from the samples
    taken during set-up and one from those taken between ops (times
    multiplied, rates divided), so that a slower or faster spell of the
    shared host does not read as a change of the program; the report shows
    the ops' factor."""
    report = Report()
    clock = bw.HostClock()
    if workload == "pipeline":
        outcome, setup, lat = run_pipeline(seed, seconds, report, workdir, clock)
    else:
        outcome, setup, lat = run_in_process(workload, seed, seconds, report, clock)
    report.add("failed_ratio", outcome.failed / outcome.attempted, "ratio", outcome.attempted)
    k_setup, k = clock.factor(0, clock.setup_samples), clock.factor(clock.setup_samples)
    report.add("host_factor", k, "ratio", len(clock.samples) - clock.setup_samples)
    metrics = {
        "setup_s": (k_setup * setup, "s"),
        "op_p50_ms": (k * 1000 * median(lat) if lat else 0.0, "ms"),
        "op_p90_ms": (k * 1000 * p90(lat) if lat else 0.0, "ms"),
        "ops_per_s": (len(lat) / sum(lat) / k if lat else 0.0, "1/s"),
        "peak_rss_mb": (report.rows["peak_rss_mb"][0], "MB"),
    }
    return outcome, report, metrics


# --- traced runs ------------------------------------------------------------


def traced_ops(workload, seed, workdir):
    """The fixed op list of the traced run, as a function that runs it all
    (set-up included) into an Outcome. Same seed, same calls."""
    if workload == "pipeline":
        expected = json.loads((HERE / "digests.json").read_text())
        ladder = next(bi.pipeline_cs(seed))

        def run(outcome, tracer):
            cli = bw.InProcessCLI()
            for i, instance in enumerate(bi.LADDER):
                tracer.op = i
                c = ladder[f"{instance[0]}{instance[1]}"]
                outcome.attempt(bw.checked_chain, cli, workdir, instance, c, expected)
            tracer.counters["cli.bytes_out"] += cli.bytes_out

        return run

    def run(outcome, tracer):
        if workload == "cfz":
            state = bw.cfz_setup(seed)
            counts = {name: s[1].n_facets for name, s in state.items()}
            blocks = bi.take(bi.cfz_blocks(seed, counts), TRACE_BLOCKS["cfz"])
            fn = lambda op: bw.cfz_check(state, op)  # noqa: E731
        else:
            blocks = bi.take(bi.sweep_blocks(seed), TRACE_BLOCKS["sweep"])
            fn = bw.sweep_seed
        for i, op in enumerate(op for block in blocks for op in block):
            tracer.op = i
            outcome.attempt(fn, op)

    return run


def measure_traced(workload, seed, workdir):
    """Traced run: the same op list untraced, then traced; per-layer metrics."""
    run = traced_ops(workload, seed, workdir)
    untraced = perf_counter()
    run(bw.Outcome(), bench_trace.Tracer())  # wrappers not installed
    untraced = perf_counter() - untraced

    tracer = bench_trace.Tracer()
    outcome = bw.Outcome()
    tracer.install()
    try:
        traced = perf_counter()
        run(outcome, tracer)
        traced = perf_counter() - traced
    finally:
        tracer.uninstall()
    return outcome, tracer, traced, untraced


def per_layer_metrics(tracer, traced, untraced):
    calls, busy, own, layer_self = tracer.per_layer()
    cnt = tracer.counters
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    for f in ("rref", "rank", "kernel_basis", "solve", "det_int", "solve_cramer_int"):
        put(f"linalg.{f}.calls", calls[f"linalg.{f}"], "count")
    for layer in ("linalg", "polyhedra", "clusterfan", "typecone", "arquiver", "exchange", "cli"):
        put(f"{layer}.self_s", layer_self[layer], "s")
    v = "polyhedra.vertices"
    put(f"{v}.calls", calls[v], "count")
    put(f"{v}.busy_s", busy[v], "s")
    put(f"{v}.self_s", own[v], "s")
    put(f"{v}.rows_in", cnt[f"{v}.rows_in"], "count")
    put(f"{v}.vertices_out", cnt[f"{v}.vertices_out"], "count")
    in_vertices = tracer.under(v) if calls[v] else []
    linalg_under = sum(
        1 for i, flag in enumerate(in_vertices)
        if flag and tracer.names[tracer.span_name[i]].startswith("linalg.")
    )
    put(f"{v}.yield", ratio(cnt[f"{v}.vertices_out"], linalg_under), "ratio")
    for f in ("normal_fan", "fan_eq", "write_roff", "parse_roff", "roff_normal_fan",
              "fan_from_json", "fan_to_json", "Fan.validate"):
        put(f"polyhedra.{f}.busy_s", busy[f"polyhedra.{f}"], "s")
    e = "clusterfan.enumerate_fan"
    put(f"{e}.calls", calls[e], "count")
    put(f"{e}.busy_s", busy[e], "s")
    put(f"{e}.self_s", own[e], "s")
    put("clusterfan.mutate_seed.calls", calls["clusterfan.mutate_seed"], "count")
    put("clusterfan.bfs_nodes", cnt["clusterfan.bfs_nodes"], "count")
    put("clusterfan.bfs_edges", cnt["clusterfan.bfs_edges"], "count")
    put("clusterfan.bfs.yield", ratio(cnt["clusterfan.bfs_new"], calls["clusterfan.mutate_seed"]), "ratio")
    t = "typecone.type_cone"
    put(f"{t}.calls", calls[t], "count")
    put(f"{t}.busy_s", busy[t], "s")
    put(f"{t}.self_s", own[t], "s")
    put("typecone.wall_dependency.calls", calls["typecone.wall_dependency"], "count")
    put("typecone.wall_dependency.busy_s", busy["typecone.wall_dependency"], "s")
    for c in ("walls_out", "raw_ineqs", "dedup_ineqs", "facets_out"):
        put(f"typecone.{c}", cnt[f"typecone.{c}"], "count")
    put("typecone.facet_yield", ratio(cnt["typecone.facets_out"], cnt["typecone.dedup_ineqs"]), "ratio")
    put("typecone.qc_polytope.busy_s", busy["typecone.qc_polytope"], "s")
    put("typecone.unique_exchange_check.busy_s", busy["typecone.unique_exchange_check"], "s")
    put("arquiver.knit_ar_quiver.busy_s", busy["arquiver.knit_ar_quiver"], "s")
    put("arquiver.abhy_polytope.busy_s", busy["arquiver.abhy_polytope"], "s")
    put("arquiver.ar_vertices", cnt["arquiver.ar_vertices"], "count")
    put("exchange.verify_mutation_theorem.busy_s", busy["exchange.verify_mutation_theorem"], "s")
    put("exchange.relative_ar_meshes.busy_s", busy["exchange.relative_ar_meshes"], "s")
    put("cli.main.calls", calls["cli.main"], "count")
    put("cli.main.busy_s", busy["cli.main"], "s")
    put("cli.main.self_s", own["cli.main"], "s")
    put("cli.bytes_out", cnt["cli.bytes_out"], "B")
    put("trace.spans", len(tracer.span_start), "count")
    put("trace.coverage", ratio(tracer.top_level_s(), traced), "ratio")
    put("trace.overhead_ratio", ratio(traced, untraced), "ratio")
    return m


# --- main -------------------------------------------------------------------


def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU, so that
    the calibration loop times the CPU that the measured work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args):
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if args.trace:
            outcome, tracer, traced, untraced = measure_traced(args.workload, args.seed, workdir)
            metrics = per_layer_metrics(tracer, traced, untraced)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
            report = Report()
            for name, (value, unit) in metrics.items():
                report.add(name, value, unit, 1)
        else:
            outcome, report, metrics = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "report": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in report.rows.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    report.print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print(f"  provenance {json.dumps(record['provenance'])}")
    for err in outcome.errors:
        print(f"  FAILED {err}")
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=400,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode)
        *report, last = proc.stdout.splitlines()
        print("\n".join(report), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    return combined


def main():
    parser = argparse.ArgumentParser(description="fanforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be positive")
    import_fanforge()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
