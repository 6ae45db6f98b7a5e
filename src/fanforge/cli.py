"""Command-line front end.

Every run is deterministic given its inputs: exit code 0 on success, 1 on
verification failure, 2 on input error (with a single machine-parsable
`fanforge: error: ...` line on stderr).

Each command imports, inside its function, only the modules it runs.
"""

import argparse
import os
import stat
import sys
from fractions import Fraction

from .errors import FanforgeError, InconsistentSystem


def _budget(args):
    """The BFS node budget: --budget, else FANFORGE_BUDGET, else the
    default; it must be at least 1."""
    from . import clusterfan
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        raw, source = os.environ.get("FANFORGE_BUDGET"), "FANFORGE_BUDGET"
        try:
            budget = int(raw) if raw else clusterfan.DEFAULT_BFS_BUDGET
        except ValueError:
            raise ValueError(f"FANFORGE_BUDGET must be an integer, not {raw!r}") from None
    if budget < 1:
        raise ValueError(f"{source} must be at least 1, not {budget}")
    return budget


def _parse_fraction_list(text):
    try:
        return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ZeroDivisionError:
        raise ValueError(f"a rational in {text!r} has a zero denominator") from None


def _parameters(text, count):
    """The --c values: the listed rationals, or count ones when absent."""
    return _parse_fraction_list(text) if text is not None else [Fraction(1)] * count


def _orientation_from_text(text):
    arrows = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            s, t = map(int, tok.split(">"))
        except ValueError:
            raise ValueError(f"orientation token {tok!r} must look like '2>1'") from None
        arrows.append((s, t))
    return tuple(arrows)


def _quiver_from_args(args):
    from . import arquiver
    text = args.orientation
    orientation = _orientation_from_text(text) if text is not None else None
    return arquiver.DynkinQuiver(args.type, args.rank, orientation)


def _seed_from_args(args):
    """Seed plus optional tracked triangulation."""
    from . import clusterfan
    if args.seed is not None:
        with open(args.seed, encoding="utf-8") as fh:
            return clusterfan.seed_from_json(fh.read())
    return clusterfan.initial_seed(_quiver_from_args(args).exchange_matrix()), None


def _write_out(*outputs):
    """Write each (text, path) pair in order, to stdout when the path is
    None or "-". Every file is opened before anything is written, so a
    path that cannot be opened raises with nothing written: the files this
    call created are removed and the existing ones keep their bytes."""
    fds, created = [], []
    try:
        for _text, path in outputs:
            if path is None or path == "-":
                fds.append(None)
                continue
            # a dangling symlink's open creates its target
            new = not os.path.exists(path)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            fds.append(fd)
            if new:
                created.append(os.path.realpath(path))
    except OSError:
        for fd in fds:
            if fd is not None:
                os.close(fd)
        for path in created:
            os.unlink(path)
        raise
    for (text, _path), fd in zip(outputs, fds):
        if fd is None:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            continue
        # rewrite in place, then cut a regular file to length (FIFOs and
        # devices refuse ftruncate): truncating on open makes ext4 flush
        # the file on close, and the next rewrite waits for that flush
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _read_in(path):
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_fan(path):
    """The fan JSON at path (stdin when absent), proved complete before use."""
    from . import polyhedra
    fan = polyhedra.fan_from_json(_read_in(path))
    fan.validate()
    return fan


def _add_quiver_options(sub):
    sub.add_argument("--type", default="A", choices=["A", "D", "E"])
    sub.add_argument("--rank", type=int, default=2)
    sub.add_argument("--orientation", help="arrows like '2>1,3>2' (default linear)")


def _add_seed_options(sub):
    _add_quiver_options(sub)
    sub.add_argument("--seed", help="seed JSON file ('b' matrix or 'triangulation')")


def cmd_fan(args):
    from . import clusterfan, polyhedra
    seed, tri = _seed_from_args(args)
    enum = clusterfan.enumerate_fan(seed, triangulation=tri, budget=args.budget)
    # proved with or without --validate, which scripts still pass; the BFS
    # handed the fan its cone inverses, so the proof inverts no matrix
    enum.fan.validate()
    outputs = [(polyhedra.fan_to_json(enum.fan), args.output)]
    if args.graph_out:
        outputs.append((enum.graph.to_dot(), args.graph_out))
    _write_out(*outputs)
    return 0


def cmd_graph(args):
    from . import clusterfan, typecone
    seed, tri = _seed_from_args(args)
    enum = clusterfan.enumerate_fan(seed, triangulation=tri, budget=args.budget)
    labels = None
    if args.annotate:
        labels = {}
        for w in typecone.walls(enum.fan):
            coeffs = typecone.wall_dependency(enum.fan, w).middle_coeffs
            key = tuple(sorted(w.exchanged))
            mids = "+".join(f"{x}*h{s}" for s, x in coeffs.items() if x)
            labels[key] = f"h{key[0]}+h{key[1]}>{mids or '0'}"
    _write_out((enum.graph.to_dot(labels), args.output))
    return 0


def cmd_typecone(args):
    from . import typecone
    fan = _read_fan(args.fan)
    tc = typecone.type_cone(fan)
    expected = fan.n_rays - fan.dim
    if args.report:
        # the type cone's raw rows are its walls' dependency normals
        deps = map(typecone.LinearDependency, tc.wall_list, tc.raw_inequalities)
        uerp = typecone.unique_exchange_check(fan, deps)
        line = (
            f"facets={tc.n_facets} expected={expected} "
            f"uerp={'true' if uerp['holds'] else 'false'}"
        )
        outputs = [(line, None)]
        if args.output:
            outputs.append((tc.to_json(), args.output))
        _write_out(*outputs)
        return 0 if tc.n_facets == expected else 1
    _write_out((tc.to_json(), args.output))
    return 0


def cmd_realize(args):
    from . import polyhedra, typecone
    fan = _read_fan(args.fan)
    if args.h is not None:
        if args.c is not None:
            raise ValueError("give either --c or --h, not both")
        if args.typecone is not None:
            raise ValueError("give either --typecone or --h, not both")
        poly = polyhedra.p_h(fan, _parse_fraction_list(args.h))
    else:
        if args.typecone is not None:
            tc = typecone.type_cone_from_json(_read_in(args.typecone))
            if tc.n_rays != fan.n_rays:
                raise ValueError("the type cone and the fan differ in their number of rays")
        else:
            tc = typecone.type_cone(fan)
        c = _parameters(args.c, fan.n_rays - fan.dim)
        poly, _cert = typecone.qc_polytope(fan, tc, c)
    # the heights or a type cone file may be wrong: prove the polytope
    # realizes the fan before writing it
    try:
        vp = polyhedra.realization(fan, poly.bounds)
    except ValueError as exc:
        print(f"realization failed: {exc}")
        return 1
    _write_out((polyhedra.write_roff(vp), args.output))
    return 0


def cmd_verify(args):
    from . import polyhedra
    fan = _read_fan(args.fan)
    verts, facet_lists = polyhedra.parse_roff(_read_in(args.polytope))
    if len(verts[0]) != fan.dim:
        raise ValueError(f"the polytope lives in R^{len(verts[0])}, the fan in R^{fan.dim}")
    try:
        polyhedra.roff_realization(fan, verts, facet_lists)
    except ValueError as exc:
        print(f"verification failed: {exc}")
        return 1
    print("verified: normal fan of the polytope equals the fan")
    return 0


def cmd_abhy(args):
    from . import arquiver, polyhedra
    quiver = _quiver_from_args(args)
    ar = arquiver.knit_ar_quiver(quiver)
    c = _parameters(args.c, len(ar.meshes))
    lines = ["# coordinate dictionary (id, slice, tree vertex, label, kind)"]
    for row in ar.coordinate_dictionary():
        lines.append("  ".join(str(x) for x in row))
    lines.append("# mesh equations")
    lines.extend(_mesh_equation_lines(ar))
    lines.append("# polytope inequalities (one functional >= 0 per vertex)")
    poly = arquiver.abhy_polytope(ar, c)
    for row, bound in zip(poly.ineq_matrix, poly.bounds):
        lhs = _named_linear(row, [f"x{i + 1}" for i in range(len(row))])
        lines.append(f"{lhs} <= {bound}")
    outputs = [("\n".join(lines), args.output)]
    if args.polytope_out:
        # ABHY = Q_c: P_h on the quiver's g-vector fan, proved cone by cone
        from . import clusterfan
        fan = clusterfan.enumerate_fan(clusterfan.initial_seed(quiver.exchange_matrix())).fan
        fan.validate()
        if sorted(poly.ineq_matrix) != sorted(fan.rays):
            raise InconsistentSystem("the ABHY normals are not the rays of the g-vector fan")
        h = list(map(dict(zip(poly.ineq_matrix, poly.bounds)).get, fan.rays))
        outputs.append((polyhedra.write_roff(polyhedra.realization(fan, h)), args.polytope_out))
    if args.ar_out:
        outputs.append((ar.to_json(), args.ar_out))
    # written only once the polytope is proved, so an exit 2 leaves nothing
    _write_out(*outputs)
    return 0


def _mesh_equation_lines(ar):
    """One `q + t = middles + c` line per mesh, sorted by start label."""
    lines = []
    for mesh in sorted(ar.meshes, key=lambda m: ar.vertex_label(m.start)):
        left = f"{ar.vertex_label(mesh.start)} + {ar.vertex_label(mesh.end)}"
        terms = [ar.vertex_label(m) for m in mesh.middles] + [ar.mesh_param_label(mesh)]
        lines.append(f"{left} = {' + '.join(terms)}")
    return lines


PAPER_A2_EQUATIONS = [
    "q_{1 3} + q_{2 4} = q_{1 4} + c_{2 4}",
    "q_{1 4} + q_{2 5} = q_{2 4} + c_{2 5}",
    "q_{2 4} + q_{3 5} = q_{2 5} + c_{3 5}",
]
PAPER_A2_FUNCTIONALS = [
    "q_{1 3} = c_{2 4} + c_{2 5} - q_{2 5}",
    "q_{1 4} = c_{2 5} + c_{3 5} - q_{3 5}",
    "q_{2 4} = c_{3 5} + q_{2 5} - q_{3 5}",
]
PAPER_A2_INEQUALITIES = {
    ((1, 0), 2),
    ((0, 1), 2),
    ((-1, 1), 1),
    ((-1, 0), 0),
    ((0, -1), 0),
}
PAPER_A2_VERTICES = {(0, 0), (2, 0), (2, 2), (1, 2), (0, 1)}


def _functional_text(ar, funcs, vid):
    """`q = ...` with the positive terms first, each sign's terms by label."""
    f = funcs[vid]
    terms = [(x, ar.mesh_param_label(m)) for x, m in zip(f.mesh_coeffs, ar.meshes)]
    terms += [(x, ar.vertex_label(v)) for x, v in zip(f.proj_coeffs, ar.projection_vertices)]
    terms.sort(key=lambda t: (t[0] < 0, t[1]))
    coeffs, labels = zip(*terms)
    return f"{ar.vertex_label(vid)} = {_named_linear(coeffs, labels)}"


def cmd_paper_a2(args):
    from . import arquiver, polyhedra
    ar = arquiver.knit_ar_quiver(arquiver.linear_quiver(2))
    lines = ["# mesh equations of the A2 window"]
    eq_texts = _mesh_equation_lines(ar)
    lines.extend(eq_texts)
    funcs = arquiver.abhy_functionals(ar)
    proj = set(ar.projection_vertices)
    lines.append("# eliminated functionals")
    fn_texts = [
        _functional_text(ar, funcs, vid)
        for vid in sorted(
            (v for v in range(len(ar.vertices)) if v not in proj),
            key=ar.vertex_label,
        )
    ]
    lines.extend(fn_texts)
    lines.append("# closed region for c = (1,1,1) with x = q_{2 5}, y = q_{3 5}")
    poly = arquiver.abhy_polytope(ar, (1, 1, 1))
    ineqs = {
        (tuple(int(x) for x in row), int(b))
        for row, b in zip(poly.ineq_matrix, poly.bounds)
    }
    var_names = ("x", "y")
    for row, b in sorted(ineqs, reverse=True):
        lines.append(f"{_named_linear(row, var_names)} <= {b}")
    vp = polyhedra.vertices(poly)
    verts = {tuple(int(x) for x in v) for v in vp.vertices}
    lines.append("# vertices")
    lines.append(" ".join(str(v).replace(" ", "") for v in sorted(verts)))

    failures = []
    if eq_texts != PAPER_A2_EQUATIONS:
        failures.append(f"equation mismatch: {eq_texts!r} != {PAPER_A2_EQUATIONS!r}")
    if fn_texts != PAPER_A2_FUNCTIONALS:
        failures.append(f"functional mismatch: {fn_texts!r} != {PAPER_A2_FUNCTIONALS!r}")
    if ineqs != PAPER_A2_INEQUALITIES:
        failures.append(f"inequality mismatch: {sorted(ineqs)}")
    if verts != PAPER_A2_VERTICES:
        failures.append(f"vertex mismatch: {sorted(verts)}")

    text = "\n".join(lines)
    _write_out((text, args.output))
    if failures:
        for f in failures:
            print(f"MISMATCH {f}")
        return 1
    print("OK")
    return 0


def _named_linear(row, names):
    terms = []
    for a, name in zip(row, names):
        if a == 0:
            continue
        if a == 1:
            terms.append(f"+ {name}" if terms else name)
        elif a == -1:
            terms.append(f"- {name}" if terms else f"-{name}")
        else:
            terms.append(f"+ {a} {name}" if a > 0 and terms else f"{a} {name}")
    return " ".join(terms) if terms else "0"


class _SingleLineParser(argparse.ArgumentParser):
    def exit(self, status=0, message=None):
        # flush --help text here, inside main's try, so that a closed
        # stdout is caught there rather than at interpreter exit
        sys.stdout.flush()
        super().exit(status, message)

    def error(self, message):
        print(f"fanforge: error: {message}", file=sys.stderr)
        sys.exit(2)


def build_parser():
    parser = _SingleLineParser(
        prog="fanforge",
        description="g-vector fans, type cones, and polytopal realizations, exactly",
    )
    parser.add_argument(
        "--rng-seed", type=int, default=0, help="accepted and ignored; no check is randomized"
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; every command runs serially"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fan = sub.add_parser("fan", help="enumerate a g-vector fan from a seed")
    _add_seed_options(p_fan)
    p_fan.add_argument("-o", "--output")
    p_fan.add_argument("--graph-out")
    p_fan.add_argument("--budget", type=int, default=None)
    p_fan.add_argument(
        "--validate",
        action="store_true",
        help="prove the fan complete (wall-and-degree certificate)",
    )
    p_fan.set_defaults(func=cmd_fan)

    p_graph = sub.add_parser("graph", help="export the exchange graph as DOT")
    _add_seed_options(p_graph)
    p_graph.add_argument("-o", "--output")
    p_graph.add_argument("--budget", type=int, default=None)
    p_graph.add_argument("--annotate", action="store_true", help="label walls with dependencies")
    p_graph.set_defaults(func=cmd_graph)

    p_tc = sub.add_parser("typecone", help="type cone of a fan (JSON in, JSON out)")
    p_tc.add_argument("--fan", help="fan JSON file (default stdin)")
    p_tc.add_argument("-o", "--output")
    p_tc.add_argument("--report", action="store_true")
    p_tc.set_defaults(func=cmd_typecone)

    p_re = sub.add_parser("realize", help="realize a fan as the polytope Q_c")
    p_re.add_argument("--fan", help="fan JSON file (default stdin)")
    p_re.add_argument("--typecone", help="type cone JSON (recomputed when absent)")
    p_re.add_argument("--c", help="comma-separated positive rationals, e.g. '1,3/2,1'")
    p_re.add_argument("--h", help="realize P_h directly from a height vector instead")
    p_re.add_argument("-o", "--output")
    p_re.set_defaults(func=cmd_realize)

    p_ve = sub.add_parser("verify", help="check that a ROFF polytope realizes a fan")
    p_ve.add_argument("--fan", required=True)
    p_ve.add_argument("--polytope", required=True)
    p_ve.set_defaults(func=cmd_verify)

    p_ab = sub.add_parser("abhy", help="mesh-equation route: knit, eliminate, realize")
    _add_quiver_options(p_ab)
    p_ab.add_argument("--c", help="comma-separated positive rationals, one per mesh")
    # type E knits like A and D; scripts still pass --enable-e
    p_ab.add_argument("--enable-e", action="store_true")
    p_ab.add_argument("-o", "--output")
    p_ab.add_argument("--polytope-out")
    p_ab.add_argument("--ar-out", help="write the knitted quiver as JSON")
    p_ab.set_defaults(func=cmd_abhy)

    p_pa = sub.add_parser("paper-a2", help="reproduce the worked rank-2 example")
    p_pa.add_argument("-o", "--output")
    p_pa.set_defaults(func=cmd_paper_a2)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "budget"):
            args.budget = _budget(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the exit
        # flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (FanforgeError, ValueError, OSError, KeyError, RecursionError) as exc:
        print(f"fanforge: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
