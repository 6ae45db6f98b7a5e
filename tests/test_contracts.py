"""Contract checks must survive `python -O`, which strips `assert`: the
package raises FanforgeError subclasses instead. The integer kernels stay
in integers: they construct no Fraction. Every public linalg function has
a caller elsewhere in the package, and every private module-level name one
outside its own definition, so test-only helpers live in the tests.
Files are written by one writer, `cli._write_out`, which never truncates
on open. Determinants and vertex orders each have one owner, and every
error class is raised somewhere."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "fanforge").glob("*.py"))


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_contracts(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node))
    ]
    assert not offenders, f"{path.name}: assert-based contract checks at lines {offenders}"


# (module, function) pairs that must run on integers only
INTEGER_KERNELS = [
    ("linalg.py", "_echelon"),
    ("linalg.py", "_independent_rows"),
    ("linalg.py", "det_int"),
    ("polyhedra.py", "_adjugate_int"),
    ("polyhedra.py", "extreme_rays"),
    ("clusterfan.py", "mutate_seed"),
    ("clusterfan.py", "_mutated"),
    ("clusterfan.py", "exchanged_g_vector"),
    ("clusterfan.py", "_symmetrizes"),
    ("clusterfan.py", "_dual"),
    ("clusterfan.py", "_prove"),
    ("clusterfan.py", "_inverse_rows"),
    ("typecone.py", "type_cone"),
    ("typecone.py", "wall_dependency"),
    ("exchange.py", "verify_mutation_theorem"),
    ("arquiver.py", "knit_ar_quiver"),
    ("arquiver.py", "abhy_functionals"),
]


def _constructs_fraction(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "Fraction") or (
        isinstance(func, ast.Attribute) and func.attr == "Fraction"
    )


@pytest.mark.parametrize("module, name", INTEGER_KERNELS, ids=lambda x: x)
def test_integer_kernels_construct_no_fraction(module, name):
    path = next(p for p in SOURCES if p.name == module)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    [function] = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    offenders = [node.lineno for node in ast.walk(function) if _constructs_fraction(node)]
    assert not offenders, f"{module}:{name} constructs a Fraction at lines {offenders}"


def test_every_public_linalg_function_is_used_elsewhere_in_the_package():
    [linalg] = [p for p in SOURCES if p.name == "linalg.py"]
    public = {
        node.name
        for node in ast.parse(linalg.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set()
    for path in SOURCES:
        if path == linalg:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "linalg":
                used.add(node.attr)
    assert public - used == set(), f"linalg functions only the tests call: {sorted(public - used)}"


def _definitions(tree):
    """(name, statement) for each module-level function, class and assigned
    name of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for name in (n for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                yield name.id, node


def _reads(node):
    """Every identifier that node reads, imports or reads as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_private_module_level_name_is_used_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    statements = [(stmt, set(_reads(stmt))) for tree in trees.values() for stmt in tree.body]
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, definition in _definitions(tree)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in reads for stmt, reads in statements if stmt is not definition)
    ]
    assert not dead, f"private names nothing else in the package reads: {dead}"


def _callee(node):
    return ast.unparse(node.func) if isinstance(node, ast.Call) else None


def test_determinants_and_vertex_order_have_one_owner_each():
    """A determinant is taken only where a matrix is inverted (a seed is
    proved by its duality identity); vertices are ordered where a VPolytope
    is built."""
    callers = {"det_int": set(), "_lex_order": set()}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [
            (f"{cls.name}.{node.name}", node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]
        for name, function in scopes:
            for call in ast.walk(function):
                if _callee(call) in callers:
                    callers[_callee(call)].add(name)
    assert callers == {
        "det_int": {"_adjugate_int"},
        "_lex_order": {"VPolytope.__init__"},
    }


def _raised_name(node):
    """The name a raise statement raises, `errors.` prefix and call dropped."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc).rsplit(".", 1)[-1] if exc is not None else None


def test_every_error_class_is_raised_somewhere():
    """Each FanforgeError subclass names a failure the package can report:
    one that nothing raises is a leftover of a removed path."""
    [errors] = [p for p in SOURCES if p.name == "errors.py"]
    family = {"FanforgeError"}
    for node in ast.parse(errors.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and {ast.unparse(b) for b in node.bases} & family:
            family.add(node.name)
    raised = {
        _raised_name(node)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
    }
    unraised = family - raised - {"FanforgeError"}
    assert not unraised, f"error classes nothing raises: {sorted(unraised)}"


def _opens_for_writing(call):
    """An `os.open` call, or an `open` call with a mode other than read;
    opening `os.devnull` writes no file."""
    if call.args and ast.unparse(call.args[0]) == "os.devnull":
        return False
    if _callee(call) == "os.open":
        return True
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return _callee(call) == "open" and any(
        not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes
    )


def test_write_out_is_the_only_writer_and_never_truncates_on_open():
    writers, offenders = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC"
        ]
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            # a write mode on `open` may only wrap a descriptor from os.open
            descriptors = {
                target.id
                for node in ast.walk(function)
                if isinstance(node, ast.Assign) and _callee(node.value) == "os.open"
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for call in ast.walk(function):
                if isinstance(call, ast.Call) and _opens_for_writing(call):
                    writers.add((path.name, function.name))
                    if _callee(call) == "open" and ast.unparse(call.args[0]) not in descriptors:
                        offenders.append((path.name, call.lineno))
    assert writers == {("cli.py", "_write_out")}
    assert not offenders, f"files opened with truncation at {offenders}"


def test_only_paper_a2_enumerates_vertices_on_the_command_line():
    """In cli.py only `paper-a2` enumerates vertices, as the independent
    check of the paper's printed vertices: a command that writes the
    polytope of a g-vector fan proves it cone by cone (realization)."""
    [cli] = [p for p in SOURCES if p.name == "cli.py"]
    callers = {"polyhedra.vertices": set(), "polyhedra.extreme_rays": set()}
    for function in ast.parse(cli.read_text(encoding="utf-8")).body:
        if isinstance(function, ast.FunctionDef):
            for call in ast.walk(function):
                if _callee(call) in callers:
                    callers[_callee(call)].add(function.name)
    assert callers == {"polyhedra.vertices": {"cmd_paper_a2"}, "polyhedra.extreme_rays": set()}
