"""Contract checks must survive `python -O`, which strips `assert`: the
package raises FanforgeError subclasses instead. The integer kernels stay
in integers: they construct no Fraction."""

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
    ("linalg.py", "rank"),
    ("linalg.py", "kernel_basis"),
    ("linalg.py", "det_int"),
    ("polyhedra.py", "_adjugate_int"),
    ("polyhedra.py", "extreme_rays"),
    ("clusterfan.py", "mutate_seed"),
    ("clusterfan.py", "exchanged_g_vector"),
    ("typecone.py", "dependency_vector"),
    ("typecone.py", "_lineality_reducer"),
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
