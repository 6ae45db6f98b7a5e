"""fanforge: g-vector fans of finite-type cluster algebras, McMullen type
cones, and exact polytopal realizations (mesh-equation and height-vector
routes), all over exact rational arithmetic.

Each public name is looked up on the submodule that owns it, on every
access (PEP 562): `import fanforge` loads no submodule, and a patched
module attribute is what the package returns."""

import importlib

__version__ = "0.1.0"

_OWNER = {
    "ARQuiver": "arquiver",
    "AffineFunctional": "arquiver",
    "DynkinQuiver": "arquiver",
    "ExchangeGraph": "clusterfan",
    "Fan": "polyhedra",
    "HPolytope": "polyhedra",
    "LinearDependency": "typecone",
    "MeshRelation": "arquiver",
    "RelativeMesh": "exchange",
    "Seed": "clusterfan",
    "Triangulation": "clusterfan",
    "TypeCone": "typecone",
    "VPolytope": "polyhedra",
    "Wall": "typecone",
    "abhy_functionals": "arquiver",
    "abhy_polytope": "arquiver",
    "all_triangulations": "clusterfan",
    "enumerate_fan": "clusterfan",
    "fan_eq": "polyhedra",
    "fan_from_json": "polyhedra",
    "fan_to_json": "polyhedra",
    "flip": "clusterfan",
    "flip_graph": "clusterfan",
    "initial_seed": "clusterfan",
    "knit_ar_quiver": "arquiver",
    "linear_quiver": "arquiver",
    "mutate_seed": "clusterfan",
    "normal_fan": "polyhedra",
    "p_h": "polyhedra",
    "parse_roff": "polyhedra",
    "qc_polytope": "typecone",
    "relative_ar_meshes": "exchange",
    "seed_from_json": "clusterfan",
    "seed_from_triangulation": "clusterfan",
    "type_cone": "typecone",
    "unique_exchange_check": "typecone",
    "verify_mutation_theorem": "exchange",
    "vertices": "polyhedra",
    "wall_dependency": "typecone",
    "walls": "typecone",
    "write_roff": "polyhedra",
}

__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
