"""Span tracing of fanforge's public functions, from outside the program.

`Tracer.install()` replaces every public function of every fanforge module
(plus `Fan.validate`) by a wrapper that records one span per call: name,
start, end, parent span and op id. The wrapper is set on every module
attribute that refers to the function, because `polyhedra` and `typecone`
import the linalg helpers by name. `dot`, `primitive` and `scale_rows_int`
stay unwrapped: they are called millions of times and are leaves.

Spans live in flat arrays in memory and are written once, by `write()`.
Wrappers are only ever installed by the traced run; `uninstall()` puts the
original functions back.
"""

import gzip
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("linalg", "polyhedra", "clusterfan", "typecone", "arquiver", "exchange", "cli")
UNWRAPPED = {"linalg.dot", "linalg.primitive", "linalg.scale_rows_int"}
METHODS = (("polyhedra", "Fan", "validate"),)


def _count_vertices(counters, args, result):
    counters["polyhedra.vertices.rows_in"] += len(args[0].ineq_matrix)
    counters["polyhedra.vertices.vertices_out"] += len(result.vertices)


def _count_bfs(counters, args, result):
    counters["clusterfan.bfs_nodes"] += len(result.graph.nodes)
    counters["clusterfan.bfs_new"] += len(result.graph.nodes) - 1  # the start seed is not new
    counters["clusterfan.bfs_edges"] += len(result.graph.edges)


def _count_type_cone(counters, args, result):
    from fanforge.linalg import primitive

    counters["typecone.walls_out"] += len(result.wall_list)
    counters["typecone.raw_ineqs"] += len(result.raw_inequalities)
    counters["typecone.dedup_ineqs"] += len({primitive(v) for v in result.raw_inequalities})
    counters["typecone.facets_out"] += result.n_facets


def _count_knit(counters, args, result):
    counters["arquiver.ar_vertices"] += len(result.vertices)


# Counts taken from a call's arguments and result after its span has ended.
COUNT_HOOKS = {
    "polyhedra.vertices": _count_vertices,
    "clusterfan.enumerate_fan": _count_bfs,
    "typecone.type_cone": _count_type_cone,
    "arquiver.knit_ar_quiver": _count_knit,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_nested = array("b")  # 1 when a span of the same name is open
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = defaultdict(int)
        self.op = -1
        self._stack = []
        self._open = []
        self._restore = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self._open.append(0)
        hook = COUNT_HOOKS.get(name)
        names, parents, ops, nested = self.span_name, self.span_parent, self.span_op, self.span_nested
        starts, ends, stack, open_ = self.span_start, self.span_end, self._stack, self._open
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            nested.append(open_[nid] > 0)
            ends.append(0.0)
            stack.append(idx)
            open_[nid] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"fanforge.{layer}") for layer in LAYERS}
        everywhere = list(modules.values()) + [importlib.import_module("fanforge")]
        for layer, mod in modules.items():
            for attr, fn in sorted(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(name, fn)
                for target in everywhere:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            self._restore.append((target, key, fn))
                            setattr(target, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for target, key, fn in reversed(self._restore):
            setattr(target, key, fn)
        self._restore.clear()

    def write(self, path):
        """Write every span as one CSV line: name,start,end,parent,op."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_op[i]}\n"
                )

    # --- aggregation ------------------------------------------------------

    def span_table(self):
        """Per span: (name, busy, self). Self time is the span's duration
        minus the durations of its direct children; calls are synchronous,
        so children never overlap and this is the uncovered part."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [(self.names[self.span_name[i]], dur[i], dur[i] - child[i]) for i in range(n)]

    def under(self, ancestor):
        """Per span: True when some ancestor span has the given name.
        Parents are allocated before children, so one forward pass works."""
        aid = self.names.index(ancestor)
        flags = [False] * len(self.span_start)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                flags[i] = flags[p] or self.span_name[p] == aid
        return flags

    def top_level_s(self):
        return sum(
            self.span_end[i] - self.span_start[i]
            for i, p in enumerate(self.span_parent)
            if p < 0
        )

    def per_layer(self):
        """Per-function calls, busy and self time plus per-layer self time;
        busy time counts only the outermost span of a name."""
        calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_self = defaultdict(float)
        for i, (name, d, s) in enumerate(self.span_table()):
            calls[name] += 1
            own[name] += s
            layer_self[name.split(".")[0]] += s
            if not self.span_nested[i]:
                busy[name] += d
        return calls, busy, own, layer_self
