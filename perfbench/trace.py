"""Per-layer tracer, installed from outside the library.

Each target is a public function or method of a ``dgdeform`` module.  It is
found by identity at every binding site: every module-level name in every
loaded ``dgdeform.*`` module, and every attribute of every class defined
there, that holds the original object is rebound to one wrapper.  So
``solve_sparse`` is wrapped where ``cochain`` imported it, ``solve_coboundary``
where ``deform`` and ``family`` did, and a target that moves keeps being
traced.  A target that no longer exists is reported as null.

Span targets record (target, start, end, parent span) in memory; self time
is a span's duration minus the time of its direct child spans.  The
highest-frequency targets are counted only.  Nothing is recorded while
``on`` is false, which the worker keeps false outside the timed calls.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

# name -> (module, qualified name, "span" | "count")
TARGETS = {
    "dsl.parse": ("dgdeform.dsl", "parse", "span"),
    "dsl.render": ("dgdeform.dsl", "render", "span"),
    "dsl.load_complex": ("dgdeform.dsl", "load_complex", "span"),
    "family.base_complex": ("dgdeform.family", "base_complex", "span"),
    "family.family_lifts": ("dgdeform.family", "family_lifts", "span"),
    "family.verify_polynomial": ("dgdeform.family", "verify_polynomial", "span"),
    "family.verify_obstructed": ("dgdeform.family", "verify_obstructed", "span"),
    "family.verify_infinite": ("dgdeform.family", "verify_infinite", "span"),
    "deform.deform_to_order": ("dgdeform.deform", "deform_to_order", "span"),
    "deform.extend_step": ("dgdeform.deform", "extend_step", "span"),
    "deform.check_relations": ("dgdeform.deform", "check_relations", "span"),
    "deform.obstruction": ("dgdeform.deform", "obstruction", "span"),
    "deform.series_mul": ("dgdeform.deform", "series_mul", "span"),
    "deform.series_inverse": ("dgdeform.deform", "series_inverse", "span"),
    "deform.gauge_transform": ("dgdeform.deform", "gauge_transform", "span"),
    "deform.trivialize": ("dgdeform.deform", "trivialize", "span"),
    "deform.first_order_triviality": ("dgdeform.deform", "first_order_triviality", "span"),
    "cochain.solve_coboundary": ("dgdeform.cochain", "solve_coboundary", "span"),
    "cochain.cohomology": ("dgdeform.cochain", "cohomology", "span"),
    "linalg.solve_sparse": ("dgdeform.linalg", "solve_sparse", "span"),
    "linalg.rank_sparse": ("dgdeform.linalg", "rank_sparse", "span"),
    "linalg.nullspace_sparse": ("dgdeform.linalg", "nullspace_sparse", "span"),
    "cochain.coboundary": ("dgdeform.cochain", "Cochain.coboundary", "count"),
    "gmap.compose": ("dgdeform.gmap", "GradedMap.compose", "count"),
    "gmap.apply": ("dgdeform.gmap", "GradedMap.apply", "count"),
    "field.scalar": ("dgdeform.field", "FieldSpec.scalar", "count"),
}

#: spans the benchmark opens itself around its calls into a layer
OWN_SPANS = ("job", "cli.main")

with open(os.path.join(os.path.dirname(__file__), "layers.json")) as _fh:
    LAYER_METRICS = json.load(_fh)


def _resolve(module: str, qualname: str):
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _rebind(original, wrapper) -> int:
    """Replace ``original`` by ``wrapper`` at every binding site; the count."""
    sites = 0
    seen_classes = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dgdeform" or name.startswith("dgdeform.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                sites += 1
            elif isinstance(value, type) and id(value) not in seen_classes \
                    and value.__module__.startswith("dgdeform"):
                seen_classes.add(id(value))
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, wrapper)
                        sites += 1
    return sites


class _Span:
    __slots__ = ("tracer", "tid", "idx")

    def __init__(self, tracer, tid):
        self.tracer = tracer
        self.tid = tid

    def __enter__(self):
        self.idx = self.tracer._open()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.tid, perf_counter())
        return False


class Tracer:
    def __init__(self):
        self.on = False
        self.names = list(OWN_SPANS) + [n for n, t in TARGETS.items() if t[2] == "span"]
        self._tid = {n: i for i, n in enumerate(self.names)}
        self.spans: list = []  # (tid, t0, t1, parent index), by opening order
        self._starts: list = []
        self._stack: list = []
        self.counts = {n: [0] for n, t in TARGETS.items() if t[2] == "count"}
        self.found: dict = {}
        self.shapes: list = []  # (source module, target module, p) per delta matrix
        self.shapes_known = True
        self.infeasible = 0

    # -- recording --------------------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._starts.append(perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx, tid, t1):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (tid, self._starts[idx], t1, parent)

    def span(self, name):
        return _Span(self, self._tid[name])

    def _span_wrapper(self, name, f):
        tid = self._tid[name]
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not self.on:
                return f(*args, **kwargs)
            idx = self._open()
            try:
                result = f(*args, **kwargs)
            finally:
                self._close(idx, tid, perf_counter())
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = f
        return wrapper

    def _count_wrapper(self, name, f):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            if self.on:
                cell[0] += 1
            return f(*args, **kwargs)

        wrapper.__wrapped__ = f
        return wrapper

    def install(self) -> None:
        for name, (module, qualname, kind) in TARGETS.items():
            original = _resolve(module, qualname)
            if original is None:
                self.found[name] = False
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            self.found[name] = _rebind(original, make(name, original)) > 0

    # -- reduction ---------------------------------------------------------------------

    def metrics(self, overhead_ratio: float):
        """Every per-layer metric of layers.json, per traced job, and the
        share of traced job time spent in linalg."""
        n = len(self.names)
        calls = [0] * n
        incl = [0.0] * n
        self_t = [0.0] * n
        child = [0.0] * len(self.spans)
        for tid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for k, (tid, t0, t1, parent) in enumerate(self.spans):
            calls[tid] += 1
            self_t[tid] += t1 - t0 - child[k]
            p = parent
            while p >= 0 and self.spans[p][0] != tid:
                p = self.spans[p][3]
            if p < 0:  # outermost span of its target: count its time once
                incl[tid] += t1 - t0
        job = self._tid["job"]
        jobs = calls[job]
        per_job = 1.0 / jobs if jobs else 0.0

        def known(name):
            return self.found.get(name, True)

        def get(name, field):
            if not known(name):
                return None
            if name in self.counts:
                return self.counts[name][0]
            tid = self._tid[name]
            return {"calls": calls[tid], "s": incl[tid], "self_s": self_t[tid]}[field]

        def layer_self(layer):
            names = [x for x in self._tid if x.split(".")[0] == layer]
            return sum(self_t[self._tid[x]] for x in names if known(x))

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        solves = get("cochain.solve_coboundary", "calls")
        cohos = get("cochain.cohomology", "calls")
        rows = cols = None
        basis = _resolve("dgdeform.cochain", "cochain_basis")
        if self.shapes_known and basis is not None:
            sizes: dict = {}

            def size(v, m, p):
                if (v, m, p) not in sizes:
                    sizes[v, m, p] = len(basis(v, m, p))
                return sizes[v, m, p]

            k = len(self.shapes) or 1
            rows = sum(size(v, m, p + 1) for v, m, p in self.shapes) / k
            cols = sum(size(v, m, p) for v, m, p in self.shapes) / k

        values = {
            "cli.self_s": self_t[self._tid["cli.main"]] * per_job,
            "family.self_s": layer_self("family") * per_job,
            "cochain.solve_coboundary.infeasible_ratio":
                ratio(self.infeasible if solves is not None else None, solves),
            "deform.check_relations.calls_per_rung": ratio(
                get("deform.check_relations", "calls"), get("deform.extend_step", "calls")),
            "cochain.coboundary.calls_per_solve": ratio(
                get("cochain.coboundary", "calls"),
                None if solves is None or cohos is None else solves + cohos),
            "cochain.delta_rows": rows,
            "cochain.delta_cols": cols,
            "trace.overhead_ratio": overhead_ratio,
            "trace.job_s": incl[job] * per_job,
            "trace.jobs": jobs,
        }
        out = {}
        for spec in LAYER_METRICS:
            name = spec["name"]
            if name in values:
                value = values[name]
            else:
                target, field = name.rsplit(".", 1)
                raw = get(target, field)
                value = None if raw is None else raw * per_job
            out[name] = {"value": value, "unit": spec["unit"]}
        linalg = [get(x, "s") for x in ("linalg.solve_sparse", "linalg.rank_sparse",
                                       "linalg.nullspace_sparse")]
        share = None if None in linalg or not incl[job] else sum(linalg) / incl[job]
        return out, share


def _solve_hook(tracer, args, kwargs, result):
    try:
        g = args[0] if args else kwargs["g"]
        tracer.shapes.append((g.source.module, g.target.module, g.p - 1))
    except (AttributeError, IndexError, KeyError, TypeError):
        tracer.shapes_known = False
    if type(result).__name__ == "Infeasible":
        tracer.infeasible += 1


def _cohomology_hook(tracer, args, kwargs, result):
    try:
        source = args[0] if args else kwargs["source"]
        target = args[1] if len(args) > 1 else kwargs.get("target")
        p = args[2] if len(args) > 2 else kwargs.get("p", 0)
        target = target if target is not None else source
        tracer.shapes.append((source.module, target.module, p))
        tracer.shapes.append((source.module, target.module, p - 1))
    except (AttributeError, IndexError, KeyError, TypeError):
        tracer.shapes_known = False


_HOOKS = {
    "cochain.solve_coboundary": _solve_hook,
    "cochain.cohomology": _cohomology_hook,
}
