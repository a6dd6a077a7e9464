"""Spans and counters recorded at the public boundaries of stablekneser.

The package is not edited: each traced function is replaced, in every
module namespace (or class) where callers look it up, by a wrapper that
records a span (name, start, end, parent span, job id) or only bumps a
counter.  Spans are kept in flat arrays while the jobs run and reduced to
per-name self times when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict


def _add(key, fn):
    def bump(counters, result, args):
        counters[key] += fn(result, args)
    return bump


def _max(key, fn):
    def bump(counters, result, args):
        counters[key] = max(counters[key], fn(result, args))
    return bump


def _calls(result, args):
    return 1


# (span name, [(module, owner path and attribute)], counter update or None).
# A span's name is the base of its per-layer metrics: "<name>_s" is its self
# time and "<name>_calls" its call count.  A hook whose name is in COUNT_ONLY
# records no span, so its time stays with the caller.
HOOKS = [
    ("complexes.hom_poset", [("complexes", "hom_poset")],
     _add("complexes.hom_cells", lambda r, a: len(r.elements))),
    ("complexes.order_complex", [("complexes", "order_complex")],
     _add("complexes.facets", lambda r, a: len(r.facets))),
    ("complexes.z2_betti", [("complexes", "z2_betti")], None),
    ("complexes.all_faces", [("complexes", "SimplicialComplex.all_faces")],
     _add("complexes.faces", lambda r, a: sum(len(v) for v in r.values()))),
    ("complexes.boundary_rank", [("complexes", "boundary_rank")],
     _max("complexes.boundary_cols_max", lambda r, a: len(a[1]))),
    ("complexes.gf2_rank_sparse", [("complexes", "gf2_rank_sparse")],
     _add("complexes.sparse_rank_calls", _calls)),
    ("complexes.neighbourhood_complex", [("complexes", "neighbourhood_complex")], None),
    ("complexes.covector_to_hom", [("complexes", "covector_to_hom")], None),
    ("complexes.equivariance_self",
     [("complexes", "check_equivariance_combinatorial")], None),
    ("graphs.chromatic", [("graphs", "chromatic_number")], None),
    ("graphs.criticality", [("graphs", "vertex_criticality_check")], None),
    ("graphs.graph_init", [("graphs", "Graph.__post_init__")], None),
    ("graphs.build",
     [("graphs", "stable_kneser_graph"), ("complexes", "stable_kneser_graph")],
     _add("graphs.vertices", lambda r, a: r.n)),
    ("graphs.vertex_permutation", [("graphs", "vertex_permutation")], None),
    ("matroid.dihedral_act_sign",
     [("matroid", "dihedral_act_sign"), ("complexes", "dihedral_act_sign")], None),
    ("matroid.is_covector",
     [("matroid", "is_covector"), ("complexes", "is_covector"), ("geometry", "is_covector")],
     _add("matroid.is_covector_calls", _calls)),
    ("matroid.enumerate_covectors",
     [("matroid", "enumerate_covectors"), ("complexes", "enumerate_covectors"),
      ("geometry", "enumerate_covectors")],
     _add("matroid.covectors", lambda r, a: len(r))),
    ("matroid.enumerate_cocircuits",
     [("matroid", "enumerate_cocircuits"), ("geometry", "enumerate_cocircuits")], None),
    ("geometry.verify_realization", [("geometry", "verify_realization")], None),
    ("geometry.geometry_row", [("geometry", "geometry_row")], None),
    ("geometry.max_edge_defect", [("geometry", "max_edge_defect")], None),
    ("geometry.min_vertex_norm", [("geometry", "min_vertex_norm")], None),
    ("geometry.enumerate_stable_sets", [("geometry", "enumerate_stable_sets")],
     _add("geometry.stable_sets", lambda r, a: len(r))),
    ("charclasses.classify", [("charclasses", "classify")],
     _add("charclasses.cells", _calls)),
    ("charclasses.total_sw_class", [("charclasses", "total_sw_class")], None),
    ("charclasses.poly_invert", [("charclasses", "poly_invert")],
     _add("charclasses.wbar_terms", lambda r, a: len(r.terms))),
    ("charclasses.poly_mul", [("charclasses", "GradedPoly.__mul__")], None),
    ("charclasses.restrict", [("charclasses", "restrict")], None),
]

COUNT_ONLY = {"complexes.all_faces", "complexes.gf2_rank_sparse",
              "matroid.is_covector", "geometry.enumerate_stable_sets"}

# The span the worker opens around parse, dispatch and output of a CLI job;
# its self time is the CLI's own share.
CLI_SPAN = "cli.self"

SPAN_NAMES = {name for name, _, _ in HOOKS if name not in COUNT_ONLY} | {CLI_SPAN}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.counters: defaultdict = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, fn, name: str, counter):
        counters = self.counters
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(counters, result, args)
                return result
            return counted

        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if counter is not None:
                counter(counters, result, args)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap every hooked function where the package looks it up."""
        for name, sites, counter in HOOKS:
            wrappers = {}   # one wrapper per original, shared by its sites
            for module_name, path in sites:
                owner = getattr(package, module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn, name, counter)
                setattr(owner, attr, wrappers[id(fn)])

    def reduce(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        spans: dict = {}
        by_job: dict = {}
        for i in range(n):
            name = self.names[self.name[i]]
            row = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += own[i]
            per_job = by_job.setdefault(self.job[i], {})
            per_job[name] = per_job.get(name, 0.0) + own[i]
        return {"spans": spans, "self_s_by_job": by_job, "span_count": n,
                "counters": {k: int(v) if v == int(v) else v
                             for k, v in self.counters.items()}}
