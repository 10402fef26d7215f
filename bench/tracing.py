"""Spans around the public functions of each `localh` module.

`Tracer.install()` wraps each function listed in TARGETS, replacing it
wherever it is looked up: in its own module, in every module that imported
it by name, or on its class.  The source tree is not changed.  Each call
records a span (name, start, end, parent span, item id) in memory;
`metrics()` folds them into per-function call counts and inclusive
seconds, and per-module self time (span time minus the time of its
child spans).  Items run one at a time, so one span stack serves the
single worker thread `search` starts as well.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

MODULES = (
    "cli", "serialize", "constructions", "posets", "subdivisions",
    "complexes", "identities", "permstats", "polynomials",
)

# (metric prefix, module, class or None, attribute, metrics to report)
TARGETS = (
    ("cli.main", "cli", None, "main", ("s",)),
    ("serialize.load_json", "serialize", None, "load_json", ("s",)),
    ("serialize.subdivision_from_obj", "serialize", None, "subdivision_from_obj", ("s",)),
    ("serialize.poset_from_obj", "serialize", None, "poset_from_obj", ("s",)),
    ("constructions.random_subdivision", "constructions", None, "random_subdivision", ("s",)),
    ("posets.sd_subdivision", "posets", None, "sd_subdivision", ("calls", "s", "facets")),
    ("posets.face_poset", "posets", None, "face_poset", ("s",)),
    ("posets.flag_vectors", "posets", None, "flag_vectors", ("calls", "s")),
    ("posets.cd_extract", "posets", None, "cd_extract", ("calls", "s")),
    ("posets.ek_difference", "posets", None, "ek_difference", ("s",)),
    ("subdivisions.Subdivision", "subdivisions", "Subdivision", "__init__", ("calls", "s")),
    ("subdivisions.validate", "subdivisions", "Subdivision", "validate", ("s",)),
    ("subdivisions.restriction_members", "subdivisions", "Subdivision", "restriction_members",
     ("calls", "s", "carriers_scanned")),
    ("subdivisions.is_quasi_geometric", "subdivisions", "Subdivision", "is_quasi_geometric", ("s",)),
    ("subdivisions.is_vertex_induced", "subdivisions", "Subdivision", "is_vertex_induced", ("s",)),
    ("subdivisions.local_h", "subdivisions", "Subdivision", "local_h", ("s",)),
    ("subdivisions.subset_boundary_h", "subdivisions", "Subdivision", "subset_boundary_h", ("s",)),
    ("complexes.gf2_rank", "complexes", None, "gf2_rank", ("calls", "s", "rows")),
    ("complexes.from_faces", "complexes", "SimplicialComplex", "from_faces", ("s",)),
    ("complexes.betti_z2", "complexes", "SimplicialComplex", "betti_z2", ("s",)),
    ("complexes.boundary", "complexes", "SimplicialComplex", "boundary", ("s",)),
    ("complexes.faces_by_dim", "complexes", "SimplicialComplex", "faces_by_dim", ("s",)),
    ("identities.verify_all", "identities", None, "verify_all", ("s",)),
    ("identities.local_h_via_boundary_recursion", "identities", None,
     "local_h_via_boundary_recursion", ("s",)),
    ("identities.local_h_via_derangements", "identities", None, "local_h_via_derangements", ("s",)),
    ("permstats.derangement_enum", "permstats", None, "derangement_enum", ("calls",)),
    ("polynomials.gamma_extract", "polynomials", None, "gamma_extract", ("s",)),
)

# Work counters taken from a call's arguments or result.
COUNTERS = {
    "posets.sd_subdivision": ("facets", lambda args, result: len(result.total.facets)),
    "subdivisions.restriction_members": ("carriers_scanned", lambda args, result: len(args[0].carrier)),
    "complexes.gf2_rank": ("rows", lambda args, result: len(args[0])),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [t[0] for t in TARGETS]
        self.spans: list = []  # [name index, start, end, parent index, item]
        self.counts: dict[str, int] = {}
        self.item = -1
        self._stack: list[int] = []

    def _wrap(self, index: int, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(self.names[index])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(me)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                key = f"{self.names[index]}.{counter[0]}"
                self.counts[key] = self.counts.get(key, 0) + counter[1](args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; call only once per process."""
        modules = {m: sys.modules[f"localh.{m}"] for m in MODULES}
        for index, (_, module, owner, attr, _) in enumerate(TARGETS):
            mod = modules[module]
            if owner is None:
                original = getattr(mod, attr)
                wrapper = self._wrap(index, original)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").startswith("localh"):
                        for key, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, key, wrapper)
            else:
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(index, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(index, raw))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Metric name to (value, unit) over every span recorded."""
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            calls[index] += 1
            inclusive[index] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = {module: 0.0 for module in MODULES}
        for i, (index, start, end, _, _) in enumerate(self.spans):
            self_s[self.names[index].split(".")[0]] += end - start - child[i]
        out: dict[str, tuple[float, str]] = {}
        for index, (prefix, _, _, _, wanted) in enumerate(TARGETS):
            for m in wanted:
                if m == "calls":
                    out[f"{prefix}.calls"] = (calls[index], "count")
                elif m == "s":
                    out[f"{prefix}.s"] = (inclusive[index], "s")
                else:
                    out[f"{prefix}.{m}"] = (self.counts.get(f"{prefix}.{m}", 0), "count")
        for module in MODULES:
            out[f"layer.{module}.self_s"] = (self_s[module], "s")
        return out

    def write(self, path: str):
        """All spans as gzipped JSON: span names plus one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)
