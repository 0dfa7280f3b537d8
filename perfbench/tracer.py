"""Span tracing of dustlab's public functions, installed from outside the package.

Each traced call records a span (name, start, end, parent).  Spans stay in
memory until the run ends; ``summary`` turns them into per-function call
counts, total and self times (a span minus its child spans) and the work
counts of ``WORK``, all named ``<module>.<function>.<field>``;
``layer_metrics`` turns those totals into the reported metrics.

Work counts ``cells_in``, ``cells_out`` and ``bytes`` are computed from array
and string sizes (one byte per bool cell or text character), not measured
traffic.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

#: Public functions traced, by defining module.  Every dustlab module that
#: binds one of them by name (``from .boxdim import box_counts``) is patched.
FUNCTIONS = {
    "cantor": ("generate_cantor", "scale_and_place"),
    "geometry": ("rasterize", "rasterize_quads", "grid_intersection", "quads_disjoint"),
    "boxdim": ("box_counts", "find_full_dimension_point", "clip_to_ball"),
    "composite": ("place_cantor_in_annulus", "build_annuli", "assemble_composite"),
    "intersect": ("intersection_dimension", "apply_isometry", "mattila_survey"),
    "john": ("verify_john", "distance_to_squares", "ring_of_point", "point_in_approximant",
             "build_john_path", "densify_polyline"),
    "formats": ("dump_bgr", "parse_bgr", "dump_cad"),
    "cli": ("main",),
}

#: Methods traced on their class, as (module, class, method).
METHODS = (
    ("geometry", "BoxGrid", "downsampled"),
    ("cantor", "CantorApproximant", "leaf_corners"),
)


def _cells_in(args, kwargs, result):
    grid = args[0]
    level = args[1] if len(args) > 1 else kwargs["level"]
    return (grid.bits.size if level < grid.level else 0,)


#: Work counts per traced name: the field names and a function of
#: (args, kwargs, result) giving their values for one call.
WORK = {
    "geometry.downsampled": (("cells_in",), _cells_in),
    "geometry.rasterize_quads": (("quads", "cells_out"),
                                 lambda a, k, r: (np.asarray(a[0]).size // 8, r.bits.size)),
    "john.distance_to_squares": (("pairs",), lambda a, k, r: (len(r) * len(a[1]),)),
    "john.densify_polyline": (("points",), lambda a, k, r: (len(r),)),
    "john.verify_john": (("samples", "unresolved"), lambda a, k, r: (r.samples, r.unresolved)),
    "formats.dump_bgr": (("bytes",), lambda a, k, r: (len(r),)),
    "formats.dump_cad": (("bytes",), lambda a, k, r: (len(r),)),
    "formats.parse_bgr": (("bytes",), lambda a, k, r: (len(a[0]),)),
    "cantor.generate_cantor": (("leaves",), lambda a, k, r: (r.count,)),
    "intersect.mattila_survey": (("trials", "hits"), lambda a, k, r: (r.trials, r.hits)),
}


class Tracer:
    """Records spans for the patched functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.work: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, self.work
        fields, count = WORK.get(name, ((), None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                acc = work.setdefault(name, dict.fromkeys(fields, 0))
                for key, value in zip(fields, count(args, kwargs, result)):
                    acc[key] += int(value)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "dustlab" or n.startswith("dustlab.")) and m is not None]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules[f"dustlab.{mod_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"dustlab.{mod_name}"], cls_name)
            original = vars(cls)[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{mod_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and [name id, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[n], start, end, parent] for n, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))

    def summary(self) -> dict[str, float]:
        """Additive per-process totals: calls, times, work and yield bases.

        Totals from several processes are summed key by key and then turned
        into reported metrics by ``layer_metrics``.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = dict.fromkeys(additive_names(), 0)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
        for name, fields in self.work.items():
            for key, value in fields.items():
                out[f"{name}.{key}"] += value
        names = [s[0] for s in self.spans]

        def children(child: str, parent: str) -> int:
            return sum(1 for name, _, _, p in self.spans
                       if name == child and p >= 0 and names[p] == parent)

        # a placement trial is rasterized, and reaches grid_intersection
        # only when the copy meets the annulus slice
        out["composite.trials_rasterized"] = children(
            "geometry.rasterize_quads", "composite.place_cantor_in_annulus")
        out["composite.trials_reached"] = children(
            "geometry.grid_intersection", "composite.place_cantor_in_annulus")
        # source draws test membership directly under verify_john; the test
        # inside ring_of_point has ring_of_point as parent
        out["john.draws"] = children("john.point_in_approximant", "john.verify_john")
        return out


def traced_names() -> list[str]:
    names = [f"{m}.{f}" for m, fns in FUNCTIONS.items() for f in fns]
    return names + [f"{m}.{meth}" for m, _, meth in METHODS]


def additive_names() -> list[str]:
    out = []
    for name in traced_names():
        out += [f"{name}.calls", f"{name}.total_s", f"{name}.self_s"]
        out += [f"{name}.{field}" for field in WORK.get(name, ((),))[0]]
    return out


#: Functions whose traced callees make total time differ from self time.
WITH_TOTAL = ("boxdim.find_full_dimension_point", "composite.place_cantor_in_annulus",
              "composite.build_annuli", "composite.assemble_composite",
              "intersect.mattila_survey", "john.verify_john", "cli.main")

#: Work fields that are inputs or results rather than work, left out of
#: the reported metrics (they are bases of the yields).
_BASES_ONLY = ("john.verify_john.samples", "intersect.mattila_survey.trials",
               "intersect.mattila_survey.hits", "john.verify_john.unresolved")


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Reported per-layer metrics from summed ``Tracer.summary`` totals."""
    out = {}
    for name in traced_names():
        out[f"{name}.calls"] = totals[f"{name}.calls"]
        out[f"{name}.self_s"] = totals[f"{name}.self_s"]
        if name in WITH_TOTAL:
            out[f"{name}.total_s"] = totals[f"{name}.total_s"]
        for field in WORK.get(name, ((),))[0]:
            key = f"{name}.{field}"
            if key not in _BASES_ONLY:
                out[key] = totals[key]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["composite.trials_rasterized"] = totals["composite.trials_rasterized"]
    out["composite.trial_yield"] = ratio(totals["composite.trials_reached"],
                                         totals["composite.trials_rasterized"])
    out["john.draws"] = totals["john.draws"]
    out["john.draw_yield"] = ratio(totals["john.verify_john.samples"], totals["john.draws"])
    out["john.unresolved"] = totals["john.verify_john.unresolved"]
    out["intersect.hit_ratio"] = ratio(totals["intersect.mattila_survey.hits"],
                                       totals["intersect.mattila_survey.trials"])
    return out
