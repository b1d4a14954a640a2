"""Span tracer for pcrefine's public layer functions, kept outside the package.

`Tracer.install()` replaces every listed function at each `pcrefine.*`
module attribute bound to it, so both `from .x import y` call sites and
calls inside the defining module are recorded. Spans (name, start, end,
parent, counters) stay in memory until `dump()`. A listed function that the
package no longer defines is reported in `absent` instead of failing.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Layer module -> public functions traced in it.
TARGETS = {
    "embeddings": ("load_embeddings",),
    "prototypes": ("pool_by_class", "masked_pool"),
    "selection": ("predicted_prototypes", "prototype_agreement",
                  "select_pseudo_labels", "merge_into_background"),
    "infill": ("context_prototypes", "infill", "pairwise_cosine"),
    "pipeline": ("refine_labels",),
    "scene": ("voxelize",),
    "scene_io": ("load_scene", "save_scene", "load_labels", "save_labels"),
    "mix": ("mix", "crop_novel", "translate_and_align"),
    "metrics": ("accumulate",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_read(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path), "key": str(path)}


def _file_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# Counters taken at the boundary of a call, from its arguments and result.
COUNTERS = {
    "embeddings.load_embeddings": _file_read,
    "scene_io.load_scene": _file_read,
    "scene_io.load_labels": _file_read,
    "scene_io.save_scene": _file_written,
    "scene_io.save_labels": _file_written,
    "prototypes.pool_by_class":
        lambda a, k, r: {"bytes": _arg(a, k, 0, "features").nbytes},
    "infill.pairwise_cosine":
        lambda a, k, r: {"rows": _arg(a, k, 0, "rows").shape[0]},
    "scene.voxelize":
        lambda a, k, r: {"points_in": _arg(a, k, 0, "scene").point_count,
                         "cells_out": r.point_count},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pcrefine" or n.startswith("pcrefine."))]
        for short, names in TARGETS.items():
            home = sys.modules.get(f"pcrefine.{short}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.absent.append(f"{short}.{name}")
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    span["counts_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"absent": self.absent, "spans": self.spans}, f)


def self_times(spans: list[dict]) -> list[float]:
    """Seconds of each span not covered by its direct child spans."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end"] - span["start"]
    return [(s["end"] - s["start"] - c) / 1e9 for s, c in zip(spans, child_ns)]
