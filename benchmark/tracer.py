"""Span tracer and I/O-tally log that instrument invcount from outside.

Nothing under ``src/`` knows about either.  Both install replacements on
the attributes that callers look names up by (module globals and class
attributes) and put the originals back when their ``Patches`` is restored.

* ``TallyLog`` records every ``IoTally`` created through the names that
  ``counting`` and ``approx`` use, so the modeled I/O of a call is known
  even when the estimator builds its tallies internally.  It adds no work
  inside the program's loops and is installed in the timed runs too.
* ``Tracer`` records one span per call of a wrapped function (name,
  parent span, start, end, and a few counts taken at the boundary) and
  counts ``PointSet`` constructions.  Spans stay in memory; the caller
  writes them out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import invcount
from invcount import approx, cells, core, counting, cuttings, iomodel

#: Per-layer metrics of one traced call: name -> (unit, better).
LAYER_METRICS = {
    "core.reduce.s": ("s", "lower"),
    "core.pointsets": ("count", "lower"),
    "cuttings.build.calls": ("count", "lower"),
    "cuttings.build.points": ("count", "lower"),
    "cuttings.build.s": ("s", "lower"),
    "cuttings.classify.s": ("s", "lower"),
    "cells.build.calls": ("count", "lower"),
    "cells.build.failed": ("count", "lower"),
    "cells.build.self_s": ("s", "lower"),
    "cells.cells": ("count", "lower"),
    "cells.size_ratio": ("ratio", "lower"),
    "cells.io_blocks": ("blocks", "lower"),
    "counting.rounds": ("count", "lower"),
    "counting.rounds_failed": ("count", "lower"),
    "counting.failed_io_share": ("ratio", "lower"),
    "counting.distribute.calls": ("count", "lower"),
    "counting.distribute.self_s": ("s", "lower"),
    "counting.distribute.io_blocks": ("blocks", "lower"),
    "counting.leaf.calls": ("count", "lower"),
    "counting.leaf.points": ("count", "lower"),
    "counting.leaf.s": ("s", "lower"),
    "counting.capped_ram.s": ("s", "lower"),
    "approx.self_s": ("s", "lower"),
    "approx.sampler.s": ("s", "lower"),
    "approx.samples": ("count", "lower"),
    "approx.hit_ratio": ("ratio", "higher"),
    "iomodel.reads": ("blocks", "lower"),
    "iomodel.writes": ("blocks", "lower"),
}

#: Metrics that change from call to call: times, and the hit ratio of the
#: sampled estimate, whose estimator seed differs per call.  All others are
#: exact counts or ratios of counts and must repeat exactly for one input.
VARYING = {k for k, (unit, _) in LAYER_METRICS.items() if unit == "s"} | {"approx.hit_ratio"}

#: Name of the span the harness opens around each top-level call.
ROOT = "call"


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # __dict__ gives the plain function for class attributes, so the
        # restored attribute is exactly what was there before.
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class TallyLog:
    """Every ``IoTally`` created while installed, in creation order."""

    def __init__(self):
        self.tallies: list[iomodel.IoTally] = []
        log = self.tallies

        class LoggedTally(iomodel.IoTally):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                log.append(self)

        self.new = LoggedTally

    def install(self, patches: Patches) -> None:
        for mod in (counting, approx):
            patches.set(mod, "IoTally", self.new)

    def io_since(self, first: int) -> tuple[int, int]:
        """Block reads and writes charged to tallies created at ``first`` or later."""
        new = self.tallies[first:]
        return sum(t.reads for t in new), sum(t.writes for t in new)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _cells_info(args, kwargs, out) -> dict:
    if out.failed:
        return {"failed": 1}
    red, blue = _arg(args, kwargs, 0, "red"), _arg(args, kwargs, 1, "blue")
    return {"cells": len(out.cells),
            "size": sum(len(c.red) + len(c.blue) for c in out.cells),
            "size_base": 2 * max(len(red), len(blue))}


def _points_info(args, kwargs, out) -> dict:
    return {"points": len(_arg(args, kwargs, 0, "red")) + len(_arg(args, kwargs, 1, "blue"))}


def _base_info(args, kwargs, out) -> dict:
    return {"points": len(_arg(args, kwargs, 0, "base"))}


def _capped_info(args, kwargs, out) -> dict:
    return {"failed": int(out is None)}


class Tracer:
    """In-memory spans around the public functions of invcount's layers.

    A span is ``[id, parent id, name, start ns, end ns, info dict]``; the
    parent is the innermost span open when it started (-1 for a root).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.pointsets = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **info):
        rec = self._open(name)
        rec[5] = info
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, time.perf_counter_ns(), 0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, tally_pos: int | None = None, info=None):
        def wrapper(*args, **kwargs):
            tally = _arg(args, kwargs, tally_pos, "tally") if tally_pos is not None else None
            io0 = tally.total if tally is not None else 0
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            extra = info(args, kwargs, out) if info else {}
            if tally is not None:
                extra["io"] = tally.total - io0
            rec[5] = extra
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, patches: Patches) -> None:
        """Wrap the layer boundaries where their callers look them up."""
        w = self._wrap
        for mod in (counting, approx):
            patches.set(mod, "build_cells",
                        w("cells.build", mod.build_cells, 3, _cells_info))
        patches.set(counting, "count_capped",
                    w("counting.capped", counting.count_capped, 4, _capped_info))
        patches.set(counting, "count_nonadaptive",
                    w("counting.distribute", counting.count_nonadaptive, 3))
        patches.set(counting, "merge_count_dominance",
                    w("counting.leaf", counting.merge_count_dominance, info=_points_info))
        patches.set(approx, "count_capped_ram",
                    w("counting.capped_ram", approx.count_capped_ram))
        for mod in (invcount, approx):
            patches.set(mod, "reduce_inversions",
                        w("core.reduce", mod.reduce_inversions))
        for side in ("red", "blue"):
            attr = f"build_{side}_cutting"
            patches.set(cells, attr, w("cuttings.build", getattr(cells, attr),
                                       info=_base_info))
        sc = cuttings.StaircaseCutting
        patches.set(sc, "classify_many",
                    w("cuttings.classify", sc.__dict__["classify_many"]))
        ps = approx.PairSampler
        # PairSampler.draw is not wrapped: it calls draw_many, which is.
        patches.set(ps, "__init__", w("approx.sampler", ps.__dict__["__init__"]))
        patches.set(ps, "draw_many", w(
            "approx.sampler", ps.__dict__["draw_many"],
            info=lambda a, k, out: {"samples": int(_arg(a, k, 2, "m"))}))
        patches.set(ps, "count_hits", w(
            "approx.sampler", ps.__dict__["count_hits"],
            info=lambda a, k, out: {"hits": int(out)}))

        post_init = core.PointSet.__dict__["__post_init__"]

        def counted_post_init(pointset):
            self.pointsets += 1
            post_init(pointset)

        patches.set(core.PointSet, "__post_init__", counted_post_init)

    def layer_metrics(self, first: int, pointsets: int, io: tuple[int, int]) -> dict:
        """Per-layer metrics of the spans from index ``first`` on (one call).

        ``pointsets`` is the PointSet count of that call and ``io`` its
        modeled (reads, writes).  A self time is a span's duration minus
        the durations of its direct children.
        """
        spans = self.spans[first:]
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, t0, t1, _ in spans:
            child_ns[parent] += t1 - t0
        m = dict.fromkeys(LAYER_METRICS, 0)
        size = size_base = failed_io = samples = hits = 0
        for sid, _, name, t0, t1, info in spans:
            dur = (t1 - t0) / 1e9
            self_s = dur - child_ns[sid] / 1e9
            info = info or {}
            if name == "core.reduce":
                m["core.reduce.s"] += dur
            elif name == "cuttings.build":
                m["cuttings.build.calls"] += 1
                m["cuttings.build.points"] += info["points"]
                m["cuttings.build.s"] += dur
            elif name == "cuttings.classify":
                m["cuttings.classify.s"] += dur
            elif name == "cells.build":
                m["cells.build.calls"] += 1
                m["cells.build.failed"] += info.get("failed", 0)
                m["cells.build.self_s"] += self_s
                m["cells.cells"] += info.get("cells", 0)
                m["cells.io_blocks"] += info["io"]
                size += info.get("size", 0)
                size_base += info.get("size_base", 0)
            elif name == "counting.capped":
                m["counting.rounds"] += 1
                m["counting.rounds_failed"] += info["failed"]
                failed_io += info["io"] if info["failed"] else 0
            elif name == "counting.distribute":
                m["counting.distribute.calls"] += 1
                m["counting.distribute.self_s"] += self_s
                m["counting.distribute.io_blocks"] += info["io"]
            elif name == "counting.leaf":
                m["counting.leaf.calls"] += 1
                m["counting.leaf.points"] += info["points"]
                m["counting.leaf.s"] += dur
            elif name == "counting.capped_ram":
                m["counting.capped_ram.s"] += dur
            elif name == "approx.sampler":
                m["approx.sampler.s"] += dur
                samples += info.get("samples", 0)
                hits += info.get("hits", 0)
            elif name == ROOT and info.get("estimate"):
                m["approx.self_s"] += self_s
        total_io = io[0] + io[1]
        m["core.pointsets"] = pointsets
        m["cells.size_ratio"] = size / size_base if size_base else 0.0
        m["counting.failed_io_share"] = failed_io / total_io if total_io else 0.0
        m["approx.samples"] = samples
        m["approx.hit_ratio"] = hits / samples if samples else 0.0
        m["iomodel.reads"], m["iomodel.writes"] = io
        return m
