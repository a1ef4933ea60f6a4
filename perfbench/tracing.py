"""Spans around the layers' public entry points, recorded from outside obtri.

``Tracer.installed()`` replaces each entry point with a wrapper in every
``obtri`` module that holds a reference to it (``from x import y`` copies
the reference), and puts the originals back on exit.  Source files are not
touched.  Spans are kept in memory as ``Span`` tuples.

A span opened on a worker thread with no open span of its own is parented
to the innermost open span of the main thread: the call that started the
pool (``estimate`` at ``workers > 1``).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from contextlib import contextmanager
from statistics import median
from time import perf_counter
from typing import NamedTuple

from obtri import bounds, cli, constructions, geometry, mc, search, specfun, sphere


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict


MC_ENGINE = ("mc.estimate", "constructions.mc_self_similar")

# Sampler entry points: every sampler's ``sample``, plus the self-similar
# sampler's ``sample_with_levels``, which ``mc_self_similar`` calls instead.
SAMPLER_METHODS = [(cls, attr) for cls in (
    constructions.SphereSampler, constructions.ArcTripleSampler, constructions.SelfSimilarSampler,
    constructions.SingleArcSampler, constructions.MixtureSampler,
) for attr in ("sample", "sample_with_levels") if attr in vars(cls)]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# (module, attribute, span name, attributes from the arguments, attributes from the result)
FUNCTIONS = [
    (cli, "main", "cli.main", lambda a, k: {"command": (_arg(a, k, 0, "argv") or ["?"])[0]}, None),
    (geometry, "classify_batch", "geometry.classify_batch",
     lambda a, k: {"triples": len(a[0]), "dim": a[0].shape[-1]}, None),
    (geometry, "count_classes", "geometry.count_classes", None, None),
    (mc, "estimate", "mc.estimate", lambda a, k: {"workers": k.get("workers", 1)}, None),
    (constructions, "mc_self_similar", "constructions.mc_self_similar", None, None),
    (bounds, "limit_bound", "bounds.limit_bound", None, lambda r: {"records": len(r.records)}),
    (specfun, "integrate", "specfun.integrate", None, lambda r: {"evaluations": r.evaluations}),
    (sphere, "obtuse_prob_sphere", "sphere.obtuse_prob_sphere", lambda a, k: {"d": _arg(a, k, 0, "d")}, None),
    (search, "search_min", "search.search_min", None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            main_stack = self._stacks.get(self._main) or [None]
            parent = stack[-1] if stack else main_stack[-1]
            attrs = before(args, kwargs) if before else {}
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, attrs))
            if after:
                attrs.update(after(result))
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        patches = []  # (owner, attribute, original)
        for module, attr, name, before, after in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, before, after)
            for mod in [m for key, m in sys.modules.items() if key == "obtri" or key.startswith("obtri.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for cls, attr in SAMPLER_METHODS:
            original = vars(cls)[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap("constructions.sample", original,
                                          lambda a, k: {"kind": type(a[0]).__name__}))
        try:
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def self_s(*names):
        return sum(own[s.id] for s in spans if s.name in names)

    def parent_name(s):
        return by_id[s.parent].name if s.parent in by_id else None

    evaluations = {}
    for s in spans:
        if s.name == "specfun.integrate" and parent_name(s) == "sphere.obtuse_prob_sphere":
            evaluations.setdefault(by_id[s.parent].attrs["d"], s.attrs["evaluations"])
    out = {
        "constructions.sample.self_s": self_s("constructions.sample"),
        "geometry.classify_batch.calls": sum(s.name == "geometry.classify_batch" for s in spans),
        "geometry.classify_batch.self_s": self_s("geometry.classify_batch"),
        "geometry.count_classes.s": sum(s.end - s.start for s in spans if s.name == "geometry.count_classes"),
        "mc.estimate.shards": sum(s.name == "constructions.sample" and parent_name(s) in MC_ENGINE
                                  for s in spans),
        "mc.estimate.overhead_s": self_s(*MC_ENGINE),
        "bounds.limit_bound.self_s": self_s("bounds.limit_bound"),
        "bounds.limit_bound.records": sum(s.attrs.get("records", 0) for s in spans
                                          if s.name == "bounds.limit_bound"),
        "specfun.integrate.self_s": self_s("specfun.integrate"),
        "cli.main.overhead_s": self_s("cli.main"),
    }
    for d in (3, 10, 80):
        out[f"specfun.integrate.evaluations.d{d}"] = evaluations.get(d, 0)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(m[key] for m in per_pass) for key in per_pass[0]}
