"""Per-layer spans recorded from outside the program.

``Recorder.install()`` replaces each traced bifrac function by a timing
wrapper in every module namespace that holds it, so each lookup site is
wrapped (``bifrac.gpsim.cov`` and ``bifrac.inequality.cov`` are separate
lookups that both count as ``kernel.cov``).  Methods are wrapped on their
class.  ``uninstall()`` restores the originals.

A span's self time is its duration minus the time of the spans nested in
it on the same thread.  Spans on ``gap_mc`` worker threads overlap their
caller, so they count toward their own totals but not toward
``main_self_s``, the main-thread self times, which add up to the time
spent inside ``cli.main``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict

# (module, qualified name, metric prefix, kind).  "span" records time and
# calls; "count" records calls only, for leaf functions called ~1e6 times
# per pass whose time belongs to their caller's self time.
TARGETS = (
    ("bifrac.kernel", "cov", "kernel.cov", "count"),
    ("bifrac.kernel", "TimeGrid.regular", "kernel.TimeGrid", "span"),
    ("bifrac.gpsim", "build_cov_matrix", "gpsim.build_cov_matrix", "span"),
    ("bifrac.gpsim", "check_psd", "gpsim.check_psd", "span"),
    # The private _factor is where sample_paths (and cholesky_factor) spend
    # their Cholesky time.
    ("bifrac.gpsim", "_factor", "gpsim.cholesky_factor", "span"),
    ("bifrac.gpsim", "sample_paths", "gpsim.sample_paths", "span"),
    ("bifrac.gpsim", "PathBatch.to_csv", "gpsim.to_csv", "span"),
    ("bifrac.dists", "dist_from_json", "dists.dist_from_json", "span"),
    ("bifrac.dists", "expect_pair", "dists.expect_pair", "span"),
    ("bifrac.dists", "tail_functional", "dists.tail_functional", "span"),
    ("bifrac.dists", "DiscreteDist.sampler", "dists.sampler", "sampler"),
    ("bifrac.inequality", "gap_exact", "inequality.gap_exact", "span"),
    ("bifrac.inequality", "gap_tail_integral", "inequality.gap_tail_integral", "span"),
    ("bifrac.inequality", "gap_via_variance", "inequality.gap_via_variance", "span"),
    ("bifrac.inequality", "gap_mc", "inequality.gap_mc", "span"),
    ("bifrac.inequality", "_mc_chunk", "inequality.gap_mc.chunk", "span"),
    ("bifrac.bernstein", "bernstein_gap_exact", "bernstein.bernstein_gap_exact", "span"),
    ("bifrac.bernstein", "eval_f", "bernstein.eval_f", "count"),
    ("bifrac.bernstein", "series_identity_check", "bernstein.series_identity_check", "span"),
    ("bifrac.counterexample", "find_violation", "counterexample.find_violation", "span"),
    ("bifrac._rng", "substream", "rng.substream", "count"),
)


class _Tally:
    """Call counter for hot leaf functions.  ``itertools.count.__next__`` is
    one C call, so ticks from several threads are never lost and cost far
    less than taking a lock."""

    def __init__(self):
        self._count = itertools.count()
        self.tick = self._count.__next__
        self._reads = 0

    def value(self) -> int:
        value = next(self._count) - self._reads
        self._reads += 1
        return value


_PAIR_ROUTES = ("inequality.gap_exact", "inequality.gap_tail_integral", "inequality.gap_via_variance")


class Recorder:
    def __init__(self):
        self.s = defaultdict(float)  # name -> inclusive seconds
        self.self_s = defaultdict(float)  # name -> self seconds
        self.main_self_s = 0.0  # self seconds of main-thread spans
        self.calls = defaultdict(int)
        self.tallies = defaultdict(_Tally)
        self.extra = defaultdict(float)  # derived counters (bytes, pairs, ...)
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._patched: list = []

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_dt = (dt - frame[0]) / 1e9
                with self._lock:
                    self.s[name] += dt / 1e9
                    self.self_s[name] += self_dt
                    self.calls[name] += 1
                    if threading.current_thread() is self._main:
                        self.main_self_s += self_dt
            if after is not None:
                after(args, kwargs, result, dt / 1e9)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        tick = self.tallies[name].tick

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key, value):
        with self._lock:
            self.extra[key] += value

    def _after_hooks(self):
        def pairs(args, kwargs, result, dt):
            self._add("inequality.pairs", len(args[0]) ** 2)

        def csv_bytes(args, kwargs, result, dt):
            self._add("gpsim.to_csv.bytes", os.path.getsize(args[1]))

        def mc_capacity(args, kwargs, result, dt):
            workers = kwargs.get("workers", args[4] if len(args) > 4 else 1)
            self._add("inequality.gap_mc.capacity_s", workers * dt)

        def steps(args, kwargs, result, dt):
            # find_violation doubles M from 2*max(c, 1) until the violation
            # is positive.
            first = 2.0 * max(result.c, 1.0)
            self._add("counterexample.find_violation.steps", round(math.log2(result.M / first)) + 1)

        hooks = {name: pairs for name in _PAIR_ROUTES}
        hooks.update(
            {
                "gpsim.to_csv": csv_bytes,
                "inequality.gap_mc": mc_capacity,
                "counterexample.find_violation": steps,
            }
        )
        return hooks

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        hooks = self._after_hooks()
        modules = [m for n, m in list(sys.modules.items()) if n == "bifrac" or n.startswith("bifrac.")]
        for modname, qualname, name, kind in TARGETS:
            owner = sys.modules.get(modname)
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{qualname}")
                continue
            if kind == "count":
                new = self.counter(name, raw)
            elif kind == "sampler":
                new = self._sampler_wrapper(raw)
            elif isinstance(raw, classmethod):
                new = classmethod(self.span(name, raw.__func__, hooks.get(name)))
            else:
                new = self.span(name, raw, hooks.get(name))
            if cls_name:
                self._set(owner, attr, raw, new)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, raw, new)

    def _sampler_wrapper(self, sampler_method):
        def sampler(dist):
            s = sampler_method(dist)
            return dataclasses.replace(s, draw=self.span("dists.sampler_draw", s.draw))

        return sampler

    def _set(self, owner, key, old, new):
        setattr(owner, key, new)
        self._patched.append((owner, key, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patched):
            setattr(owner, key, old)
        self._patched.clear()


def layer_metrics(rec: Recorder, passes: int) -> dict:
    """Per-pass per-layer figures from a recorder that traced ``passes``
    replays of the command list."""
    span_names = [name for _, _, name, kind in TARGETS if kind == "span"] + [
        "cli.main",
        "dists.sampler_draw",
    ]
    out = {}
    for name in span_names:
        out[f"{name}.s"] = rec.s[name] / passes
        out[f"{name}.self_s"] = rec.self_s[name] / passes
        out[f"{name}.calls"] = rec.calls[name] // passes
    for _, _, name, kind in TARGETS:
        if kind == "count":
            out[f"{name}.calls"] = rec.tallies[name].value() // passes
    for key in ("inequality.pairs", "gpsim.to_csv.bytes", "counterexample.find_violation.steps"):
        out[key] = int(rec.extra[key]) // passes
    out["inequality.gap_mc.chunks"] = out.pop("inequality.gap_mc.chunk.calls")
    capacity = rec.extra["inequality.gap_mc.capacity_s"]
    out["inequality.gap_mc.busy_ratio"] = rec.s["inequality.gap_mc.chunk"] / capacity if capacity else 0.0
    return out
