"""Outside-in tracing of ``rieszlab``: wrappers at the calls into each layer.

``Tracer.install`` replaces each hooked function at every binding site that
callers look up, i.e. every attribute of a loaded ``rieszlab`` module that
holds the original function object (``rieszlab.energy.sample``,
``rieszlab.cli.rho2_analytic``, ...).  A hook whose target no longer exists
is listed in ``missing`` and its metrics are left out, never reported as 0.
Spans are kept in memory and written out by the caller when the run ends.

Metric names are ``<module>.<function>.<stat>`` with the leading underscore
of ``_fast`` and ``_io`` dropped, because benchmark metric names must start
with a letter.  ``self_s`` is a span's duration minus the time its child
spans cover; ``points``, ``pairs`` and ``cells`` are work counts computed
from the arguments or the result of each call.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass


def _pairs(x) -> int:
    n = len(x)
    return n * (n - 1) // 2


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Hook:
    target: str                   # "<module>.<function>" inside rieszlab
    stats: tuple[str, ...]        # reported: "calls", "self_s" and/or the count name
    count: str | None = None      # work-count name
    counter: object = None        # (args, kwargs, result) -> int
    span: bool = True             # False: count calls only, time stays with the caller

    @property
    def prefix(self) -> str:
        return self.target.lstrip("_")


HOOKS = (
    Hook("generators.sample", ("calls", "self_s", "points"), "points",
         lambda a, k, r: r.n),
    Hook("generators.rho2_analytic", ("calls", "self_s")),
    Hook("_fast.pair_sum", ("calls", "self_s", "pairs"), "pairs",
         lambda a, k, r: _pairs(_arg(a, k, 0, "pts"))),
    Hook("_fast.bin_pairs_signed", ("calls", "self_s", "pairs"), "pairs",
         lambda a, k, r: _pairs(_arg(a, k, 0, "x"))),
    Hook("_fast.bin_pairs_radial", ("calls", "self_s", "pairs"), "pairs",
         lambda a, k, r: _pairs(_arg(a, k, 0, "pts"))),
    Hook("quadrature.point_background", ("calls", "self_s", "points"), "points",
         lambda a, k, r: len(r)),
    Hook("quadrature.box_kernel_integral", ("calls", "self_s")),
    Hook("quadrature.background_pair_integral", ("calls", "self_s")),
    Hook("quadrature.integrate_g_pwlinear", ("calls", "self_s", "cells"), "cells",
         lambda a, k, r: len(_arg(a, k, 1, "nodes")) - 1),
    Hook("energy.hint_R", ("calls", "self_s")),
    Hook("energy.wint_monte_carlo", ("self_s",)),
    Hook("energy.wint_from_rho2", ("calls", "self_s")),
    Hook("energy.wint_lattice_series", ("self_s",)),
    Hook("energy.richardson", ("calls", "self_s")),
    Hook("estimators.estimate_rho2", ("self_s",)),
    Hook("estimators.number_variance_curve", ("self_s",)),
    Hook("estimators.dlog_estimate", ("self_s",)),
    Hook("estimators.tv_lower_bound", ("calls", "self_s")),
    Hook("onedim.kth_neighbor_density", ("calls", "self_s")),
    Hook("onedim.crystallization_gap", ("self_s",)),
    Hook("onedim.free_energy_scan", ("self_s",)),
    Hook("onedim.renewal_entropy_rate", ("calls", "self_s")),
    Hook("lpx.minimize_t2", ("calls", "self_s")),
    Hook("lpx.evaluate_candidate", ("self_s",)),
    Hook("lpx.cosine_transform", ("calls",), span=False),
    Hook("cli.run", ("self_s",)),
    Hook("_io.write_csv", ("self_s",)),
    Hook("_io.write_json", ("self_s",)),
    Hook("_io.sha256_file", ("self_s",)),
)

# metrics that do not belong to one hook; see README.md
EXTRA_METRICS = {
    "energy.discarded_frac": "fraction",
    "other.self_s": "s",
    "trace.overhead_frac": "fraction",
    "error_rate": "fraction",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for hook in HOOKS:
        for stat in hook.stats:
            units[f"{hook.prefix}.{stat}"] = "s" if stat == "self_s" else "count"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Records spans ``(name, start, end, parent, experiment)`` and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.experiment = -1
        self._stack: list[int] = []

    def install(self, hooks=HOOKS) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rieszlab" or name.startswith("rieszlab."))]
        for hook in hooks:
            mod_name, _, fn_name = hook.target.rpartition(".")
            original = getattr(sys.modules.get(f"rieszlab.{mod_name}"), fn_name, None)
            if not callable(original):
                self.missing.append(hook.target)
                continue
            wrapper = self._wrap(hook, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, hook: Hook, fn):
        name = hook.prefix
        count_key = f"{name}.{hook.count}" if hook.count else None

        def record_count(args, kwargs, result) -> None:
            try:
                n = int(hook.counter(args, kwargs, result))
            except Exception:  # a renamed argument or result field: no number
                if count_key not in self.missing:
                    self.missing.append(count_key)
                return
            self.counts[count_key] = self.counts.get(count_key, 0) + n

        if not hook.span:
            calls_key = f"{name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[calls_key] = self.counts.get(calls_key, 0) + 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.experiment))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.experiment)
            if count_key is not None:
                record_count(args, kwargs, result)
            return result

        return traced


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(idx, ())]
        out.append((end - start) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def pass_metrics(spans, counts: dict, wall: tuple[float, float],
                 missing=(), hooks=HOOKS) -> dict[str, float]:
    """Per-hook metrics of one traced pass, plus ``other.self_s``: the part
    of the ``wall`` interval ``(first start, last end)`` no span covers.
    Metrics of hooks or counts listed in ``missing`` are left out."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, *_), st in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
    out: dict[str, float] = {}
    for hook in hooks:
        if hook.target in missing:
            continue
        name = hook.prefix
        for stat in hook.stats:
            key = f"{name}.{stat}"
            if key in missing:
                continue
            if stat == "self_s":
                out[key] = self_s.get(name, 0.0)
            elif stat == "calls":
                out[key] = calls.get(name, 0) if hook.span else counts.get(key, 0)
            else:
                out[key] = counts.get(key, 0)
    roots = [(max(s, wall[0]), min(e, wall[1])) for _, s, e, parent, _ in spans
             if parent < 0]
    out["other.self_s"] = (wall[1] - wall[0]) - _covered([r for r in roots if r[1] > r[0]])
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes; counts keep a value
    that was actually counted."""
    return {k: (statistics.median if k.endswith("_s") else statistics.median_low)(
                [p[k] for p in per_pass]) for k in per_pass[0]}
