"""Per-layer spans, timed from outside qcl around calls into each layer.

A layer is a set of entry points.  Each is wrapped under the name its
calling module binds (``qcl.navigation.eig_sym`` as well as
``qcl.landscape.eig_sym``), so a call is seen whichever module makes it.
Spans (layer, start, end, parent) are kept in memory and written out when
the run ends; a span's self time is its duration minus the time its child
spans cover.  A layer none of whose entry points exists any more is
reported absent: its metrics are left out, never reported as zero.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer -> entry points.  "module:name" is a module global; "module:*.name"
# is that method on every class the module defines.
LAYERS = {
    "optimizer.minimize": ("qcl.optimizer:minimize",),
    "models.cost": ("qcl.models:*.infidelity_of",),
    "models.gradient": ("qcl.optimizer:gradient_of", "qcl.models:gradient_of"),
    "models.hessian": ("qcl.navigation:hessian_of", "qcl.optimizer:hessian_of",
                       "qcl.models:hessian_of"),
    "models.stencil": ("qcl.navigation:chain_stencil_cost",),
    "landscape.fd_hessian": ("qcl.navigation:fd_hessian",),
    "landscape.eig_sym": ("qcl.navigation:eig_sym", "qcl.landscape:eig_sym"),
    "landscape.classify_null": ("qcl.navigation:classify_null",
                                "qcl.landscape:classify_null"),
    "navigation.navigate": ("qcl.navigation:navigate",),
    "navigation.project": ("qcl.navigation:project",),
    "navigation.direction": ("qcl.navigation:*.direction",),
    "control.field": ("qcl.navigation:ControlField", "qcl.optimizer:ControlField"),
    "objectives.cost": ("qcl.objectives:*.cost_of",),
    "objectives.gradient": ("qcl.objectives:*.gradient_of",),
}

# per-layer metrics beyond <layer>.calls and <layer>.self_s, with their units
EXTRA_METRICS = {
    "optimizer.iterations": "count",
    "optimizer.useful_iter_frac": "ratio",
    "models.stencil.points": "count",
    "landscape.eig_sym.p50_ms": "ms",
    "landscape.eig_sym.p90_ms": "ms",
    "landscape.eig_sym.p90_ms_1thread": "ms",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _resolve(target):
    """(owner, attribute) pairs a target names; empty if none exists now."""
    module_name, attr = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if not attr.startswith("*."):
        return [(module, attr)] if hasattr(module, attr) else []
    method = attr[2:]
    return [(cls, method) for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module_name
            and method in vars(cls)]


class Tracer:
    """Records spans while installed; computes per-layer metrics afterwards."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.targets = []
        self.absent = []
        self.unbound = []
        for lid, (layer, targets) in enumerate(LAYERS.items()):
            found = []
            for target in targets:
                pairs = _resolve(target)
                if not pairs:
                    self.unbound.append(target)
                found += [(owner, attr, lid) for owner, attr in pairs]
            if not found:
                self.absent.append(layer)
            self.targets += found
        self.layer = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.iterations = 0
        self.useful_iterations = 0
        self.stencil_points = 0

    def _span(self, lid, fn, after=None):
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(lid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _count_iterations(self, args, report):
        self.iterations += report.iterations
        if report.converged:
            self.useful_iterations += report.iterations

    def _count_points(self, args, result):
        # evaluate(point, singles_idx, singles_val, pairs_i, ...): the centre,
        # every single and every pair is one stencil point
        self.stencil_points += 1 + len(args[1]) + len(args[3])

    def _wrap(self, lid, fn):
        layer = self.layers[lid]
        if layer == "models.stencil":
            def factory(*args, **kwargs):
                return self._span(lid, fn(*args, **kwargs), after=self._count_points)
            return factory
        if layer == "optimizer.minimize":
            return self._span(lid, fn, after=self._count_iterations)
        return self._span(lid, fn)

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, lid in self.targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(lid, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _arrays(self):
        return (np.asarray(self.layer, dtype=int), np.asarray(self.parent, dtype=int),
                np.asarray(self.start), np.asarray(self.end))

    def metrics(self) -> dict:
        """{name: value} for every per-layer metric except the run-level ones."""
        layer, parent, start, end = self._arrays()
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        self_s = dur - covered
        out = {}
        for lid, name in enumerate(self.layers):
            if name in self.absent:
                continue
            sel = layer == lid
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.self_s"] = float(self_s[sel].sum())
        if "optimizer.minimize" not in self.absent:
            out["optimizer.iterations"] = self.iterations
            out["optimizer.useful_iter_frac"] = (self.useful_iterations / self.iterations
                                                 if self.iterations else 0.0)
        if "models.stencil" not in self.absent:
            out["models.stencil.points"] = self.stencil_points
        if "landscape.eig_sym" not in self.absent:
            # no calls on a workload: 0, there is no sample to take a percentile of
            ms = dur[layer == self.layers.index("landscape.eig_sym")] * 1e3
            p50, p90 = np.percentile(ms, [50, 90]) if ms.size else (0.0, 0.0)
            out["landscape.eig_sym.p50_ms"] = float(p50)
            out["landscape.eig_sym.p90_ms"] = float(p90)
        return out

    def save(self, path):
        """Write every span recorded so far."""
        layer, parent, start, end = self._arrays()
        np.savez_compressed(path, layers=np.array(self.layers), layer=layer,
                            parent=parent, start=start, end=end)
