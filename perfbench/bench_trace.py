"""Per-layer spans and counters for the traced benchmark run.

Spans are recorded from outside the program: each public function is
wrapped where the importing module looks it up (``rflowlab.sections.
first_crossing``, ``rflowlab.rsets.orbit_batch``, ...), the two distance
methods and the report writers are wrapped on their classes, and every flow
that ``cli.get_flow`` hands out gets a counting ``field``. ``uninstall``
puts every original back, so untraced rounds run the unmodified program.

A span's self time is its duration minus the time its nested spans cover;
``.s`` metrics are inclusive, ``.self_s`` metrics are self time.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

# per-layer metric name -> (unit, better); the order is the report order
PER_LAYER = {
    "flows.field.calls": ("count", "lower"),
    "flows.field.points": ("count", "lower"),
    "flows.field.points_per_call": ("points/call", "higher"),
    "flows.field.s": ("s", "lower"),
    "integrate.first_crossing.calls": ("count", "lower"),
    "integrate.first_crossing.s": ("s", "lower"),
    "integrate.flow_map.calls": ("count", "lower"),
    "integrate.flow_map.s": ("s", "lower"),
    "integrate.orbit_batch.calls": ("count", "lower"),
    "integrate.orbit_batch.points": ("count", "lower"),
    "integrate.orbit_batch.s": ("s", "lower"),
    "geometry.displacement.calls": ("count", "lower"),
    "geometry.displacement.s": ("s", "lower"),
    "geometry.distance_array.calls": ("count", "lower"),
    "geometry.distance_array.pairs": ("count", "lower"),
    "geometry.distance_array.pairs_per_call": ("pairs/call", "higher"),
    "geometry.distance_array.s": ("s", "lower"),
    "sections.holonomy.calls": ("count", "lower"),
    "sections.holonomy.self_s": ("s", "lower"),
    "rsets.compute_rset.calls": ("count", "lower"),
    "rsets.compute_rset.self_s": ("s", "lower"),
    "rsets.cell_steps": ("count", "lower"),
    "rsets.stragglers": ("count", "lower"),
    "rsets.stragglers_per_cell_step": ("ratio", "lower"),
    "rsets.connected_component.s": ("s", "lower"),
    "entropy.entropy_estimate.self_s": ("s", "lower"),
    "cli.output_s": ("s", "lower"),
    "entropy.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _rows(a):
    """Number of points in a ``(..., d)`` coordinate array."""
    return math.prod(np.shape(a)[:-1])


def _pairs(p, q):
    """Number of distances a ``distance_array(p, q)`` call returns."""
    return math.prod(np.broadcast_shapes(np.shape(p)[:-1], np.shape(q)[:-1]))


class Tracer:
    """Span timings and work counters, kept in memory for one round."""

    def __init__(self):
        self._patches = []
        self._flows = {}
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._child = []          # per open span: time covered by its children

    def span(self, name, fn, count=None):
        """Wrap ``fn`` in a span; ``count(*args)`` returns counter increments."""
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if count is not None:
                for key, n in count(*args, **kwargs):
                    self.counters[key] += n
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child.pop()
                self.total_s[name] += dt
                self.self_s[name] += dt - child
                if self._child:
                    self._child[-1] += dt
        return traced

    def _patch(self, owner, attr, name, count=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, count))

    def _traced_flow(self, get_flow):
        def traced_get_flow(name):
            if name not in self._flows:
                flow = get_flow(name)
                field = self.span(
                    "flows.field", flow.field,
                    lambda c: (("flows.field.points", _rows(c)),))
                self._flows[name] = replace(flow, field=field)
            return self._flows[name]
        return traced_get_flow

    def install(self):
        """Wrap the program's layer boundaries until ``uninstall``."""
        from rflowlab import cli, entropy, rsets, sections
        from rflowlab.entropy import EntropyReport
        from rflowlab.geometry import ModelManifold
        from rflowlab.rsets import RSetGrid

        def batch_points(f, coords, *a, **k):
            return (("integrate.orbit_batch.points", _rows(coords)),)

        def rset_batch_points(f, coords, *a, **k):
            n = _rows(coords)
            return (("integrate.orbit_batch.points", n),
                    ("rsets.cell_steps", n))

        self._patch(cli, "holonomy", "sections.holonomy")
        self._patch(cli, "compute_rset", "rsets.compute_rset")
        self._patch(cli, "entropy_estimate", "entropy.entropy_estimate")
        self._patch(cli, "_write_csv", "cli.output")
        self._patch(cli, "_write_json", "cli.output")
        self._patches.append((cli, "get_flow", cli.get_flow))
        cli.get_flow = self._traced_flow(cli.get_flow)

        self._patch(sections, "first_crossing", "integrate.first_crossing")
        self._patch(sections, "flow_map", "integrate.flow_map")
        self._patch(sections, "orbit_batch", "integrate.orbit_batch",
                    batch_points)
        self._patch(rsets, "first_crossing", "integrate.first_crossing",
                    lambda *a, **k: (("rsets.stragglers", 1),))
        self._patch(rsets, "orbit_batch", "integrate.orbit_batch",
                    rset_batch_points)
        self._patch(rsets, "connected_component", "rsets.connected_component")
        self._patch(entropy, "orbit_batch", "integrate.orbit_batch",
                    batch_points)

        self._patch(ModelManifold, "displacement", "geometry.displacement")
        self._patch(ModelManifold, "distance_array", "geometry.distance_array",
                    lambda m, p, q: (("geometry.distance_array.pairs",
                                      _pairs(p, q)),))
        self._patch(RSetGrid, "to_csv", "cli.output")
        for attr in ("to_csv", "to_json", "to_dat"):
            self._patch(EntropyReport, attr, "cli.output")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._flows.clear()

    def snapshot(self):
        """This round's counters (exact) and span seconds."""
        counts = {f"{n}.calls": self.calls[n] for n in _CALLS}
        counts.update((k, self.counters[k]) for k in _COUNTERS)
        seconds = {f"{n}.s": self.total_s[n] for n in _INCLUSIVE}
        seconds.update((f"{n}.self_s", self.self_s[n]) for n in _SELF)
        seconds["cli.output_s"] = self.total_s["cli.output"]
        return counts, seconds


_CALLS = ("flows.field", "integrate.first_crossing", "integrate.flow_map",
          "integrate.orbit_batch", "geometry.displacement",
          "geometry.distance_array", "sections.holonomy", "rsets.compute_rset")
_COUNTERS = ("flows.field.points", "integrate.orbit_batch.points",
             "geometry.distance_array.pairs", "rsets.cell_steps",
             "rsets.stragglers")
_INCLUSIVE = ("flows.field", "integrate.first_crossing", "integrate.flow_map",
              "integrate.orbit_batch", "geometry.displacement",
              "geometry.distance_array", "rsets.connected_component")
_SELF = ("sections.holonomy", "rsets.compute_rset", "entropy.entropy_estimate")


def ratios(counts):
    """Derived per-call and per-step ratios (0 where the base is 0)."""
    def div(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0
    return {
        "flows.field.points_per_call":
            div("flows.field.points", "flows.field.calls"),
        "geometry.distance_array.pairs_per_call":
            div("geometry.distance_array.pairs",
                "geometry.distance_array.calls"),
        "rsets.stragglers_per_cell_step":
            div("rsets.stragglers", "rsets.cell_steps"),
    }
