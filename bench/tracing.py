"""Spans around the public functions of each rpos layer, recorded from outside.

`Tracer.installed()` replaces every public function defined in a layer
module with a timing wrapper, in every rpos namespace that holds it (so the
names `rpos.cli` and `rpos.reciprocal` import directly are wrapped too), and
restores the originals on exit. Spans stay in memory; `round_metrics`
turns one round's spans into the per-layer table and `dump` writes them all
out. `core` is not wrapped: its constructors validate kernels inside every
other layer, so its time falls into the calling layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "models", "spectral", "condition_g", "reciprocal", "transforms")
NAMESPACES = ("rpos", "rpos.core") + tuple(f"rpos.{layer}" for layer in LAYERS)
#: Functions whose inclusive time is a metric of its own, named <layer>.<func>_s.
TIMED = (
    ("models", "build_pds_kernel"),
    ("models", "uniformized_exponential"),
    ("models", "girsanov_check"),
    ("models", "mc_feynman_kac"),
    ("spectral", "power_iterate"),
    ("spectral", "measure_eq3"),
    ("spectral", "skeleton_analysis"),
)
#: A profile step is useful while it lies above this share of the peak;
#: below it the eq3 profile runs along the round-off plateau.
EQ3_USEFUL_REL = 1e-12


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    layer: str
    func: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rpos.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj))
        patched = []
        for ns_name in NAMESPACES:
            ns = importlib.import_module(ns_name)
            for name, obj in list(vars(ns).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(ns, name, entry[1])
                    patched.append((ns, name, obj))
        try:
            yield self
        finally:
            for ns, name, obj in reversed(patched):
                setattr(ns, name, obj)

    def _wrap(self, layer, fn):
        count = _COUNTERS.get((layer, fn.__name__))
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(
                id=len(self.spans),
                parent=parent.id if parent else None,
                op=self.op,
                layer=layer,
                func=fn.__name__,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        return wrapper

    def round_metrics(self, first_span: int) -> dict:
        """Per-layer metrics of the spans recorded since index `first_span`."""
        spans = self.spans[first_span:]
        by_id = {s.id: s for s in spans}
        metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        metrics.update({f"{layer}.{func}_s": 0.0 for layer, func in TIMED})
        totals = {"iterations": 0, "path_steps": 0, "eq3_steps": 0, "eq3_useful": 0}
        for s in spans:
            metrics[f"{s.layer}.self_s"] += (s.end - s.start) - s.child_s
            key = f"{s.layer}.{s.func}_s"
            if key in metrics and not _inside_same(s, by_id):
                metrics[key] += s.end - s.start
            for name, value in s.counts.items():
                totals[name] += value
        mc_s = metrics["models.mc_feynman_kac_s"]
        metrics["models.mc_path_steps_per_s"] = totals["path_steps"] / mc_s if mc_s else 0.0
        metrics["spectral.power_iterations"] = totals["iterations"]
        steps = totals["eq3_steps"]
        metrics["spectral.eq3_useful_step_ratio"] = totals["eq3_useful"] / steps if steps else 0.0
        return metrics

    def dump(self, path):
        rows = [
            {
                "id": s.id, "parent": s.parent, "op": s.op, "layer": s.layer, "func": s.func,
                "start": s.start, "end": s.end, "self_s": (s.end - s.start) - s.child_s,
                **s.counts,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))


def _inside_same(span, by_id):
    """True when an enclosing span is a call of the same function."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.func == span.func and parent.layer == span.layer:
            return True
        parent = by_id.get(parent.parent)
    return False


def _power_iterations(args, triple):
    return {"iterations": triple.iterations}


def _eq3_steps(args, report):
    errors = report.errors
    peak = float(errors.max()) if errors.size else 0.0
    return {
        "eq3_steps": int(errors.size),
        "eq3_useful": int((errors > EQ3_USEFUL_REL * peak).sum()),
    }


def _mc_path_steps(args, estimate):
    model = args["model"]
    if hasattr(model, "noise_sd"):  # map model: one exact step per unit of horizon
        steps = int(args["horizon"])
    else:  # diffusion: Euler substeps, as mc_feynman_kac rounds them
        steps = max(1, round(float(args["horizon"]) / args["substep"]))
    return {"path_steps": steps * int(args["n_traj"])}


_COUNTERS = {
    ("spectral", "power_iterate"): _power_iterations,
    ("spectral", "measure_eq3"): _eq3_steps,
    ("models", "mc_feynman_kac"): _mc_path_steps,
}
