"""Per-layer tracing for the benchmark, installed from outside the package.

The package binds many functions by name (``from .manifold import
distance_to_manifold`` inside ``simulate``, for example), so wrapping a
function only in the module that defines it would miss most calls.
``Tracer.install`` therefore replaces every module-level binding of each
target function across all ``spde_manifold`` modules, patches methods on
their classes, and wraps the ``eval`` callable of every chart built while
tracing is on.  ``uninstall`` restores the originals, so traced and
untraced batches can alternate in one process.

Each wrapped call is a span.  Spans are aggregated in memory per layer
name as (calls, inclusive seconds, self seconds); self time is the span's
duration minus the time covered by the spans it encloses.  Solver and
work counts (Gauss-Newton iterations, noise entries, Euler steps, states
constructed, artifact bytes) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

# layer name -> targets; "module:function" is a module-level function,
# "module:Class.method" a method patched on that class.
LAYERS = {
    "config.load_config": ["config:load_config"],
    "config.build": [
        "config:build_model",
        "config:build_manifold",
        "config:build_sampling",
        "config:build_sim_config",
    ],
    "hermite.translate": ["hermite:translate"],
    "hermite.derivative": ["hermite:derivative"],
    "geometry.norm_diff": [
        "geometry:HermiteGeometry.norm_diff",
        "geometry:GridGeometry.norm_diff",
    ],
    "geometry.spill_ratio": [
        "geometry:HermiteGeometry.spill_ratio",
        "geometry:GridGeometry.spill_ratio",
    ],
    "models.drift": ["models:ItoTypeModel.drift", "models:PLaplaceModel.drift"],
    "models.diffusion": [
        "models:ItoTypeModel.diffusion",
        "models:PLaplaceModel.diffusion",
    ],
    "models.stratonovich_correction": ["models:stratonovich_correction"],
    "manifold.jacobian": ["manifold:jacobian"],
    "manifold.project": ["manifold:TangentFrame.project"],
    "manifold.bracket": ["manifold:bracket"],
    "manifold.distance": ["manifold:distance_to_manifold"],
    "tangency.reduced_coefficients": ["tangency:reduced_coefficients"],
    "tangency.sweep": ["tangency:sweep"],
    "simulate.wiener_increments": ["simulate:wiener_increments"],
    "simulate.simulate_full": ["simulate:simulate_full"],
    "simulate.simulate_reduced": ["simulate:simulate_reduced"],
    "simulate.coupled_compare": ["simulate:coupled_compare"],
    # the report/record serializers plus the CLI's file writers
    "cli.artifact_write": [
        "tangency:TangencyReport.to_json_dict",
        "tangency:TangencyReport.to_csv_rows",
        "simulate:TrajectoryRecord.to_csv_rows",
        "cli:_write_json",
        "cli:_write_csv",
    ],
}
# charts are closures stored on each Parametrization, wrapped at construction
CHART_EVAL = "manifold.chart_eval"
# constructors counted, not timed
STATE_TYPES = {
    "hermite.states_created": "hermite:SpectralState",
    "grid.states_created": "grid:GridState",
}
SPAN_NAMES = tuple(LAYERS) + (CHART_EVAL,)
PACKAGE = "spde_manifold"


class TraceTargetError(RuntimeError):
    """A traced name no longer exists in the package."""


def _observe_distance(tracer, args, result):
    tracer.counts["manifold.distance.iterations"] += result.iterations
    tracer.counts["manifold.distance.converged"] += int(result.converged)


def _observe_jacobian(tracer, args, result):
    if tracer.active["tangency.sweep"]:
        tracer.counts["tangency.sweep.frames"] += 1


def _observe_sweep(tracer, args, result):
    tracer.counts["tangency.sweep.points"] += int(result.points.shape[0])


def _observe_noise(tracer, args, result):
    tracer.counts["simulate.wiener_increments.entries"] += int(result.size)


def _observe_full(tracer, args, result):
    tracer.counts["simulate.simulate_full.steps"] += len(result.states) - 1


def _observe_reduced(tracer, args, result):
    tracer.counts["simulate.simulate_reduced.steps"] += len(result.xs) - 1


def _observe_write(tracer, args, result):
    tracer.counts["cli.artifact_bytes"] += Path(args[0]).stat().st_size


OBSERVERS = {
    "manifold:distance_to_manifold": _observe_distance,
    "manifold:jacobian": _observe_jacobian,
    "tangency:sweep": _observe_sweep,
    "simulate:wiener_increments": _observe_noise,
    "simulate:simulate_full": _observe_full,
    "simulate:simulate_reduced": _observe_reduced,
    "cli:_write_json": _observe_write,
    "cli:_write_csv": _observe_write,
}


class Tracer:
    """Wraps the package's layer boundaries and aggregates spans per layer."""

    def __init__(self):
        self.stats: dict = {}
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    def reset(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = Counter()

    def span(self, name, fn, observe=None):
        """Return ``fn`` wrapped so every call is recorded under ``name``."""
        clock, stack, active = time.perf_counter, self._stack, self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enclosed = [0.0]
            stack.append(enclosed)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                entry = self.stats[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - enclosed[0]
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _resolve(self, target):
        mod_name, _, qual = target.partition(":")
        module = sys.modules.get(f"{PACKAGE}.{mod_name}")
        if module is None:
            raise TraceTargetError(f"module {PACKAGE}.{mod_name} is not imported")
        owner, _, attr = qual.rpartition(".")
        holder = vars(module).get(owner) if owner else module
        if holder is None or attr not in vars(holder):
            raise TraceTargetError(f"{PACKAGE}.{mod_name}.{qual} does not exist")
        return holder, attr

    def _modules(self):
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Wrap every target; raises TraceTargetError if one is missing."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.reset()
        modules = self._modules()
        for name, targets in LAYERS.items():
            for target in targets:
                holder, attr = self._resolve(target)
                original = vars(holder)[attr]
                wrapped = self.span(name, original, OBSERVERS.get(target))
                if isinstance(holder, type):
                    self._set(holder, attr, wrapped)
                    continue
                # rebind the function wherever the package imported it by name
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
        self._install_chart_eval()
        for counter, target in STATE_TYPES.items():
            self._install_counter(counter, target)

    def _install_chart_eval(self) -> None:
        cls, attr = self._resolve("manifold:Parametrization.__post_init__")
        original = vars(cls)[attr]
        tracer = self

        def post_init(chart):
            original(chart)
            chart.eval = tracer.span(CHART_EVAL, chart.eval)

        self._set(cls, attr, functools.wraps(original)(post_init))

    def _install_counter(self, counter, target) -> None:
        cls, _ = self._resolve(target + ".__post_init__")
        original = vars(cls)["__post_init__"]

        def post_init(state):
            # reset() replaces the Counter, so look it up on every call
            self.counts[counter] += 1
            original(state)

        self._set(cls, "__post_init__", functools.wraps(original)(post_init))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def snapshot(self) -> tuple:
        """(counts, seconds) per metric for the work recorded since ``reset``."""
        counts, seconds = {}, {}
        for name, (calls, incl, own) in self.stats.items():
            counts[f"{name}.calls"] = calls
            seconds[f"{name}.self_s"] = own
        raw = self.counts
        for key in (
            *STATE_TYPES,
            "manifold.distance.iterations",
            "simulate.wiener_increments.entries",
            "cli.artifact_bytes",
        ):
            counts[key] = raw[key]
        solves = counts["manifold.distance.calls"]
        # no solve ran: nothing failed to converge
        counts["manifold.distance.converged_ratio"] = (
            raw["manifold.distance.converged"] / solves if solves else 1.0
        )
        points = raw["tangency.sweep.points"]
        counts["tangency.frames_per_point"] = (
            raw["tangency.sweep.frames"] / points if points else 0.0
        )
        for kind in ("full", "reduced"):
            steps = raw[f"simulate.simulate_{kind}.steps"]
            total = self.stats[f"simulate.simulate_{kind}"][1]
            seconds[f"simulate.{kind}_step_us"] = 1e6 * total / steps if steps else 0.0
        return counts, seconds
