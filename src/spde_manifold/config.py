"""Named presets, config validation, and deterministic hashing.

A config is a dict with four sections: ``model``, ``manifold``,
``check``, ``sim``.  ``load_config`` resolves an optional preset,
deep-merges overrides, and expands every section to an explicit canonical
form through one table of kinds (each key's converter and default, each
kind's builder), so the same physical setup always canonicalizes (and
hashes) identically; it hands back the objects it built to validate it.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .grid import GridState, sine_mode
from .hermite import DualField, MultiIndex, NormScale, SpectralState
from .manifold import JAC_MODES, Parametrization, linear_span_chart, translation_chart
from .models import DA_MODES, ItoTypeModel, PLaplaceModel
from .simulate import SimConfig
from .tangency import FORMS, SamplingSpec

__all__ = [
    "ConfigError",
    "LoadedConfig",
    "preset_names",
    "load_config",
    "canonical_json",
    "config_hash",
    "model_hash",
    "manifold_hash",
    "build_model",
    "build_manifold",
    "build_sampling",
    "sweep_config",
    "build_sim_config",
]


class ConfigError(ValueError):
    """A config key is unknown, malformed, or inconsistent."""


class LoadedConfig(dict):
    """A canonical config as ``load_config`` returns it: the dict of its four
    sections (equal to, and serialized as, the plain dict), and ``built``,
    the (model, chart, SimConfig at the config's seed) that loading built
    and validated, for the commands to use instead of building them again."""

    built: tuple


def _presets() -> dict:
    dirac0 = {"kind": "dirac", "z": [0.0]}
    translation = {
        "model": {
            "type": "ito",
            "d": 1,
            "J": 1,
            "N": 64,
            "b": [dict(dirac0)],
            "sigma": [[dict(dirac0)]],
        },
        "manifold": {
            "type": "translation",
            "profile": {"kind": "basis", "index": [0]},
            "domain": [[-2.0, 2.0]],
        },
        "sim": {"horizon": 0.5, "dt": 1e-3, "paths": 64, "x0": [0.2], "seed": 2024},
    }
    translation_neg = copy.deepcopy(translation)
    translation_neg["model"]["extra_fields"] = [
        {"kind": "basis", "index": [4], "coef": 2.0}
    ]
    return {
        "ito_translation_d1": translation,
        "ito_translation_d1_negative": translation_neg,
        "negative_control": {
            "model": {
                "type": "ito",
                "d": 1,
                "J": 0,
                "N": 40,
                "b": [{"kind": "zero"}],
                "extra_fields": [{"kind": "basis", "index": [32]}],
            },
            "manifold": {
                "type": "span",
                "vectors": [
                    {"kind": "basis", "index": [0]},
                    {"kind": "basis", "index": [1]},
                ],
                "domain": [[-1.0, 1.0], [-1.0, 1.0]],
            },
            "check": {"points_per_axis": 5},
            "sim": {"horizon": 0.1, "dt": 1e-3, "paths": 4, "x0": [0.5, 0.5], "seed": 7},
        },
        "plaplace_p2_eigen": {
            "model": {
                "type": "plaplace",
                "p": 2.0,
                "M": 256,
                "fields": [{"kind": "sine", "k": 1}, {"kind": "sine", "k": 2}],
            },
            "manifold": {
                "type": "span",
                "vectors": [{"kind": "sine", "k": 1}, {"kind": "sine", "k": 2}],
                "domain": [[-2.0, 2.0], [-2.0, 2.0]],
            },
            "check": {"points_per_axis": 5},
            # explicit Euler on the 256-point grid needs dt below 2/|lambda_max|
            # (about 7.6e-6), hence the small step here
            "sim": {"horizon": 5e-3, "dt": 5e-6, "paths": 1, "x0": [1.0, 0.5], "seed": 11},
        },
        "heat_equation": {
            # grid chosen so the stiffest mode multiplier |1 + lambda_max*dt|
            # stays below 1 at dt = 1e-3; the slow mode still has
            # lambda_1 close to -pi^2
            "model": {"type": "plaplace", "p": 2.0, "M": 16, "fields": []},
            "manifold": {
                "type": "span",
                "vectors": [{"kind": "sine", "k": 1}],
                "domain": [[-2.0, 2.0]],
            },
            "sim": {"horizon": 1.0, "dt": 1e-3, "paths": 1, "x0": [1.0], "seed": 0},
        },
        "ito_zero": {
            "model": {
                "type": "ito",
                "d": 1,
                "J": 1,
                "N": 16,
                "b": [{"kind": "zero"}],
                "sigma": [[{"kind": "zero"}]],
            },
            "manifold": {
                "type": "translation",
                "profile": {"kind": "basis", "index": [0]},
                "domain": [[-1.0, 1.0]],
            },
            "sim": {"horizon": 0.1, "dt": 0.01, "paths": 2, "x0": [0.0], "seed": 1},
        },
    }


def preset_names() -> tuple:
    return tuple(sorted(_presets()))


def _deep_merge(base: dict, override: dict) -> dict:
    """``base`` with ``override`` merged into its nested dicts; neither is modified."""
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


# -- converters: (value, key path, model section) -> canonical value -----------

_REQUIRED = object()  # the default of a key that must be given


def _keep(val, where: str, model=None):
    return val


def _int(val, where: str, model=None) -> int:
    if isinstance(val, bool) or not isinstance(val, (int, float)) or val % 1:
        raise ConfigError(f"{where} must be an integer, got {val!r}")
    return int(val)


def _number(val, where: str, model=None) -> float:
    """Any float, for the keys whose range a built object checks."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number, got {val!r}")
    try:
        return float(val)
    except OverflowError:  # an integer beyond the float range
        return math.inf if val > 0 else -math.inf


def _list(convert):
    def convert_list(val, where: str, model=None) -> list:
        if not isinstance(val, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {val!r}")
        return [convert(v, f"{where}[{i}]", model) for i, v in enumerate(val)]

    return convert_list


def _ranged(convert, ok, rule: str):
    """``convert``, then reject a value ``ok`` refuses: it must ``rule``."""

    def convert_ranged(val, where: str, model=None):
        out = convert(val, where, model)
        if not ok(out):
            raise ConfigError(f"{where} must {rule}, got {out!r}")
        return out

    return convert_ranged


def _enum(allowed):
    return _ranged(_keep, lambda v: v in allowed, f"be {'/'.join(allowed)}")


def _entry(val, where: str, model=None) -> list:
    if not isinstance(val, (list, tuple)) or len(val) != 2:
        raise ConfigError(f"{where} must be a pair [index, coefficient], got {val!r}")
    return [_ints(val[0], f"{where}[0]"), _finite(val[1], f"{where}[1]")]


_finite = _ranged(_number, math.isfinite, "be a finite number")
_non_negative = _ranged(_finite, lambda v: v >= 0.0, "not be negative")
_positive_int = _ranged(_int, lambda v: v >= 1, "be at least 1")
_bool = _ranged(_keep, lambda v: isinstance(v, bool), "be true or false")
_ints, _entries = _list(_int), _list(_entry)
# rows [lo, hi]; the chart checks that there is one per coordinate, finite with lo < hi
_domain = _list(_ranged(_list(_number), lambda row: len(row) == 2, "be a pair [lo, hi]"))


# -- the tables of kinds -------------------------------------------------------


class _Kind(NamedTuple):
    """Each key's (converter, default), a callable default reading the model
    section; the builder; a cross-field check; the one basis it needs, if any."""

    fields: dict
    build: Callable
    check: Callable = lambda spec, where, model: None
    basis: str | None = None


class _Family(NamedTuple):
    """The kinds that a spec's ``tag`` key names; messages call the name ``noun``."""

    tag: str
    noun: str
    kinds: dict

    def kind(self, spec, where: str) -> _Kind:
        if not isinstance(spec, dict) or self.tag not in spec:
            raise ConfigError(f"{where} must be a dict with a {self.tag!r}")
        name = spec[self.tag]
        kind = self.kinds.get(name) if isinstance(name, str) else None
        if kind is None:
            known = ", ".join(self.kinds)
            raise ConfigError(f"{where}: unknown {self.noun} {name!r}; known: {known}")
        return kind

    def build(self, spec):
        return self.kind(spec, "spec").build(spec)

    def __call__(self, spec, where: str, model=None) -> dict:
        """The canonical form of a spec of one of these kinds: a converter."""
        kind = self.kind(spec, where)
        if kind.basis and kind.basis != _basis(model):
            raise ConfigError(f"{where}: unknown {self.noun} {spec[self.tag]!r} for a "
                              f"{_basis(model)} model, it needs the {kind.basis} basis")
        out = _fill(spec, {self.tag: (_keep, _REQUIRED), **kind.fields}, where, model)
        kind.check(out, where, out if model is None else model)
        return out


def _basis(model: dict) -> str:
    return "spectral" if model["type"] == "ito" else "grid"


def _fill(spec, fields: dict, where: str, model=None) -> dict:
    """Reject a spec's unknown keys, fill its defaults and convert each value.
    With no ``model``, ``spec`` is the model section: it reads its keys filled so far."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a dict, got {spec!r}")
    for key in spec:
        if key not in fields:
            raise ConfigError(f"unknown key {key!r} in {where}")
    out: dict = {}
    model = out if model is None else model
    for key, (convert, default) in fields.items():
        if key in spec:
            val = spec[key]
        elif default is _REQUIRED:
            raise ConfigError(f"{where}.{key} is required")
        else:
            val = default(model) if callable(default) else default
        out[key] = convert(val, f"{where}.{key}", model)
    return out


def _check_basis(spec: dict, where: str, model: dict):
    if len(spec["index"]) != spec["d"]:
        raise ConfigError(f"{where}: index length must equal d")
    if sum(spec["index"]) > spec["n"]:
        raise ConfigError(f"{where}: index order exceeds resolution n")


def _check_dirac(spec: dict, where: str, model: dict):
    if not len(spec["z"]) == spec["d"] == model["d"]:
        raise ConfigError(f"{where}: dirac location length must equal d={model['d']}")


def _tensor(spec: dict) -> np.ndarray:
    d, n = spec["d"], spec["n"]
    c = np.zeros((n + 1,) * d)
    for idx, val in spec["entries"]:
        mi = MultiIndex(idx)
        if len(mi) != d or mi.order > n:
            raise ConfigError(f"coefficient index {list(mi)} out of range for d={d}, n={n}")
        c[mi] = val
    return c


def _scaled(state, coef: float):
    return state if coef == 1.0 else state * coef


def _translation(spec: dict):
    profile = _STATES.build(spec["profile"])
    return translation_chart(profile, spec["domain"]), [profile]


def _span(spec: dict):
    vectors = [_STATES.build(s) for s in spec["vectors"]]
    return linear_span_chart(vectors, spec["domain"]), vectors


# a spectral object's dimension and resolution, by default the model's
_DN = {"d": (_int, itemgetter("d")), "n": (_int, itemgetter("N"))}

_STATES = _Family("kind", "state kind", {
    "basis": _Kind({**_DN, "index": (_ints, [0]), "coef": (_finite, 1.0)},
                   lambda s: _scaled(SpectralState.basis(s["index"], s["n"]), s["coef"]),
                   _check_basis, "spectral"),
    "coeffs": _Kind({**_DN, "entries": (_entries, [])},
                    lambda s: SpectralState(s["d"], s["n"], _tensor(s)), basis="spectral"),
    "sine": _Kind({"m": (_int, itemgetter("M")), "k": (_int, 1), "coef": (_finite, 1.0)},
                  lambda s: _scaled(sine_mode(s["m"], s["k"]), s["coef"]), basis="grid"),
    "grid_values": _Kind({"values": (_list(_finite), [])},
                         lambda s: GridState(np.asarray(s["values"], dtype=float)), basis="grid"),
})

_DUALS = _Family("kind", "dual kind", {
    "dirac": _Kind({**_DN, "z": (_list(_finite), [0.0])},
                   lambda s: DualField.dirac(s["z"], s["n"]), _check_dirac),
    "constant": _Kind({**_DN, "value": (_finite, 1.0)},
                      lambda s: DualField.constant(s["d"], s["n"], s["value"])),
    "zero": _Kind({"d": _DN["d"]}, lambda s: DualField.zero(s["d"])),
    "dual_coeffs": _Kind({**_DN, "entries": (_entries, [])},
                         lambda s: DualField(s["d"], s["n"], _tensor(s))),
})

_MODELS = _Family("type", "model type", {
    "ito": _Kind(
        {
            "d": (_int, 1), "J": (_int, 0), "N": (_int, 32),
            "b": (_list(_DUALS), []), "sigma": (_list(_list(_DUALS)), []),
            "extra_fields": (_list(_STATES), []), "scale_base": (_finite, 0.0),
        },
        lambda m: ItoTypeModel(
            m["d"], m["J"], m["N"], tuple(map(_DUALS.build, m["b"])),
            tuple(tuple(map(_DUALS.build, row)) for row in m["sigma"]),
            tuple(map(_STATES.build, m["extra_fields"])), NormScale.half_step(m["scale_base"]),
        ),
    ),
    "plaplace": _Kind(
        {"p": (_finite, 2.0), "M": (_int, 64), "fields": (_list(_STATES), [])},
        lambda m: PLaplaceModel(m["p"], m["M"], tuple(map(_STATES.build, m["fields"]))),
    ),
})

_MANIFOLDS = _Family("type", "manifold type", {
    "translation": _Kind({"profile": (_STATES, _REQUIRED), "domain": (_domain, _REQUIRED)},
                         _translation, basis="spectral"),
    "span": _Kind({"vectors": (_ranged(_list(_STATES), len, "not be empty"), []),
                   "domain": (_domain, _REQUIRED)}, _span),
})

_CHECK = {
    "points_per_axis": (_positive_int, 11),
    "method": (_enum(("auto", "lattice", "halton")), "auto"),
    # a margin of half the box or more leaves no box to sample
    "margin_frac": (_ranged(_finite, lambda v: 0.0 <= v < 0.5, "be in [0, 0.5)"), 0.01),
    "base_threshold": (_non_negative, 1e-6),
    "spill_factor": (_non_negative, 10.0),
    "form": (_enum(FORMS), "both"),
    "jac_mode": (_enum(JAC_MODES), "auto"),
    "da_mode": (_enum(DA_MODES), "auto"),
    "form_error_tol": (_non_negative, 1e-2),
}

# SimConfig checks horizon, dt, explosion_ceiling and seed (paths too); the chart box checks x0
_SIM = {
    "horizon": (_number, 0.5),
    "dt": (_number, 1e-3),
    "paths": (_positive_int, 1),
    "x0": (_list(_number), [0.0]),
    "seed": (_int, 0),
    "record_distance": (_bool, True),
    "explosion_ceiling": (_number, 1e6),
}


def load_config(source) -> LoadedConfig:
    """Resolve a preset name, dict, or JSON file path into a canonical config.

    The model, chart and sim config are built once: what they reject, a
    chart whose profile or span vectors lie outside the model's states, or
    a start ``sim.x0`` outside the chart box, is a ConfigError here.  The
    built objects come back as ``built``.
    """
    presets = _presets()
    if isinstance(source, (str, Path)):
        text = str(source)
        if text in presets:
            raw = {"preset": text}
        else:
            path = Path(source)
            if not path.exists():
                raise ConfigError(f"config source {text!r} is neither a preset nor a file")
            try:
                raw = json.loads(path.read_text())
            except json.JSONDecodeError as err:
                raise ConfigError(f"config file {text!r} is not valid JSON: {err}") from err
            if not isinstance(raw, dict):
                raise ConfigError(f"config file {text!r} must hold a JSON object")
    elif isinstance(source, dict):
        raw = dict(source)  # canonicalizing reads a spec and builds a new one
    else:
        raise ConfigError(f"unsupported config source {type(source).__name__}")

    if "preset" in raw:
        name = raw.pop("preset")
        if not isinstance(name, str) or name not in presets:
            raise ConfigError(
                f"unknown preset {name!r}; available: {', '.join(sorted(presets))}"
            )
        raw = _deep_merge(presets[name], raw)

    for key in raw:
        if key not in ("model", "manifold", "check", "sim"):
            raise ConfigError(f"unknown key {key!r} in config")
    model = _MODELS(raw.get("model"), "model")
    manifold = _MANIFOLDS(raw.get("manifold"), "manifold", model)
    check = _fill(raw.get("check", {}), _CHECK, "check")
    sim = _fill(raw.get("sim", {}), _SIM, "sim")
    cfg = LoadedConfig(model=model, manifold=manifold, check=check, sim=sim)
    with _rejected("model: "):
        built = build_model(cfg)
    with _rejected("manifold: "):
        chart, states = _chart_and_states(cfg)
        for state in states:  # the chart's images: same grid size or dimension as the model's
            built.geometry.zero_state() + state
    if len(sim["x0"]) != chart.m:
        raise ConfigError(f"sim.x0 must have {chart.m} coordinates, got {len(sim['x0'])}")
    if not chart.contains(sim["x0"]):
        box = chart.domain.tolist()
        raise ConfigError(f"sim.x0 must lie in the chart box {box}, got {sim['x0']}")
    with _rejected("sim."):  # SimConfig names the rejected field first
        cfg.built = (built, chart, build_sim_config(cfg))
    return cfg


@contextlib.contextmanager
def _rejected(prefix: str):
    """Re-raise a constructor's ValueError as a ConfigError naming its section."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(f"{prefix}{err}") from err


# -- hashing -------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def model_hash(cfg: dict) -> str:
    return config_hash(cfg["model"])


def manifold_hash(cfg: dict) -> str:
    return config_hash(cfg["manifold"])


# -- object builders -----------------------------------------------------------


def build_model(cfg: dict):
    return _MODELS.build(cfg["model"])


def _chart_and_states(cfg: dict):
    """The config's chart and the states it is built from: its profile or span vectors."""
    return _MANIFOLDS.build(cfg["manifold"])


def build_manifold(cfg: dict) -> Parametrization:
    return _chart_and_states(cfg)[0]


_SAMPLING_KEYS = ("points_per_axis", "method", "margin_frac")  # the rest are sweep's


def build_sampling(cfg: dict) -> SamplingSpec:
    return SamplingSpec(**{key: cfg["check"][key] for key in _SAMPLING_KEYS})


def sweep_config(cfg: dict) -> dict:
    """Keyword arguments of ``sweep`` for a config: its sampling and check settings."""
    check = {key: val for key, val in cfg["check"].items() if key not in _SAMPLING_KEYS}
    return {"sampling": build_sampling(cfg), **check}


def build_sim_config(cfg: dict) -> SimConfig:
    """The config's SimConfig: its ``sim`` section but the start ``x0``."""
    return SimConfig(**{key: val for key, val in cfg["sim"].items() if key != "x0"})
