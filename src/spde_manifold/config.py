"""Named presets, config validation, and deterministic hashing.

A config is a plain dict with four sections: ``model``, ``manifold``,
``check``, ``sim``.  ``load_config`` resolves an optional preset,
deep-merges overrides, fills defaults, and expands every state/dual
spec to an explicit canonical form, so the same physical setup always
canonicalizes (and hashes) identically.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import numpy as np

from .grid import GridState, sine_mode
from .hermite import DualField, MultiIndex, NormScale, SpectralState
from .manifold import JAC_MODES, Parametrization, linear_span_chart, translation_chart
from .models import DA_MODES, ItoTypeModel, PLaplaceModel
from .simulate import SimConfig
from .tangency import SamplingSpec

__all__ = [
    "ConfigError",
    "preset_names",
    "load_config",
    "canonical_json",
    "config_hash",
    "model_hash",
    "manifold_hash",
    "build_state",
    "build_dual",
    "build_model",
    "build_manifold",
    "build_sampling",
    "build_sim_config",
]


class ConfigError(ValueError):
    """A config key is unknown, malformed, or inconsistent."""


_CHECK_DEFAULTS = {
    "points_per_axis": 11,
    "method": "auto",
    "margin_frac": 0.01,
    "base_threshold": 1e-6,
    "spill_factor": 10.0,
    "form": "both",
    "jac_mode": "auto",
    "da_mode": "auto",
    "form_error_tol": 1e-2,
}

_CHECK_ENUMS = {
    "form": ("bracket", "stratonovich", "both"),
    "method": ("auto", "lattice", "halton"),
    "jac_mode": JAC_MODES,
    "da_mode": DA_MODES,
}

_SIM_DEFAULTS = {
    "horizon": 0.5,
    "dt": 1e-3,
    "paths": 1,
    "x0": [0.0],
    "seed": 0,
    "record_distance": True,
    "explosion_ceiling": 1e6,
}


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
            "extra_fields": [],
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
    translation_neg["sim"]["paths"] = 64
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
                "sigma": [],
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
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _require_keys(section: dict, allowed, where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _as_int(val, where: str) -> int:
    if isinstance(val, bool) or not isinstance(val, (int, float)) or int(val) != val:
        raise ConfigError(f"{where} must be an integer, got {val!r}")
    return int(val)


def _as_float(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number, got {val!r}")
    return float(val)


# -- state and dual specs ------------------------------------------------------


def _canon_state(spec: dict, basis: str, d: int, n: int, where: str) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where} must be a dict with a 'kind'")
    kind = spec["kind"]
    if basis == "hermite":
        if kind == "basis":
            _require_keys(spec, {"kind", "d", "index", "n", "coef"}, where)
            index = [
                _as_int(v, f"{where}.index") for v in spec.get("index", [0])
            ]
            out = {
                "kind": "basis",
                "d": _as_int(spec.get("d", d), f"{where}.d"),
                "index": index,
                "n": _as_int(spec.get("n", n), f"{where}.n"),
                "coef": _as_float(spec.get("coef", 1.0), f"{where}.coef"),
            }
            if len(index) != out["d"]:
                raise ConfigError(f"{where}: index length must equal d")
            if sum(index) > out["n"]:
                raise ConfigError(f"{where}: index order exceeds resolution n")
            return out
        if kind == "coeffs":
            _require_keys(spec, {"kind", "d", "n", "entries"}, where)
            out = {
                "kind": "coeffs",
                "d": _as_int(spec.get("d", d), f"{where}.d"),
                "n": _as_int(spec.get("n", n), f"{where}.n"),
                "entries": [
                    [[_as_int(i, where) for i in idx], _as_float(v, where)]
                    for idx, v in spec.get("entries", [])
                ],
            }
            return out
        raise ConfigError(f"{where}: unknown state kind {kind!r} for spectral basis")
    if kind == "sine":
        _require_keys(spec, {"kind", "m", "k", "coef"}, where)
        return {
            "kind": "sine",
            "m": _as_int(spec.get("m", d), f"{where}.m"),
            "k": _as_int(spec.get("k", 1), f"{where}.k"),
            "coef": _as_float(spec.get("coef", 1.0), f"{where}.coef"),
        }
    if kind == "grid_values":
        _require_keys(spec, {"kind", "values"}, where)
        return {
            "kind": "grid_values",
            "values": [_as_float(v, where) for v in spec.get("values", [])],
        }
    raise ConfigError(f"{where}: unknown state kind {kind!r} for grid basis")


def _canon_dual(spec: dict, d: int, n: int, where: str) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where} must be a dict with a 'kind'")
    kind = spec["kind"]
    if kind == "dirac":
        _require_keys(spec, {"kind", "d", "z", "n"}, where)
        z = [_as_float(v, f"{where}.z") for v in spec.get("z", [0.0])]
        out = {"kind": "dirac", "d": len(z), "z": z, "n": _as_int(spec.get("n", n), where)}
        if out["d"] != d:
            raise ConfigError(f"{where}: dirac location length must equal d={d}")
        return out
    if kind == "constant":
        _require_keys(spec, {"kind", "d", "n", "value"}, where)
        return {
            "kind": "constant",
            "d": _as_int(spec.get("d", d), where),
            "n": _as_int(spec.get("n", n), where),
            "value": _as_float(spec.get("value", 1.0), where),
        }
    if kind == "zero":
        _require_keys(spec, {"kind", "d"}, where)
        return {"kind": "zero", "d": _as_int(spec.get("d", d), where)}
    if kind == "dual_coeffs":
        _require_keys(spec, {"kind", "d", "n", "entries"}, where)
        return {
            "kind": "dual_coeffs",
            "d": _as_int(spec.get("d", d), where),
            "n": _as_int(spec.get("n", n), where),
            "entries": [
                [[_as_int(i, where) for i in idx], _as_float(v, where)]
                for idx, v in spec.get("entries", [])
            ],
        }
    raise ConfigError(f"{where}: unknown dual kind {kind!r}")


def _tensor_from_entries(d: int, n: int, entries) -> np.ndarray:
    c = np.zeros((n + 1,) * d)
    for idx, val in entries:
        mi = MultiIndex(idx)
        if len(mi) != d or mi.order > n:
            raise ConfigError(f"coefficient index {list(mi)} out of range for d={d}, n={n}")
        c[mi] = val
    return c


def build_state(spec: dict, basis: str):
    kind = spec["kind"]
    if kind == "basis":
        state = SpectralState.basis(MultiIndex(spec["index"]), spec["n"])
        return state if spec["coef"] == 1.0 else state * spec["coef"]
    if kind == "coeffs":
        return SpectralState(spec["d"], spec["n"], _tensor_from_entries(spec["d"], spec["n"], spec["entries"]))
    if kind == "sine":
        mode = sine_mode(spec["m"], spec["k"])
        return mode if spec["coef"] == 1.0 else mode * spec["coef"]
    if kind == "grid_values":
        return GridState(np.asarray(spec["values"], dtype=float))
    raise ConfigError(f"unknown state kind {kind!r}")


def build_dual(spec: dict) -> DualField:
    kind = spec["kind"]
    if kind == "dirac":
        return DualField.dirac(spec["z"], spec["n"])
    if kind == "constant":
        return DualField.constant(spec["d"], spec["n"], spec["value"])
    if kind == "zero":
        return DualField.zero(spec["d"])
    if kind == "dual_coeffs":
        return DualField(spec["d"], spec["n"], _tensor_from_entries(spec["d"], spec["n"], spec["entries"]))
    raise ConfigError(f"unknown dual kind {kind!r}")


# -- section canonicalizers ----------------------------------------------------


def _canon_model(model: dict) -> dict:
    if not isinstance(model, dict) or "type" not in model:
        raise ConfigError("config needs a 'model' section with a 'type'")
    mtype = model["type"]
    if mtype == "ito":
        _require_keys(
            model, {"type", "d", "J", "N", "b", "sigma", "extra_fields", "scale_base"},
            "model",
        )
        d = _as_int(model.get("d", 1), "model.d")
        big_j = _as_int(model.get("J", 0), "model.J")
        n = _as_int(model.get("N", 32), "model.N")
        b = [
            _canon_dual(s, d, n, f"model.b[{i}]")
            for i, s in enumerate(model.get("b", []))
        ]
        if len(b) != d:
            raise ConfigError(f"model.b needs exactly d={d} duals, got {len(b)}")
        sigma_rows = model.get("sigma", [])
        if len(sigma_rows) != big_j:
            raise ConfigError(f"model.sigma needs J={big_j} rows, got {len(sigma_rows)}")
        sigma = []
        for jj, row in enumerate(sigma_rows):
            if len(row) != d:
                raise ConfigError(f"model.sigma[{jj}] needs one dual per direction")
            sigma.append(
                [_canon_dual(s, d, n, f"model.sigma[{jj}][{i}]") for i, s in enumerate(row)]
            )
        extras = [
            _canon_state(s, "hermite", d, n, f"model.extra_fields[{i}]")
            for i, s in enumerate(model.get("extra_fields", []))
        ]
        return {
            "type": "ito",
            "d": d,
            "J": big_j,
            "N": n,
            "b": b,
            "sigma": sigma,
            "extra_fields": extras,
            "scale_base": _as_float(model.get("scale_base", 0.0), "model.scale_base"),
        }
    if mtype == "plaplace":
        _require_keys(model, {"type", "p", "M", "fields"}, "model")
        m_pts = _as_int(model.get("M", 64), "model.M")
        fields = [
            _canon_state(s, "grid", m_pts, m_pts, f"model.fields[{i}]")
            for i, s in enumerate(model.get("fields", []))
        ]
        for i, f in enumerate(fields):
            if f["kind"] == "sine" and f["m"] != m_pts:
                raise ConfigError(f"model.fields[{i}]: grid size {f['m']} != M={m_pts}")
            if f["kind"] == "grid_values" and len(f["values"]) != m_pts:
                raise ConfigError(f"model.fields[{i}]: needs M={m_pts} values")
        return {
            "type": "plaplace",
            "p": _as_float(model.get("p", 2.0), "model.p"),
            "M": m_pts,
            "fields": fields,
        }
    raise ConfigError(f"unknown model type {mtype!r}")


def _canon_manifold(manifold: dict, model: dict) -> dict:
    if not isinstance(manifold, dict) or "type" not in manifold:
        raise ConfigError("config needs a 'manifold' section with a 'type'")
    basis = "hermite" if model["type"] == "ito" else "grid"
    d = model["d"] if basis == "hermite" else model["M"]
    n = model["N"] if basis == "hermite" else model["M"]
    kind = manifold["type"]
    if kind == "translation":
        if basis != "hermite":
            raise ConfigError("translation charts need the spectral basis")
        _require_keys(manifold, {"type", "profile", "domain"}, "manifold")
        profile = _canon_state(manifold["profile"], basis, d, n, "manifold.profile")
        domain = _canon_domain(manifold.get("domain"), d)
        return {"type": "translation", "profile": profile, "domain": domain}
    if kind == "span":
        _require_keys(manifold, {"type", "vectors", "domain"}, "manifold")
        vectors = [
            _canon_state(s, basis, d, n, f"manifold.vectors[{i}]")
            for i, s in enumerate(manifold.get("vectors", []))
        ]
        if not vectors:
            raise ConfigError("manifold.vectors must not be empty")
        domain = _canon_domain(manifold.get("domain"), len(vectors))
        return {"type": "span", "vectors": vectors, "domain": domain}
    raise ConfigError(f"unknown manifold type {kind!r}")


def _canon_domain(domain, m: int):
    if domain is None:
        raise ConfigError("manifold.domain is required")
    arr = np.asarray(domain, dtype=float)
    if arr.shape != (m, 2):
        raise ConfigError(f"manifold.domain must have shape ({m}, 2), got {arr.shape}")
    if np.any(arr[:, 0] >= arr[:, 1]):
        raise ConfigError("manifold.domain rows must satisfy lo < hi")
    return [[float(lo), float(hi)] for lo, hi in arr]


def _canon_check(check: dict) -> dict:
    _require_keys(check, set(_CHECK_DEFAULTS), "check")
    out = dict(_CHECK_DEFAULTS)
    out.update(check)
    out["points_per_axis"] = _as_int(out["points_per_axis"], "check.points_per_axis")
    for key in ("margin_frac", "base_threshold", "spill_factor", "form_error_tol"):
        out[key] = _as_float(out[key], f"check.{key}")
    for key, allowed in _CHECK_ENUMS.items():
        if out[key] not in allowed:
            raise ConfigError(f"check.{key} must be {'/'.join(allowed)}, got {out[key]!r}")
    return out


def _canon_sim(sim: dict, m: int) -> dict:
    _require_keys(sim, set(_SIM_DEFAULTS), "sim")
    out = dict(_SIM_DEFAULTS)
    out.update(sim)
    out["horizon"] = _as_float(out["horizon"], "sim.horizon")
    out["dt"] = _as_float(out["dt"], "sim.dt")
    out["paths"] = _as_int(out["paths"], "sim.paths")
    out["seed"] = _as_int(out["seed"], "sim.seed")
    out["explosion_ceiling"] = _as_float(out["explosion_ceiling"], "sim.explosion_ceiling")
    out["record_distance"] = bool(out["record_distance"])
    if out["horizon"] <= 0 or out["dt"] <= 0:
        raise ConfigError("sim.horizon and sim.dt must be positive")
    if out["paths"] < 1:
        raise ConfigError("sim.paths must be at least 1")
    x0 = [_as_float(v, "sim.x0") for v in out["x0"]]
    if len(x0) != m:
        raise ConfigError(f"sim.x0 must have {m} coordinates, got {len(x0)}")
    out["x0"] = x0
    return out


def load_config(source) -> dict:
    """Resolve a preset name, dict, or JSON file path into a canonical config."""
    if isinstance(source, (str, Path)):
        text = str(source)
        if text in _presets():
            raw: dict = {"preset": text}
        else:
            path = Path(source)
            if not path.exists():
                raise ConfigError(f"config source {text!r} is neither a preset nor a file")
            try:
                raw = json.loads(path.read_text())
            except json.JSONDecodeError as err:
                raise ConfigError(f"config file {text!r} is not valid JSON: {err}") from err
    elif isinstance(source, dict):
        raw = copy.deepcopy(source)
    else:
        raise ConfigError(f"unsupported config source {type(source).__name__}")

    if "preset" in raw:
        name = raw.pop("preset")
        presets = _presets()
        if name not in presets:
            raise ConfigError(
                f"unknown preset {name!r}; available: {', '.join(sorted(presets))}"
            )
        raw = _deep_merge(presets[name], raw)

    _require_keys(raw, {"model", "manifold", "check", "sim"}, "config")
    if "model" not in raw or "manifold" not in raw:
        raise ConfigError("config needs 'model' and 'manifold' sections")
    model = _canon_model(raw["model"])
    manifold = _canon_manifold(raw["manifold"], model)
    m = len(manifold["domain"])
    check = _canon_check(raw.get("check", {}))
    sim = _canon_sim(raw.get("sim", {}), m)
    return {"model": model, "manifold": manifold, "check": check, "sim": sim}


# -- hashing -------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def config_hash(cfg: dict) -> str:
    return _sha(cfg)


def model_hash(cfg: dict) -> str:
    return _sha(cfg["model"])


def manifold_hash(cfg: dict) -> str:
    return _sha(cfg["manifold"])


# -- object builders -----------------------------------------------------------


def build_model(cfg: dict):
    model = cfg["model"]
    if model["type"] == "ito":
        return ItoTypeModel(
            d=model["d"],
            J=model["J"],
            N=model["N"],
            b=tuple(build_dual(s) for s in model["b"]),
            sigma=tuple(tuple(build_dual(s) for s in row) for row in model["sigma"]),
            extra_fields=tuple(build_state(s, "hermite") for s in model["extra_fields"]),
            scale=NormScale.half_step(model["scale_base"]),
        )
    if model["type"] == "plaplace":
        return PLaplaceModel(
            p_exponent=model["p"],
            M=model["M"],
            fields=tuple(build_state(s, "grid") for s in model["fields"]),
        )
    raise ConfigError(f"unknown model type {model['type']!r}")


def build_manifold(cfg: dict) -> Parametrization:
    manifold = cfg["manifold"]
    basis = "hermite" if cfg["model"]["type"] == "ito" else "grid"
    domain = np.asarray(manifold["domain"], dtype=float)
    if manifold["type"] == "translation":
        return translation_chart(build_state(manifold["profile"], basis), domain)
    if manifold["type"] == "span":
        return linear_span_chart(
            [build_state(s, basis) for s in manifold["vectors"]], domain
        )
    raise ConfigError(f"unknown manifold type {manifold['type']!r}")


def build_sampling(cfg: dict) -> SamplingSpec:
    check = cfg["check"]
    return SamplingSpec(
        points_per_axis=check["points_per_axis"],
        method=check["method"],
        margin_frac=check["margin_frac"],
    )


def build_sim_config(cfg: dict, seed=None) -> SimConfig:
    sim = cfg["sim"]
    return SimConfig(
        horizon=sim["horizon"],
        dt=sim["dt"],
        paths=sim["paths"],
        seed=sim["seed"] if seed is None else int(seed),
        record_distance=sim["record_distance"],
        explosion_ceiling=sim["explosion_ceiling"],
    )
