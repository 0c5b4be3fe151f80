"""Preset resolution, canonicalization, validation, and hashing."""

import json

import numpy as np
import pytest

from spde_manifold import (
    ConfigError,
    ItoTypeModel,
    NormScale,
    PLaplaceModel,
    Parametrization,
    SamplingSpec,
    SimConfig,
    build_manifold,
    build_model,
    build_sampling,
    build_sim_config,
    config_hash,
    load_config,
    preset_names,
)
from spde_manifold.config import build_dual, build_state, canonical_json, manifold_hash, model_hash
from spde_manifold.grid import laplace_eigenvalue

ALL_PRESETS = (
    "heat_equation",
    "ito_translation_d1",
    "ito_translation_d1_negative",
    "ito_zero",
    "negative_control",
    "plaplace_p2_eigen",
)


def test_preset_catalogue():
    assert preset_names() == ALL_PRESETS


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_every_preset_loads_and_builds(name):
    cfg = load_config(name)
    assert set(cfg) == {"model", "manifold", "check", "sim"}
    model = build_model(cfg)
    chart = build_manifold(cfg)
    assert isinstance(chart, Parametrization)
    assert isinstance(build_sampling(cfg), SamplingSpec)
    sim = build_sim_config(cfg)
    assert isinstance(sim, SimConfig)
    assert model.geometry is not None
    assert len(cfg["sim"]["x0"]) == chart.m


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_canonical_form_is_idempotent(name):
    cfg = load_config(name)
    assert load_config(cfg) == cfg


def test_canonical_json_is_compact_and_sorted():
    text = canonical_json({"b": 1, "a": [1.5, 2]})
    assert text == '{"a":[1.5,2],"b":1}'


def test_config_hash_stable_and_sensitive():
    h1 = config_hash(load_config("ito_zero"))
    h2 = config_hash(load_config("ito_zero"))
    assert h1 == h2 and len(h1) == 64
    bumped = load_config({"preset": "ito_zero", "sim": {"seed": 9}})
    assert config_hash(bumped) != h1
    # seed lives outside the model/manifold sections
    assert model_hash(bumped) == model_hash(load_config("ito_zero"))
    assert manifold_hash(bumped) == manifold_hash(load_config("ito_zero"))


def test_preset_override_merges_deeply():
    cfg = load_config({"preset": "ito_translation_d1", "model": {"N": 32}})
    assert cfg["model"]["N"] == 32
    assert cfg["model"]["J"] == 1  # untouched siblings survive
    assert cfg["sim"]["paths"] == 64
    cfg2 = load_config({"preset": "ito_translation_d1", "sim": {"dt": 2e-3}})
    assert cfg2["sim"]["dt"] == 2e-3
    assert cfg2["sim"]["horizon"] == 0.5


def test_config_from_json_file(tmp_path):
    cfg = load_config("heat_equation")
    path = tmp_path / "heat.json"
    path.write_text(json.dumps(cfg))
    assert load_config(path) == cfg
    assert load_config(str(path)) == cfg


def test_unknown_source_kinds():
    with pytest.raises(ConfigError, match="neither a preset nor a file"):
        load_config("no_such_preset")
    with pytest.raises(ConfigError, match="unsupported config source"):
        load_config(42)
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config({"preset": "no_such_preset"})


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="'bogus' in config"):
        load_config({"preset": "ito_zero", "bogus": 1})
    with pytest.raises(ConfigError, match="'foo' in model"):
        load_config({"preset": "ito_zero", "model": {"foo": 1}})
    with pytest.raises(ConfigError, match="'foo' in manifold"):
        load_config({"preset": "ito_zero", "manifold": {"foo": 1}})
    with pytest.raises(ConfigError, match="'foo' in check"):
        load_config({"preset": "ito_zero", "check": {"foo": 1}})
    with pytest.raises(ConfigError, match="'foo' in sim"):
        load_config({"preset": "ito_zero", "sim": {"foo": 1}})


def test_model_section_validation():
    with pytest.raises(ConfigError, match="model.*type"):
        load_config({"model": {}, "manifold": {"type": "span"}})
    with pytest.raises(ConfigError, match="unknown model type"):
        load_config({
            "model": {"type": "wave"},
            "manifold": {"type": "span", "vectors": [], "domain": []},
        })
    # sigma row count must match J
    with pytest.raises(ConfigError, match="sigma"):
        load_config({"preset": "ito_zero", "model": {"J": 2}})
    # one dual per direction within a row
    with pytest.raises(ConfigError, match="per direction"):
        load_config({
            "preset": "ito_zero",
            "model": {"sigma": [[{"kind": "zero"}, {"kind": "zero"}]]},
        })
    with pytest.raises(ConfigError, match="dirac location"):
        load_config({
            "preset": "ito_zero",
            "model": {"b": [{"kind": "dirac", "z": [0.0, 1.0]}]},
        })


def test_state_spec_validation():
    with pytest.raises(ConfigError, match="index length"):
        load_config({
            "preset": "ito_zero",
            "manifold": {"profile": {"kind": "basis", "index": [0, 0]}},
        })
    with pytest.raises(ConfigError, match="exceeds resolution"):
        load_config({
            "preset": "ito_zero",
            "manifold": {"profile": {"kind": "basis", "index": [17]}},
        })
    with pytest.raises(ConfigError, match="unknown state kind"):
        load_config({
            "preset": "ito_zero",
            "manifold": {"profile": {"kind": "sine", "k": 1}},
        })
    with pytest.raises(ConfigError, match="grid size"):
        load_config({
            "preset": "heat_equation",
            "model": {"fields": [{"kind": "sine", "k": 1, "m": 8}]},
        })
    with pytest.raises(ConfigError, match="needs M="):
        load_config({
            "preset": "heat_equation",
            "model": {"fields": [{"kind": "grid_values", "values": [1.0, 2.0]}]},
        })


def test_manifold_section_validation():
    with pytest.raises(ConfigError, match="must not be empty"):
        load_config({
            "preset": "heat_equation",
            "manifold": {"type": "span", "vectors": [], "domain": []},
        })
    with pytest.raises(ConfigError, match="spectral basis"):
        load_config({
            "preset": "heat_equation",
            "manifold": {
                "type": "translation",
                "profile": {"kind": "sine", "k": 1},
                "domain": [[-1.0, 1.0]],
            },
        })
    with pytest.raises(ConfigError, match="shape"):
        load_config({
            "preset": "heat_equation",
            "manifold": {"domain": [[-1.0, 1.0], [-1.0, 1.0]]},
        })
    with pytest.raises(ConfigError, match="lo < hi"):
        load_config({
            "preset": "heat_equation",
            "manifold": {"domain": [[2.0, -2.0]]},
        })


def test_check_and_sim_validation():
    with pytest.raises(ConfigError, match="check.form"):
        load_config({"preset": "ito_zero", "check": {"form": "all"}})
    with pytest.raises(ConfigError, match="positive"):
        load_config({"preset": "ito_zero", "sim": {"dt": 0.0}})
    with pytest.raises(ConfigError, match="at least 1"):
        load_config({"preset": "ito_zero", "sim": {"paths": 0}})
    with pytest.raises(ConfigError, match="x0"):
        load_config({"preset": "ito_zero", "sim": {"x0": [0.0, 1.0]}})
    with pytest.raises(ConfigError, match="integer"):
        load_config({"preset": "ito_zero", "sim": {"seed": 1.5}})


@pytest.mark.parametrize(
    "key, value",
    [("jac_mode", "analytc"), ("da_mode", "exact"), ("method", "sobol"), ("form", "all")],
)
def test_check_enums_reject_unknown_values(key, value):
    with pytest.raises(ConfigError, match=f"check.{key}"):
        load_config({"preset": "ito_translation_d1", "check": {key: value}})


def test_check_enums_accept_every_known_value():
    for key, values in (
        ("jac_mode", ("auto", "analytic", "fd")),
        ("da_mode", ("auto", "analytic", "fd")),
        ("method", ("auto", "lattice", "halton")),
    ):
        for value in values:
            assert load_config({"preset": "ito_zero", "check": {key: value}})["check"][key] == value


def test_built_models_match_sections():
    cfg = load_config("ito_translation_d1")
    model = build_model(cfg)
    assert isinstance(model, ItoTypeModel)
    assert (model.d, model.J, model.N) == (1, 1, 64)
    assert model.n_noise == 1

    neg = build_model(load_config("negative_control"))
    assert neg.J == 0 and neg.n_noise == 1  # noise is one constant extra field

    grid = build_model(load_config("plaplace_p2_eigen"))
    assert isinstance(grid, PLaplaceModel)
    assert grid.M == 256 and grid.n_noise == 2


def test_scale_base_override():
    cfg = load_config({"preset": "ito_zero", "model": {"scale_base": 1.0}})
    model = build_model(cfg)
    assert model.scale == NormScale(2.0, 1.5, 1.0)


def test_extra_field_coefficient_applied():
    cfg = load_config("ito_translation_d1_negative")
    spec = cfg["model"]["extra_fields"][0]
    assert spec["coef"] == 2.0
    field = build_state(spec, "hermite")
    assert field.coefficient([4]) == 2.0


def test_coeffs_state_kind_round_trip():
    cfg = load_config({
        "preset": "ito_zero",
        "model": {
            "extra_fields": [
                {"kind": "coeffs", "entries": [[[0], 0.5], [[3], -1.0]]}
            ]
        },
    })
    field = build_state(cfg["model"]["extra_fields"][0], "hermite")
    assert field.coefficient([0]) == 0.5
    assert field.coefficient([3]) == -1.0
    with pytest.raises(ConfigError, match="out of range"):
        build_state(
            {"kind": "coeffs", "d": 1, "n": 2, "entries": [[[5], 1.0]]}, "hermite"
        )


def test_dual_builders():
    const = build_dual({"kind": "constant", "d": 1, "n": 4, "value": 2.0})
    assert const.d == 1
    dc = build_dual({"kind": "dual_coeffs", "d": 1, "n": 3,
                     "entries": [[[1], 4.0]]})
    assert dc.coeffs[1] == 4.0
    with pytest.raises(ConfigError, match="unknown dual kind"):
        build_dual({"kind": "mystery"})


def test_sim_config_seed_override():
    cfg = load_config("ito_zero")
    assert build_sim_config(cfg, seed=99).seed == 99
    assert build_sim_config(cfg).seed == cfg["sim"]["seed"]


def test_heat_preset_grid_is_stable_for_its_step():
    cfg = load_config("heat_equation")
    m, dt = cfg["model"]["M"], cfg["sim"]["dt"]
    stiffest = laplace_eigenvalue(m, m)
    assert abs(1.0 + stiffest * dt) < 1.0


def test_eigen_preset_step_is_stable_for_its_grid():
    cfg = load_config("plaplace_p2_eigen")
    m, dt = cfg["model"]["M"], cfg["sim"]["dt"]
    stiffest = laplace_eigenvalue(m, m)
    assert abs(1.0 + stiffest * dt) < 1.0
