"""Preset resolution, canonicalization, validation, and hashing."""

import inspect
import json
import re

import pytest

from spde_manifold import (
    ConfigError,
    Parametrization,
    SamplingSpec,
    SimConfig,
    build_manifold,
    build_model,
    build_sim_config,
    load_config,
    sweep,
    sweep_config,
)
from spde_manifold.config import (
    build_sampling,
    canonical_json,
    config_hash,
    manifold_hash,
    model_hash,
    preset_names,
)
from spde_manifold.grid import laplace_eigenvalue
from spde_manifold.hermite import NormScale
from spde_manifold.models import ItoTypeModel, PLaplaceModel
from spde_manifold.tangency import FORMS

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


UNDECODABLE = {
    "not-utf8": b"\xff\xfe{}",  # a UnicodeDecodeError
    "too-deep": b"[" * 100000 + b"]" * 100000,  # a RecursionError in the decoder
}


@pytest.mark.parametrize("content", list(UNDECODABLE.values()), ids=list(UNDECODABLE))
def test_a_file_json_cannot_decode_is_a_config_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="not valid JSON") as err:
        load_config(path)
    assert str(path) in str(err.value)


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
    for domain in ([[2.0, -2.0]], [[0.0, float("nan")]], [[float("-inf"), 0.0]]):
        with pytest.raises(ConfigError, match="lo < hi"):
            load_config({"preset": "heat_equation", "manifold": {"domain": domain}})


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


@pytest.mark.parametrize("x0", [[3.0], [-2.5], [float("nan")], [float("inf")]])
def test_sim_x0_outside_the_chart_box_is_rejected(x0):
    with pytest.raises(ConfigError, match=r"sim\.x0 must lie in the chart box \[\[-2.0, 2.0\]\]"):
        load_config({"preset": "ito_translation_d1", "sim": {"x0": x0, "paths": 2, "horizon": 0.01}})


def test_sim_x0_on_the_chart_box_edge_loads():
    cfg = load_config({"preset": "negative_control", "sim": {"x0": [-1.0, 1.0]}})
    assert cfg["sim"]["x0"] == [-1.0, 1.0]
    with pytest.raises(ConfigError, match="sim.x0"):
        load_config({"preset": "negative_control", "sim": {"x0": [0.0, 1.0 + 1e-12]}})


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
        ("form", FORMS),
    ):
        for value in values:
            assert load_config({"preset": "ito_zero", "check": {key: value}})["check"][key] == value


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("check", "margin_frac", -0.5),  # would sample outside the chart box
        ("check", "margin_frac", 0.5),  # would shrink the box to a point
        ("check", "margin_frac", 0.6),  # would turn the box inside out
        ("check", "points_per_axis", 0),
        ("check", "base_threshold", -1e-6),
        ("check", "spill_factor", -1.0),
        ("check", "form_error_tol", -1.0),  # would fail every "both" sweep
        ("sim", "explosion_ceiling", 0.0),
        ("sim", "explosion_ceiling", -1.0),
    ],
)
def test_out_of_range_settings_fail_at_load(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config({"preset": "heat_equation", section: {key: value}})


@pytest.mark.parametrize(
    "source, match",
    [
        ({"preset": "plaplace_p2_eigen", "model": {"p": 1.5}}, "model: exponent"),
        ({"preset": "heat_equation", "model": {"M": 1}}, "model: need at least two"),
        (
            {"preset": "heat_equation", "model": {"M": 4},
             "manifold": {"vectors": [{"kind": "sine", "k": 5}]}},
            "manifold: mode number",
        ),
        ({"preset": "ito_translation_d1", "model": {"b": [{"kind": "constant", "d": 2}]}},
         "model: dual dimension"),
        (
            {"preset": "ito_translation_d1",
             "model": {"extra_fields": [{"kind": "basis", "d": 2, "index": [0, 0]}]}},
            "model: extra field dimension",
        ),
        # chart images outside the model's states
        (
            {"preset": "heat_equation",
             "manifold": {"vectors": [{"kind": "grid_values", "values": [1.0, 2.0]}]}},
            "manifold: grid size mismatch",
        ),
        (
            {"preset": "heat_equation",
             "manifold": {"vectors": [{"kind": "sine", "m": 8, "k": 1}]}},
            "manifold: grid size mismatch",
        ),
        (
            {"preset": "negative_control",
             "manifold": {"vectors": [{"kind": "basis", "d": 2, "index": [0, 0]},
                                      {"kind": "basis", "d": 2, "index": [1, 0]}]}},
            "manifold: dimension mismatch",
        ),
        # step settings SimConfig rejects
        ({"preset": "ito_zero", "sim": {"horizon": 0.001, "dt": 0.01}},
         "sim.horizon shorter than one step"),
        ({"preset": "ito_zero", "sim": {"dt": float("nan")}}, "sim.dt must be finite and positive"),
        ({"preset": "ito_zero", "sim": {"horizon": float("inf")}},
         "sim.horizon must be finite and positive"),
        ({"preset": "ito_zero", "sim": {"horizon": -0.1}}, "sim.horizon must be finite and positive"),
        # a horizon off the step grid, which rounding would cut short or run past
        ({"preset": "ito_zero", "sim": {"horizon": 0.1, "dt": 0.03}},
         "sim.horizon 0.1 is not a whole number of steps"),
        ({"preset": "ito_zero", "sim": {"horizon": 0.5, "dt": 0.3}},
         "sim.horizon 0.5 is not a whole number of steps"),
    ],
)
def test_settings_the_built_objects_reject_fail_at_load(source, match):
    with pytest.raises(ConfigError, match=match):
        load_config(source)


def test_load_checks_the_chart_without_evaluating_it(monkeypatch):
    import spde_manifold.config as config

    def unevaluated(make):
        def build(*args):
            chart = make(*args)
            chart.eval = lambda x: pytest.fail("loading evaluated the chart")
            return chart

        return build

    for name in ("translation_chart", "linear_span_chart"):
        monkeypatch.setattr(config, name, unevaluated(getattr(config, name)))
    for name in preset_names():
        load_config(name)


def test_range_edges_load():
    edges = {"margin_frac": 0.0, "points_per_axis": 1, "base_threshold": 0.0, "spill_factor": 0.0}
    cfg = load_config({"preset": "heat_equation", "check": edges})
    assert {key: cfg["check"][key] for key in edges} == edges


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_record_distance_must_be_a_json_boolean(value):
    with pytest.raises(ConfigError, match="sim.record_distance"):
        load_config({"preset": "ito_zero", "sim": {"record_distance": value}})


def test_record_distance_keeps_its_boolean():
    for value in (False, True):
        cfg = load_config({"preset": "ito_zero", "sim": {"record_distance": value}})
        assert cfg["sim"]["record_distance"] is value
        assert build_sim_config(cfg).record_distance is value


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
    field = build_model(cfg).extra_fields[0]
    assert field.coeffs[4] == 2.0
    assert field.coeffs.sum() == 2.0


def test_coeffs_state_kind_round_trip():
    coeffs = {"kind": "coeffs", "entries": [[[0], 0.5], [[3], -1.0]]}
    cfg = load_config({"preset": "ito_zero", "model": {"extra_fields": [coeffs]}})
    field = build_model(cfg).extra_fields[0]
    assert (field.coeffs[0], field.coeffs[3]) == (0.5, -1.0)
    assert field.coeffs.sum() == -0.5
    bad = {"kind": "coeffs", "d": 1, "n": 2, "entries": [[[5], 1.0]]}
    with pytest.raises(ConfigError, match="out of range"):
        load_config({"preset": "ito_zero", "model": {"extra_fields": [bad]}})


def test_dual_builders():
    model = build_model(load_config({
        "preset": "ito_zero",
        "model": {
            "b": [{"kind": "constant", "n": 4, "value": 2.0}],
            "sigma": [[{"kind": "dual_coeffs", "n": 3, "entries": [[[1], 4.0]]}]],
        },
    }))
    assert (model.b[0].d, model.b[0].N) == (1, 4)
    assert model.sigma[0][0].coeffs.tolist() == [0.0, 4.0, 0.0, 0.0]
    with pytest.raises(ConfigError, match="unknown dual kind"):
        load_config({"preset": "ito_zero", "model": {"b": [{"kind": "mystery"}]}})


def test_sim_config_seed_override():
    cfg = load_config("ito_zero")
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


@pytest.mark.parametrize(
    "source, path",
    [
        ({"preset": "ito_zero", "manifold": {"profile": {"kind": "basis", "index": 3}}},
         "manifold.profile.index must be a list"),
        ({"preset": "ito_zero",
          "model": {"extra_fields": [{"kind": "coeffs", "entries": [[0, 1.0]]}]}},
         "model.extra_fields[0].entries[0][0] must be a list"),
        ({"preset": "ito_zero",
          "model": {"extra_fields": [{"kind": "coeffs", "entries": [[[0]]]}]}},
         "model.extra_fields[0].entries[0] must be a pair"),
        ({"preset": "ito_zero", "sim": {"x0": 0.5}}, "sim.x0 must be a list"),
        ({"preset": "ito_zero", "sim": None}, "sim must be a dict"),
        ({"preset": "ito_zero", "check": []}, "check must be a dict"),
        ({"preset": "ito_zero", "manifold": {"domain": "ab"}}, "manifold.domain must be a list"),
        ({"preset": "ito_zero", "manifold": {"domain": [[-1.0, 0.0, 1.0]]}},
         "manifold.domain[0] must be a pair"),
        ({"preset": "heat_equation",
          "model": {"fields": [{"kind": "grid_values", "values": 5}]}},
         "model.fields[0].values must be a list"),
        ({"preset": ["ito_zero"]}, "unknown preset"),
    ],
)
def test_malformed_shapes_fail_as_config_errors(source, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        load_config(source)


def test_a_json_file_must_hold_an_object(tmp_path):
    path = tmp_path / "null.json"
    path.write_text("null")
    with pytest.raises(ConfigError, match="must hold a JSON object"):
        load_config(path)


@pytest.mark.parametrize(
    "source, path",
    [
        ({"preset": "ito_translation_d1_negative",
          "model": {"extra_fields": [{"kind": "basis", "index": [4], "coef": value}]}},
         "model.extra_fields[0].coef")
        for value in (float("nan"), float("1e400"), -float("inf"), 10**400)
    ]
    + [
        ({"preset": "plaplace_p2_eigen", "model": {"p": float("nan")}}, "model.p"),
        ({"preset": "ito_zero",
          "model": {"extra_fields": [{"kind": "coeffs", "entries": [[[0], float("nan")]]}]}},
         "model.extra_fields[0].entries[0][1]"),
        ({"preset": "ito_zero", "model": {"b": [{"kind": "dirac", "z": [float("inf")]}]}},
         "model.b[0].z[0]"),
        ({"preset": "ito_zero", "check": {"spill_factor": float("inf")}}, "check.spill_factor"),
    ],
)
def test_non_finite_numbers_fail_at_load(source, path):
    with pytest.raises(ConfigError, match=re.escape(path) + " must be a finite number"):
        load_config(source)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_outside_the_philox_key_range_fails_at_load(seed):
    with pytest.raises(ConfigError, match=re.escape("sim.seed must be in [0, 2**128)")):
        load_config({"preset": "ito_zero", "sim": {"seed": seed}})
    with pytest.raises(ValueError, match="seed must be in"):
        SimConfig(seed=seed)


def test_seed_range_edges_load():
    for seed in (0, 2**128 - 1):
        cfg = load_config({"preset": "ito_zero", "sim": {"seed": seed}})
        assert build_sim_config(cfg).seed == seed


PRESET_HASHES = {
    "heat_equation": "cb60d5ecaad4a2d3",
    "ito_translation_d1": "d9c274532614df86",
    "ito_translation_d1_negative": "a98f2e1a3e51b233",
    "ito_zero": "fd3dbbd33756527b",
    "negative_control": "da6e9bdcad0e68c7",
    "plaplace_p2_eigen": "f8658bfbb34b52fb",
}


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_canonical_form_is_pinned(name):
    # the hash names every run directory: a canonicaliser change must not move it
    assert config_hash(load_config(name))[:16] == PRESET_HASHES[name]


def test_loader_defaults_match_the_objects_defaults():
    cfg = load_config({
        "model": {"type": "plaplace", "M": 16},
        "manifold": {"type": "span", "vectors": [{"kind": "sine", "k": 1}], "domain": [[-1, 1]]},
    })
    swept = sweep_config(cfg)
    assert swept.pop("sampling") == SamplingSpec()
    keyword_defaults = {
        name: param.default
        for name, param in inspect.signature(sweep).parameters.items()
        if param.kind is param.KEYWORD_ONLY
    }
    assert swept == {name: keyword_defaults[name] for name in swept}
    assert len(swept) + 3 == len(cfg["check"])
    assert build_sim_config(cfg) == SimConfig()
