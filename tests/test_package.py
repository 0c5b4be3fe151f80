"""The public surface of the package and the names the benchmark tracer wraps."""

import importlib
import importlib.util
import json
import pkgutil
import re
import sys
from pathlib import Path

import spde_manifold
import spde_manifold.cli

ROOT = Path(__file__).resolve().parents[1]


def _library_use_names() -> list:
    """Backticked names in the bullet list of the README's "Library use" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", section, flags=re.MULTILINE)
    return [name for item in bullets for name in re.findall(r"`([A-Za-z_]\w*)`", item)]


def test_every_exported_name_resolves():
    for name in spde_manifold.__all__:
        assert getattr(spde_manifold, name, None) is not None, name
    assert len(set(spde_manifold.__all__)) == len(spde_manifold.__all__)


def test_every_module_export_resolves():
    for info in pkgutil.iter_modules(spde_manifold.__path__):
        module = importlib.import_module(f"spde_manifold.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"spde_manifold.{info.name}.{name}"
        assert len(set(module.__all__)) == len(module.__all__), info.name


def test_every_module_export_is_used_beyond_unit_tests():
    """A module's exported name must be used by the package, the benchmark, the
    README or the acceptance tests, not only by unit tests and its own definition."""
    exports = re.compile(r"^__all__ = \[.*?^\]\n", re.MULTILINE | re.DOTALL)
    package = ROOT / "src" / "spde_manifold"
    sources = {p.stem: exports.sub("", p.read_text()) for p in sorted(package.glob("*.py"))}
    others = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    others += [(ROOT / name).read_text() for name in ("README.md", "tests/test_acceptance.py")]
    texts = [*sources.values(), *others]
    unused = []
    for info in pkgutil.iter_modules(spde_manifold.__path__):
        for name in importlib.import_module(f"spde_manifold.{info.name}").__all__:
            word = re.escape(name)
            uses = sum(len(re.findall(rf"\b{word}\b", text)) for text in texts)
            own = sources[info.name]
            if uses <= len(re.findall(rf"^(?:(?:def|class) {word}\b|{word}\s*[:=])", own, re.M)):
                unused.append(f"spde_manifold.{info.name}.{name}")
    assert not unused


def test_readme_library_use_lists_exactly_the_exports():
    names = _library_use_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(spde_manifold.__all__)


def _bench_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def _bench_workloads(monkeypatch):
    """``bench/workloads.py`` loaded unedited, as a module of its own."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def test_bench_tracer_finds_every_target():
    original = spde_manifold.manifold.distance_to_manifold
    tracer = _bench_tracer()
    try:
        tracer.install()  # raises TraceTargetError when a traced name is gone
        assert spde_manifold.manifold.distance_to_manifold is not original
    finally:
        tracer.uninstall()
    assert spde_manifold.manifold.distance_to_manifold is original
    assert spde_manifold.simulate.distance_to_manifold is original


def test_bench_tracer_observes_one_coupled_run():
    """The observers read the results of the functions they wrap, so run them once."""
    tracer = _bench_tracer()
    try:
        tracer.install()
        cfg = spde_manifold.load_config("ito_translation_d1")
        model, chart = spde_manifold.build_model(cfg), spde_manifold.build_manifold(cfg)
        dt = cfg["sim"]["dt"]
        sim = spde_manifold.SimConfig(horizon=5 * dt, dt=dt, paths=2, seed=cfg["sim"]["seed"])
        spde_manifold.coupled_compare(model, chart, cfg["sim"]["x0"], sim)
        counts, _ = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert tracer.counts["simulate.simulate_full.steps"] == 5
    assert tracer.counts["simulate.simulate_reduced.steps"] == 5
    assert counts["simulate.wiener_increments.entries"] == 2 * 5 * model.n_noise
    assert counts["manifold.distance.calls"] > 0


def test_bench_transport_outputs_pass_their_checks(tmp_path, capsys, monkeypatch):
    """The benchmark's coupled_transport commands, run through the CLI on five
    fixed seeds, write artifacts its own output checks accept."""
    workloads = _bench_workloads(monkeypatch)
    workload = workloads.WORKLOADS["coupled_transport"]
    for seed in (1, 2, 3, 4, 5):
        outputs = {}
        for cmd in workload.commands:
            config = tmp_path / f"{cmd.label}.json"
            config.write_text(json.dumps(cmd.config))
            out = tmp_path / f"seed{seed}-{cmd.label}"
            argv = [cmd.verb, "--config", str(config), "--out", str(out), "--seed", str(seed)]
            assert spde_manifold.cli.main(argv) == cmd.exit_code, (seed, cmd.label)
            outputs[cmd.label] = workloads.read_outputs(cmd.verb, out)
        assert workload.check(outputs) == [], seed
    capsys.readouterr()


def test_bench_tracer_observes_the_check_sweep(tmp_path, capsys, monkeypatch):
    """The benchmark's check_sweep commands, run through the CLI under the tracer,
    record calls in every layer that workload names as one it must reach."""
    workload = _bench_workloads(monkeypatch).WORKLOADS["check_sweep"]
    tracer = _bench_tracer()
    try:
        tracer.install()
        for cmd in workload.commands:
            config = tmp_path / f"{cmd.label}.json"
            config.write_text(json.dumps(cmd.config))
            argv = [cmd.verb, "--config", str(config), "--out", str(tmp_path / cmd.label)]
            assert spde_manifold.cli.main(argv) == cmd.exit_code, cmd.label
        counts, _ = tracer.snapshot()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    silent = [layer for layer in workload.nonzero_layers if not counts[f"{layer}.calls"]]
    assert not silent
