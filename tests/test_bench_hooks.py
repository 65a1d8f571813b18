"""The benchmark drives the library from `perfbench/`; these tests catch,
in the unit suite, the breakages that otherwise show only when it is run.
Its tracer wraps library functions by module attribute, so every name it
hooks must exist, and every report of its verify pools must pass the
benchmark's independent closed-form census."""

import importlib
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    hooks = _load("spans").HOOKS
    assert hooks
    missing = [(m, attr) for m, attr, _, _ in hooks
               if not callable(getattr(importlib.import_module(f"ptspectra.{m}"), attr, None))]
    assert missing == []


@pytest.mark.parametrize("workload", ["canonical", "sweep"])
def test_verify_pools_pass_the_census(monkeypatch, workload):
    # workloads.py imports its sibling as a top-level `census` module
    monkeypatch.setitem(sys.modules, "census", _load("census"))
    workloads = _load("workloads")
    problems = [p for op in workloads.BUILDERS[workload](1) for p in op.check(op.run(None))]
    assert problems == []


def test_traced_wavefunction_spans_count_the_sampled_nodes(monkeypatch):
    # the hooks count np.size of a wave function's path argument, so a
    # SampledPath must count its nodes, not 1 per call
    monkeypatch.setitem(sys.modules, "census", _load("census"))
    workloads, spans = _load("workloads"), _load("spans")
    tracer = spans.Tracer()
    pool = workloads.BUILDERS["canonical"](1)
    nodes = []
    with tracer.installed():
        for i, op in enumerate(pool):
            with tracer.operation(i):
                report = op.run(None)
            assert report.passed  # every level sampled its wave function
            nodes += [report.grid.refined().n_points] * len(report.entries)
    counts = [s[5] for s in tracer.spans if s[0] == "spectra.wavefunction"]
    assert len(nodes) == 6 and counts == nodes
    metrics = spans.layer_metrics(tracer, len(pool), len(pool), workloads.verdict([]), 0)
    assert metrics["spectra.wavefunction.calls"]["value"] == 6
    assert metrics["spectra.wavefunction.points"]["value"] == sum(nodes)


def test_traced_powers_and_transports_follow_the_levels(monkeypatch):
    # every level's wave function takes its powers in one
    # `contour.power_along_path` span, Eckart's included, and each Hulthen
    # level is carried to the arch in one `contour.transport_wavefunction`
    monkeypatch.setitem(sys.modules, "census", _load("census"))
    workloads, spans = _load("workloads"), _load("spans")
    tracer = spans.Tracer()
    hulthen_levels = 0
    with tracer.installed():
        for i, op in enumerate(workloads.BUILDERS["canonical"](1)):
            with tracer.operation(i):
                report = op.run(None)
            if report.family == "hulthen":
                hulthen_levels += len(report.entries)
    names = [s[0] for s in tracer.spans]
    assert hulthen_levels > 0
    assert names.count("contour.power_along_path") == names.count("spectra.wavefunction") > 0
    assert names.count("contour.transport_wavefunction") == hulthen_levels


def test_fresh_sweep_box_draws_verify_without_a_warning(monkeypatch):
    # the sweep workload's stratified draws with fresh streams: every report
    # runs with each warning an error, and every level passes or is typed
    monkeypatch.setitem(sys.modules, "census", _load("census"))
    workloads = _load("workloads")
    numeric = importlib.import_module("ptspectra.numeric")
    records = {name: type(fam.canonical) for name, fam in numeric.FAMILIES.items()}
    levels = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (7, 11):
            rng = np.random.default_rng(seed)
            for family in workloads.FAMILIES:
                for values in workloads._stratified(rng, workloads.SWEEP_BOX[family]):
                    levels += numeric.verify_family(records[family](*values)).entries
    assert len(levels) > 300
    assert [e for e in levels if not e.converged and e.diagnostic is None] == []
