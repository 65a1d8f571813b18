"""Tests of the benchmark's own parts: input generation, the independent
census and output checks, the span tracer and the result line.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ptspectra
from ptspectra import (EckartParams, HulthenParams, PoschlTellerParams, eckart_spectrum,
                       hulthen_spectrum, rpt_spectrum)

import census
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = {"eckart": (EckartParams, eckart_spectrum),
           "rpt": (PoschlTellerParams, rpt_spectrum),
           "hulthen": (HulthenParams, hulthen_spectrum)}


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_pool_is_a_function_of_the_seed(workload):
    first = [op.describe() for op in workloads.build(workload, 7)[0]]
    again = [op.describe() for op in workloads.build(workload, 7)[0]]
    other = [op.describe() for op in workloads.build(workload, 8)[0]]
    assert first == again
    assert first != other


def test_sweep_seed_orders_the_same_draws():
    def draws(seed):
        return sorted(json.dumps(op.describe()) for op in workloads.sweep(seed))
    assert draws(0) == draws(5)


def test_sweep_draws_stratify_every_parameter():
    n = workloads.SWEEP_DRAWS
    side = int(np.sqrt(n))
    for family, box in workloads.SWEEP_BOX.items():
        values = np.array([op.values for op in workloads.sweep(3) if op.family == family])
        unit = (values - [lo for lo, _ in box]) / [hi - lo for lo, hi in box]
        cells = np.floor(unit[:, :2] * side).astype(int)
        assert sorted(map(tuple, cells)) == [(i, j) for i in range(side) for j in range(side)]
        for column in unit[:, 2:].T:
            assert sorted(np.floor(column * n).astype(int)) == list(range(n))


def _census_cases():
    cases = list(workloads.CANONICAL)
    cases += [(op.family, op.values) for op in workloads.sweep(0)]
    for seed in range(3):
        for op in workloads.tabulate(seed):
            if op.kind == "cli":
                k = len(workloads.SWEEP_BOX[op.family])
                cases.append((op.family, tuple(float(v) for v in op.argv[4:4 + 2 * k:2])))
    # boundary cases: D = 0 for Eckart, 2N+1 = -sigma*alpha-tau*beta for RPT,
    # s = 0 and tau*beta = 0 slots for Hulthen
    cases += [("eckart", (3.0, 1.0, 0.5)), ("eckart", (2.0, 0.0, 0.5)),
              ("rpt", (1.5, 0.5, 0.3)), ("rpt", (4.0, 1.0, 0.3)),
              ("hulthen", (3.0, 2.0)), ("hulthen", (1.0, -4.0)), ("hulthen", (0.5, 0.0))]
    return cases


@pytest.mark.parametrize("family,values", _census_cases())
def test_independent_census_matches_the_library(family, values):
    record, spectrum = LIBRARY[family]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        library = {(l.qn.N, l.qn.sigma, l.qn.tau): l.energy for l in spectrum(record(*values))}
    ours = census.CENSUS[family](values)
    assert ours.keys() == library.keys()
    for key, energy in library.items():
        assert ours[key] == pytest.approx(energy, rel=1e-12, abs=1e-12)


def test_report_check_catches_missing_levels_and_wrong_eigenvalues():
    values = workloads.CANONICAL[1][1]
    report = ptspectra.verify_family(PoschlTellerParams(*values))
    assert census.check_report("rpt", values, report, require_pass=True) == []
    dropped = dataclasses.replace(report, entries=report.entries[1:])
    assert census.check_report("rpt", values, dropped, require_pass=False)
    bad = dataclasses.replace(report.entries[0], eigenvalue=report.entries[0].eigenvalue + 1e-3)
    shifted = dataclasses.replace(report, entries=[bad] + report.entries[1:])
    assert census.check_report("rpt", values, shifted, require_pass=False)
    failed = dataclasses.replace(report, passed=False)
    assert census.check_report("rpt", values, failed, require_pass=True)


def test_csv_checks_catch_bad_tables(tmp_path):
    rows = 5
    good = np.ones((rows, len(census.TRANSFORM_HEADER))) * 1e-9
    path = tmp_path / "t.csv"

    def write(table, header=census.TRANSFORM_HEADER):
        lines = [",".join(header)] + [",".join(f"{v:.11e}" for v in row) for row in table]
        path.write_text("\n".join(lines) + "\n")

    write(good)
    assert census.check_transform(path, rows) == []
    assert census.check_transform(path, rows + 1)
    far = good.copy()
    far[2, -1] = 1e-3
    write(far)
    assert census.check_transform(path, rows)
    broken = good.copy()
    broken[0, 0] = np.nan
    write(broken)
    assert census.check_transform(path, rows)
    write(good[:, :len(census.SAMPLE_HEADER)], census.SAMPLE_HEADER)
    assert census.check_sample(path, rows) == []


def test_tracer_self_times_fit_inside_each_operation(tmp_path):
    ops = workloads.canonical(0) + workloads.tabulate(0)[:5]
    tracer = spans.Tracer()
    for i, op in enumerate(ops):
        with tracer.installed(), tracer.operation(i):
            op.run(str(tmp_path))
    own = tracer.self_times()
    assert min(own) >= 0.0
    for i in range(len(ops)):
        wall = [end - start for name, start, end, _, op, _ in tracer.spans
                if op == i and name == "op"]
        assert len(wall) == 1
        assert sum(t for t, span in zip(own, tracer.spans) if span[4] == i) <= wall[0] * (1 + 1e-9)
    names = {span[0] for span in tracer.spans}
    assert set(spans.TIMED) - {"contour.liouville_potential"} <= names


def test_tracer_restores_the_library():
    before = [getattr(getattr(ptspectra, m), a) for m, a, _, _ in spans.HOOKS]
    with spans.Tracer().installed():
        assert ptspectra.numeric.verify_family is not before[0]
    after = [getattr(getattr(ptspectra, m), a) for m, a, _, _ in spans.HOOKS]
    assert all(x is y for x, y in zip(before, after))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_the_declared_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "canonical",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
