"""Tests of the benchmark itself: workloads, oracles, tracing and contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def tiny(name, tmp_path, traced=False):
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(5, workloads.TINY[name], tmp_path)
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        outputs = workload.execute(inputs)
    finally:
        if tracer:
            tracer.uninstall()
    return workload, inputs, outputs, tracer


def gate_of(workload, inputs, outputs):
    return workloads.check(workload, inputs, outputs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_oracle(name, tmp_path):
    gate = gate_of(*tiny(name, tmp_path)[:3])
    assert gate.attempted > 0
    assert gate.failed == 0, gate.failures


@pytest.mark.parametrize("name, layer", [
    ("genera", "symcalc"), ("riemann-roch", "chow"),
    ("strata-wide", "sncpair"), ("blowup-batch", "hodge")])
def test_traced_tiny_workload_reaches_its_layer(name, layer, tmp_path):
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attrs, _, _ in tracing.TARGETS for attr in attrs}
    new = Fraction.__dict__["__new__"]
    workload, inputs, outputs, tracer = tiny(name, tmp_path, traced=True)
    assert gate_of(workload, inputs, outputs).failed == 0
    counts, times = tracer.summary(1.0)
    assert times[f"{layer}.self_s"] > 0
    assert counts["fractions.created"] > 0
    # uninstall restored every patched attribute
    assert all(owner.__dict__[attr] is value
               for (owner, attr), value in before.items())
    assert Fraction.__dict__["__new__"] is new


def perturb_report(run_, name, value):
    report = json.loads(run_.stdout)
    for check in report["checks"]:
        if check["name"] == name:
            check["actual"] = value
    run_.stdout = json.dumps(report)


@pytest.mark.parametrize("name, perturb", [
    ("genera", lambda out: perturb_report(out[0], "m2-todd-identity-1", "1/2")),
    ("riemann-roch", lambda out: out[0].update(euler=out[0]["euler"] + 1)),
    ("riemann-roch", lambda out: out[1]["chi_kd"].reverse()),
    ("riemann-roch", lambda out: out[2].update(adiabatic=Fraction(1, 3))),
    ("strata-wide", lambda out: perturb_report(out[1], "center-coefficient", "7")),
    ("strata-wide", lambda out: perturb_report(out[2], "fprime-at-1", "1")),
    ("blowup-batch", lambda out: perturb_report(out[0], "instance-0003", "2/3")),
    ("blowup-batch", lambda out: setattr(out[1], "code", 1)),
    # reports of another shape fail the check instead of stopping the run
    ("genera", lambda out: setattr(out[0], "stdout", "[]")),
    ("blowup-batch", lambda out: setattr(out[0], "stdout", '{"checks": [1]}')),
    ("riemann-roch", lambda out: out[0].pop("euler")),
])
def test_oracle_rejects_perturbed_value(name, perturb, tmp_path):
    workload, inputs, outputs, _ = tiny(name, tmp_path)
    perturb(outputs)
    assert gate_of(workload, inputs, outputs).failed > 0


def test_rr_oracle_matches_known_spaces():
    # P^1 x P^1 x P^1: b = 1, 3, 3, 1; int c_1 c_2 = 24 (c_1 = 2(a+b+c),
    # c_2 = 4(ab+bc+ca)); O(1,1,1) has 8 sections.
    want = workloads.rr_expected(
        {"factors": [1, 1, 1], "bundles": [], "divisor": [1, 1, 1]})
    assert want["euler"] == 8
    assert want["chi_omega"] == [1, -3, 3, -1]
    assert want["adiabatic"] == 3 * 8 + 24
    assert want["chi_kd"] == [8, 27]


def test_self_times_subtract_the_union_of_children():
    spans = [
        (0, -1, 0, 100),   # root
        (1, 0, 10, 40),    # child
        (2, 1, 20, 30),    # grandchild: counts against 1, not 0
        (3, 0, 30, 50),    # overlaps child 1 by 10
        (4, 0, 90, 120),   # runs past the root's end
    ]
    own = tracing.self_times(spans)
    assert own == {0: 100 - (50 - 10) - (100 - 90), 1: 20, 2: 10, 3: 20, 4: 30}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile(list(map(float, range(20))))[0] == 50
    assert run.tail_percentile(list(map(float, range(100))))[0] == 90


def test_samples_scale_to_reference_speed():
    samples = [{"wall_s": 1.0, "gauge_s": 2 * run.GAUGE_REF_S},
               {"wall_s": 0.6, "gauge_s": run.GAUGE_REF_S}]
    assert run.at_reference_speed(samples, "wall_s") == [0.5, 0.6]


def test_deadline_covers_a_worker_that_hangs_before_ready(tmp_path,
                                                          monkeypatch):
    hang = tmp_path / "hang.py"
    hang.write_text("import time\ntime.sleep(60)\nprint('ready')\n")
    monkeypatch.setattr(run, "WORKER", hang)
    start = time.perf_counter()
    with pytest.raises(run.BenchError, match="timed out"):
        run.spawn("genera", 1, time.perf_counter() + 1.0)
    assert time.perf_counter() - start < 10


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "genera", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blowup-batch",
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.metric_units("per_layer"))
    got = result["metrics"]
    assert got["sncpair.validate.per_pair"]["value"] > 1
    assert got["symcalc.root_mul.calls"]["value"] == 0
    assert got["chow.mul.calls"]["value"] == 0
