"""Tests of the benchmark's own code: inputs, workloads and the tracer."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads
from fockmod import cli, fock, models, weyl


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    make_inputs, _ = workloads.WORKLOADS[name]
    assert _same(make_inputs(5), make_inputs(5))
    assert not _same(make_inputs(5), make_inputs(6))


def test_runner_and_sampler_name_the_same_workloads():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("seed", range(12))
def test_grid_scenarios_place_vectors_by_design(seed):
    """Quiet vectors sit on exact zeros of the phase, witnesses well off it."""
    for config in workloads.grid_scale_inputs(seed):
        grid = weyl.GridSpec(**{
            "dimension": config["grid"]["dimension"],
            "points_per_axis": config["grid"]["points"],
            "components": config["grid"]["components"],
        })
        kind = config["sigma"]["kind"]
        phases = [
            models.sigma_convolve(kind, grid, g["s0"]["values"], config["sigma"].get("radius"))
            for g in config["generators"]
        ]

        def at(name):
            return grid.index(tuple(config["vectors"][name]["profile"]["center"]))

        assert phases[0][at("wQ0")] == 0.0 and phases[0][at("wQ0b")] == 0.0
        assert phases[1][at("wQ1")] == 0.0
        assert phases[0][at("wCalm")] == 0.0 and phases[1][at("wCalm")] == 0.0
        for k in (0, 1):
            lo, hi = workloads.PHASE_BAND
            assert lo - 1e-9 <= abs(phases[k][at(f"wIn{k}")]) <= hi + 1e-9


@pytest.mark.parametrize("seed", [1, 2])
def test_grid_scale_scenarios_pass(seed):
    out = workloads.grid_scale_run(workloads.grid_scale_inputs(seed))
    assert out.attempted == 12 and out.failed == 0, out.statuses


@pytest.mark.parametrize("seed", [1, 2])
def test_dense_twist_passes_with_dense_columns(seed):
    inputs = workloads.dense_twist_inputs(seed)
    ctx = workloads.dense_twist_context(inputs)
    u = ctx.module.twist.matrix((1, 0))
    assert np.count_nonzero(np.abs(u) > 1e-12) > 4 * u.shape[0]
    out = workloads.dense_twist_run(inputs)
    assert out.attempted == 4 and out.failed == 0, out.statuses


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_is_span_time_minus_children():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def busy(dt):
        clock.t += dt

    def leaf():
        busy(1.0)

    def middle():
        busy(2.0)
        leaf_w()
        busy(0.5)
        leaf_w()

    def other():
        busy(4.0)

    def top():
        busy(0.25)
        middle_w()
        other_w()

    leaf_w = tr.wrap("fock.leaf", leaf)
    middle_w = tr.wrap("models.middle", middle, span=True)
    other_w = tr.wrap("weyl.other", other)
    tr.wrap(tracing.ROOT, top, span=True)()
    m = tr.metrics()
    assert m["fock.leaf.calls"] == 2 and m["fock.leaf.self_s"] == 2.0
    assert m["models.middle.total_s"] == 4.5 and m["models.middle.self_s"] == 2.5
    assert m["weyl.other.self_s"] == 4.0
    assert m["trace.wall_s"] == 8.75
    layers = tr.layer_self()
    assert layers["other"] == 0.25
    assert sum(layers.values()) == m["trace.wall_s"]
    # spans: root first, the models span nested under it
    assert [s[0] for s in tr.spans] == [tracing.ROOT, "models.middle"]
    assert tr.spans[1][3] == 0 and tr.spans[0][3] is None
    assert tr.spans[1][1:3] == (0.25, 4.75)


def test_tracer_is_transparent_and_restores_the_library():
    argv = ["model", "--config", "lebesgue_gauge", "--format", "json"]
    plain = workloads.battery_run(argv)
    original = fock.create
    tr = tracing.Tracer()
    tr.install()
    try:
        assert fock.create is not original and models.create is fock.create
        traced = tr.wrap(tracing.ROOT, workloads.battery_run, span=True)(argv)
    finally:
        tr.uninstall()
    assert fock.create is original and models.create is original
    assert cli.build_context is models.build_context
    assert traced.digest == plain.digest
    m = tr.metrics()
    assert m["fock.create.calls"] > 0 and m["models.check.car.calls"] == 1
    layers = tr.layer_self()
    assert sum(layers.values()) == pytest.approx(m["trace.wall_s"], rel=1e-9)
    names = {s[0] for s in tr.spans}
    assert {"cli.main", "cli.run_config", "models.build_context", "models.check.car"} <= names


def test_runner_fails_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_dense_twist_work_does_not_depend_on_the_seed():
    for seed in range(6):
        inputs = workloads.dense_twist_inputs(seed)
        labels = [sorted((f[1], g[1])) for f, g in inputs["free"] + inputs["nonfree"]]
        assert labels == [
            [(0, 0), workloads.DENSE_FREE_LABEL],
            [(0, 0), workloads.DENSE_FREE_LABEL],
            [(0, 0), workloads.DENSE_NONFREE_LABEL],
        ]


def test_trace_run_with_a_failed_sample_still_prints_a_result(monkeypatch, capsys):
    def sample(self, mode=None):
        if mode != "--trace":
            self.errors.append("exit 1")
            return None
        return {"attempted": 1, "failed": 0, "failures": [], "digest": "d", "wall_s": 1.0, "trace": {}}

    monkeypatch.setattr(run.Sampler, "sample", sample)
    code = run.main(["--workload", "dense_twist", "--seed", "1", "--seconds", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is False and result["failed"] == 1
