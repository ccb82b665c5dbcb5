"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oamclone import cloning, qudit  # noqa: E402


def tiny(name, tmp_path):
    if name == "clone_sweep":
        return workloads.CloneSweep(sweep_n=2, singles=3, ancillas=4)
    if name == "qudit_scale":
        return workloads.QuditScale(dims=(2, 3))
    return workloads.CliScenarios(run.SRC, tmp_path, scenarios=("clone",))


def failed(records):
    return [r for r in records if r.problem]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_at_tiny_size(name, tmp_path):
    workload = tiny(name, tmp_path)
    metrics, records = run.measure(workload, seed=3, seconds=1e-3)
    assert records and not failed(records)
    for metric in ("setup_s", "peak_rss_mb", "cycle_ms_p50", "cycle_ms_p90", "latency_ms_p50", "latency_ms_p90"):
        value, unit, n = metrics[metric]
        assert math.isfinite(value) and value > 0 and n >= 1, metric


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_contract_metric(name, tmp_path):
    metrics, records, tracers = run.trace(tiny(name, tmp_path), seed=3, seconds=1e-3)
    assert not failed(records) and tracers[0].spans
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in contract if m["name"] not in metrics]
    assert not missing


def test_same_seed_gives_same_inputs():
    def clone_of_first_input(seed):
        ops = workloads.QuditScale(dims=(3,)).cycle(workloads.np.random.default_rng(seed))
        return ops[0].call().clone_density.matrix

    assert (clone_of_first_input(9) == clone_of_first_input(9)).all()
    assert not (clone_of_first_input(9) == clone_of_first_input(10)).all()


def test_cloner_off_by_1e6_counts_as_failure(monkeypatch):
    real = cloning.run_cloner_full

    def off(*args, **kwargs):
        result = real(*args, **kwargs)
        result.fidelity += 1e-6
        return result

    monkeypatch.setattr(cloning, "run_cloner_full", off)
    _, records = run.measure(tiny("clone_sweep", None), seed=3, seconds=1e-3)
    assert len(failed(records)) == len(records)
    assert {"sweep", "clone", "sampled"} <= {r.kind for r in records}


def test_qudit_off_by_1e6_counts_as_failure(monkeypatch):
    real = qudit.qudit_clone

    def off(spec, *args, **kwargs):
        result = real(spec, *args, **kwargs)
        result.success_probability -= 1e-6
        return result

    monkeypatch.setattr(qudit, "qudit_clone", off)
    _, records = run.measure(tiny("qudit_scale", None), seed=3, seconds=1e-3)
    assert len(failed(records)) == len(records)


def test_raising_op_counts_as_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(qudit, "qudit_clone", boom)
    _, records = run.measure(tiny("qudit_scale", None), seed=3, seconds=1e-3)
    assert all("boom" in r.problem for r in records)


def _clone_files(fidelity="0.8333333333333334", success="0.375"):
    doc = ('{"config": {}, "results": {"fidelity": %s, "success_prob": %s}}'
           % (fidelity, success))
    return {"clone.json": doc.encode(), "clone.csv": b"x\n"}


def test_scenario_checker_accepts_good_output():
    assert checks.scenario_output("clone", _clone_files()) is None


@pytest.mark.parametrize("fidelity", ["NaN", "Infinity", "-Infinity", "0.8333343333333334"])
def test_nan_or_wrong_value_in_scenario_json_is_a_failure(fidelity):
    assert checks.scenario_output("clone", _clone_files(fidelity)) is not None


def test_missing_or_extra_scenario_file_is_a_failure():
    files = _clone_files()
    del files["clone.csv"]
    assert checks.scenario_output("clone", files) is not None
    assert checks.scenario_output("clone", {**_clone_files(), "extra": b""}) is not None


def test_differing_same_seed_outputs_are_a_failure(tmp_path):
    workload = tiny("cli_scenarios", tmp_path)
    for tweak, want_ok in ((b"", True), (b"\n", False)):
        run_dir = tmp_path / f"run{len(tweak)}"
        (run_dir / "out").mkdir(parents=True)
        for name, data in _clone_files().items():
            (run_dir / "out" / name).write_bytes(data + tweak)
        problem = workload._check("clone", 5, workloads.CliRun(0, run_dir))
        assert (problem is None) == want_ok, problem


def test_nonzero_exit_is_a_failure(tmp_path):
    workload = tiny("cli_scenarios", tmp_path)
    (tmp_path / "w").mkdir()
    assert "exited 3" in workload._check("clone", 5, workloads.CliRun(3, tmp_path / "w"))


def test_self_times_sum_to_at_most_traced_wall_time():
    workload = workloads.CloneSweep(sweep_n=2, singles=3, ancillas=4)
    workloads.run_ops(workload.warm_up_ops())
    ops = workload.traced_cycle(workloads.np.random.default_rng(1))
    tracer, traced_s, done = run.traced_pass(workload, ops)
    assert not failed(workloads.check_ops(done))
    per_name = spans.self_times(tracer.rows())
    total_self_ns = sum(own for _, _, own in per_name.values())
    assert all(own >= 0 for _, _, own in per_name.values())
    assert 0 < total_self_ns * 1e-9 <= traced_s
    roots = {op for _, _, _, parent, op in tracer.rows() if parent < 0}
    assert len(roots) == len(ops)


def test_wrappers_are_removed_after_a_traced_pass():
    before = (cloning.run_cloner_full, qudit.qudit_clone)
    with spans.installed(spans.Tracer()):
        assert cloning.run_cloner_full is not before[0]
    assert (cloning.run_cloner_full, qudit.qudit_clone) == before


def test_benchmark_exits_nonzero_without_program_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "qudit_scale", "--seconds", "1"]) == 2
