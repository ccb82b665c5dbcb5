import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oamclone
from oamclone import cli, cloning, experiment
from oamclone.cli import main, validate_config, ConfigValidationError
from oamclone.cloning import QubitSpec

# The directory that holds the oamclone package this test process imported.
# Children get it as an absolute first PYTHONPATH entry, so they import the
# same copy from any working directory: a relative entry such as
# PYTHONPATH=src would resolve against the child's cwd.
PACKAGE_ROOT = Path(oamclone.__file__).resolve().parent.parent


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def strict_json(text):
    """Parse JSON as RFC 8259 does: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


FLOAT_KEYS = [key for key, (types, _) in cli._SCHEMA.items()
              if isinstance(types, tuple) and float in types]

SIZE_BOUNDS = {
    "qudit.d_max": cli.MAX_D,
    "hom.delay_steps": cli.MAX_DELAY_STEPS,
    "stokes.runs": cli.MAX_STOKES_RUNS,
    "stokes.counts_per_basis": cli.MAX_COUNTS_PER_BASIS,
    "clone.ancilla_samples": cli.MAX_ANCILLA_SAMPLES,
}


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "oamclone", *args],
                         capture_output=True, text=True, cwd=cwd, env=child_env())


def test_child_imports_the_package_under_test(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", "import oamclone; print(oamclone.__file__)"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert res.returncode == 0, res.stderr
    assert Path(res.stdout.strip()).resolve() == Path(oamclone.__file__).resolve()


class TestConfigValidation:
    def test_defaults_pass(self):
        cfg = validate_config({})
        assert cfg["hom"]["state_a"] == "plus2"
        assert cfg["seed"] == 0

    def test_aliases_are_normalized(self):
        cfg = validate_config({"hom": {"state_a": "+2", "state_b": "-2"}})
        assert cfg["hom"]["state_a"] == "plus2"
        assert cfg["hom"]["state_b"] == "minus2"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigValidationError):
            validate_config({"nope": 1})
        with pytest.raises(ConfigValidationError):
            validate_config({"hom": {"nope": 1}})

    def test_type_and_range_checks(self):
        with pytest.raises(ConfigValidationError):
            validate_config({"hom": {"delay_steps": "61"}})
        with pytest.raises(ConfigValidationError):
            validate_config({"hom": {"delay_steps": 0}})
        with pytest.raises(ConfigValidationError):
            validate_config({"experiment": {"f_prep": 0.2}})
        with pytest.raises(ConfigValidationError):
            validate_config({"qudit": {"d_min": 5, "d_max": 2}})
        with pytest.raises(ConfigValidationError):
            validate_config({"experiment": {"coupling": 0.5}})

    def test_unknown_state_label(self):
        with pytest.raises(ConfigValidationError):
            validate_config({"clone": {"input": "sideways"}})

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(FLOAT_KEYS), value=st.floats())
    def test_accepted_float_values_are_finite_and_in_range(self, key, value):
        section, _, sub = key.partition(".")
        try:
            cfg = validate_config({section: {sub: value}})
        except ConfigValidationError:
            return
        _, constraint = cli._SCHEMA[key]
        assert math.isfinite(cfg[section][sub]) and constraint(cfg[section][sub])


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_exits_3_and_writes_nothing(key, tmp_path):
    section, _, sub = key.partition(".")
    for value in (".nan", ".inf", "-.inf"):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{section}:\n  {sub}: {value}\n")
        out = tmp_path / "out"
        assert main([section, "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert not out.exists()


@pytest.mark.parametrize("key", sorted(SIZE_BOUNDS))
def test_size_above_its_bound_exits_3(key, tmp_path):
    section, _, sub = key.partition(".")
    bound = SIZE_BOUNDS[key]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{section}:\n  {sub}: {bound + 1}\n")
    assert main(["validate", "--config", str(cfg)]) == 3
    cfg.write_text(f"{section}:\n  {sub}: {bound}\n")
    assert main(["validate", "--config", str(cfg)]) == 0


def test_stokes_state_list_must_be_nonempty_and_bounded(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    for states in ([], ["h"] * (cli.MAX_STOKES_STATES + 1)):
        cfg.write_text(json.dumps({"stokes": {"states": states}}))
        assert main(["validate", "--config", str(cfg)]) == 3
    cfg.write_text(json.dumps({"stokes": {"states": ["h"] * cli.MAX_STOKES_STATES}}))
    assert main(["validate", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("states", [[[1]], [{"a": 1}], [1], ["h", None]])
def test_non_string_state_label_exits_3(states, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps({"stokes": {"states": states}}))
    assert main(["validate", "--config", str(cfg)]) == 3


def test_emitted_pairs_above_their_bound_exit_3(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    for experiment_cfg in ({"duration_s": 1.0e300},
                           {"duration_s": 1.0e10, "source_rate_hz": 1.0e9}):
        cfg.write_text(json.dumps({"experiment": experiment_cfg}))
        assert main(["validate", "--config", str(cfg)]) == 3


def test_emitted_pairs_at_their_bound_run_at_the_highest_rate(tmp_path):
    # lossless chain: the count rate reaches its largest share of the source rate
    rate = 1.0e6
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps({"experiment": {
        "duration_s": cli.MAX_SOURCE_PAIRS / rate, "source_rate_hz": rate,
        "qplate_efficiency": 1.0, "transferrer_success": 1.0,
        "coupling_min": 1.0, "coupling_max": 1.0, "coupling": 1.0}}))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert strict_json((out / "experiment.json").read_text())["results"]["mean_fidelity"]


@pytest.mark.parametrize("scenario, used, absent", [
    ("clone", "oamclone.cloning", {"yaml", "oamclone.svgplot", "oamclone.experiment",
                                   "oamclone.interference"}),
    ("qudit", "oamclone.qudit", {"yaml", "oamclone.svgplot", "oamclone.experiment",
                                 "oamclone.interference"}),
    ("hom", "oamclone.interference", {"yaml", "oamclone.svgplot",
                                      "oamclone.experiment"}),
    ("stokes", "oamclone.experiment", {"yaml", "oamclone.svgplot",
                                       "oamclone.interference"}),
])
def test_scenario_imports_only_what_it_runs(scenario, used, absent, tmp_path):
    """Without --config and --svg a scenario imports neither yaml nor svgplot,
    nor the modules of other scenarios."""
    code = ("import json, sys\n"
            "from oamclone import cli\n"
            f"code = cli.main([{scenario!r}, '--out-dir', 'out'])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env=child_env())
    assert res.returncode == 0, res.stderr
    exit_code, loaded = json.loads(res.stdout)
    assert exit_code == 0
    assert absent.isdisjoint(loaded)
    assert used in loaded


@pytest.mark.parametrize("scenario", ["hom", "clone", "qudit", "experiment", "stokes"])
def test_same_seed_writes_byte_identical_files(scenario, tmp_path):
    """Two processes (each with its own hash seed) write the same bytes."""
    outputs = []
    for out in ("o1", "o2"):
        res = run_cli([scenario, "--seed", "7", "--svg", "--out-dir", out], tmp_path)
        assert res.returncode == 0, res.stderr
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()})
    assert sorted(outputs[0]) == [f"{scenario}.{ext}" for ext in ("csv", "json", "svg")]
    assert outputs[0] == outputs[1]


def test_stokes_clones_each_input_once(tmp_path, monkeypatch):
    calls = []
    clone = cloning.run_cloner_full

    def counting_clone(*args, **kwargs):
        calls.append(args)
        return clone(*args, **kwargs)

    monkeypatch.setattr(cloning, "run_cloner_full", counting_clone)
    out = tmp_path / "out"
    assert main(["stokes", "--out-dir", str(out)]) == 0
    cfg = cli.DEFAULTS["stokes"]
    assert len(calls) == len(cfg["states"]) == 6
    seeds = np.random.SeedSequence(cli.DEFAULTS["seed"]).spawn(
        len(cfg["states"]) * cfg["runs"])
    rows = []
    for i, label in enumerate(cfg["states"]):
        for run_idx in range(cfg["runs"]):
            res = experiment.simulate_stokes(QubitSpec.named(label),
                                             cfg["counts_per_basis"],
                                             seeds[i * cfg["runs"] + run_idx])
            rows.append((label, run_idx, *res.input_bloch, *res.estimated, res.length))
    assert len(calls) == 6 + len(rows)  # the 3-argument form clones on every call
    expected = tmp_path / "expected.csv"
    header = (out / "stokes.csv").read_text().splitlines()[0].split(",")
    cli._write_csv(expected, header, rows)
    assert (out / "stokes.csv").read_text() == expected.read_text()


class TestExitCodes:
    def test_help(self, tmp_path):
        res = run_cli(["--help"], tmp_path)
        assert res.returncode == 0
        for name in ("hom", "clone", "qudit", "experiment", "stokes", "validate"):
            assert name in res.stdout

    def test_validate_echoes_merged_config(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 9\nclone:\n  input: '+2'\n")
        res = run_cli(["validate", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0
        merged = json.loads(res.stdout)
        assert merged["seed"] == 9
        assert merged["clone"]["input"] == "plus2"
        assert merged["hom"]["delay_steps"] == 61  # defaults filled in

    def test_unknown_key_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("mystery: 1\n")
        res = run_cli(["validate", "--config", str(cfg)], tmp_path)
        assert res.returncode == 3
        assert "mystery" in res.stderr

    def test_unreadable_or_malformed_yaml_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("a: [unclosed\n")
        assert run_cli(["validate", "--config", str(bad)], tmp_path).returncode == 2
        missing = tmp_path / "absent.yaml"
        assert run_cli(["validate", "--config", str(missing)], tmp_path).returncode == 2

    def test_missing_subcommand_exits_2(self, tmp_path):
        assert run_cli([], tmp_path).returncode == 2


class TestScenarios:
    def test_clone_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["clone", "--out-dir", str(out), "--svg"])
        assert rc == 0
        doc = json.loads((out / "clone.json").read_text())
        assert doc["scenario"] == "clone"
        assert doc["results"]["fidelity"] == pytest.approx(5.0 / 6.0)
        assert doc["results"]["success_prob"] == pytest.approx(3.0 / 8.0)
        header, row = (out / "clone.csv").read_text().splitlines()
        assert header.split(",")[:3] == ["input_state", "fidelity", "success_prob"]
        assert row.split(",")[0] == "h"
        svg = (out / "clone.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_hom_ratio_and_curve(self, tmp_path):
        out = tmp_path / "out"
        assert main(["hom", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "hom.json").read_text())
        assert doc["results"]["enhancement_ratio"] == pytest.approx(2.0)
        assert doc["results"]["coherence_length_um"] == pytest.approx(105.3375)
        lines = (out / "hom.csv").read_text().splitlines()
        assert lines[0] == "delay_um,expected_coincidences,enhancement"
        assert len(lines) == 62
        mid = lines[31].split(",")  # the zero-delay row of the 61-step scan
        assert float(mid[0]) == pytest.approx(0.0)
        assert float(mid[1]) == pytest.approx(2.0)

    def test_qudit_channel_matches_formula(self, tmp_path):
        out = tmp_path / "out"
        assert main(["qudit", "--out-dir", str(out)]) == 0
        lines = (out / "qudit.csv").read_text().splitlines()
        assert lines[0] == "d,F_channel,F_formula,p_channel,p_formula"
        assert len(lines) == 9
        for line in lines[1:]:
            d, fc, ff, pc, pf = (float(x) for x in line.split(","))
            assert fc == pytest.approx(ff, abs=1e-10)
            assert pc == pytest.approx(pf, abs=1e-10)

    def test_experiment_summary(self, tmp_path):
        out = tmp_path / "out"
        assert main(["experiment", "--out-dir", str(out), "--seed", "42"]) == 0
        doc = json.loads((out / "experiment.json").read_text())
        res = doc["results"]
        assert res["predicted_fidelity"] == pytest.approx(0.8051178451178452)
        assert res["rate_interval_hz"] == [pytest.approx(0.54), pytest.approx(1.5)]
        assert res["rate_hz"] == pytest.approx(2.0 / 3.0)
        lines = (out / "experiment.csv").read_text().splitlines()
        assert lines[0] == "state_label,C1,C2,F_exp,sigma"
        assert len(lines) == 7

    def test_stokes_summary(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("stokes:\n  runs: 5\n  counts_per_basis: 2000\n")
        assert main(["stokes", "--config", str(cfg), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "stokes.json").read_text())
        assert doc["results"]["theory_length"] == pytest.approx(2.0 / 3.0)
        assert doc["results"]["mean_length"] == pytest.approx(2.0 / 3.0, abs=0.05)
        lines = (out / "stokes.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 5

    def test_experiment_without_counts_writes_strict_json(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("experiment:\n  duration_s: 0\n")
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        res = strict_json((out / "experiment.json").read_text())["results"]
        assert res["mean_fidelity"] is None
        assert "duration_s" in res["reason"]

    @pytest.mark.parametrize("duration_s, empty", [(0, 2 * 6), (600.0, 0)])
    def test_experiment_csv_cells_are_finite_or_empty(self, duration_s, empty, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"experiment:\n  duration_s: {duration_s}\n")
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "experiment.csv").read_text().splitlines()
        cells = [cell for line in lines[1:] for cell in line.split(",")[1:]]
        assert len(cells) == 4 * 6
        assert all(math.isfinite(float(c)) for c in cells if c)
        assert cells.count("") == empty

    def test_runs_are_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["experiment", "--out-dir", str(out1), "--seed", "5"]) == 0
        assert main(["experiment", "--out-dir", str(out2), "--seed", "5"]) == 0
        assert (out1 / "experiment.csv").read_text() \
            == (out2 / "experiment.csv").read_text()
        j1 = json.loads((out1 / "experiment.json").read_text())
        j2 = json.loads((out2 / "experiment.json").read_text())
        assert j1 == j2

    def test_seed_changes_the_draws(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["experiment", "--out-dir", str(out1), "--seed", "1"])
        main(["experiment", "--out-dir", str(out2), "--seed", "2"])
        assert (out1 / "experiment.csv").read_text() \
            != (out2 / "experiment.csv").read_text()

    def test_format_filter(self, tmp_path):
        out = tmp_path / "csv_only"
        assert main(["clone", "--out-dir", str(out), "--format", "csv"]) == 0
        assert (out / "clone.csv").exists()
        assert not (out / "clone.json").exists()
        out2 = tmp_path / "json_only"
        assert main(["clone", "--out-dir", str(out2), "--format", "json"]) == 0
        assert (out2 / "clone.json").exists()
        assert not (out2 / "clone.csv").exists()

    def test_version_flag(self, tmp_path):
        res = run_cli(["--version"], tmp_path)
        assert res.returncode == 0
        assert res.stdout.strip() == "0.1.0"
