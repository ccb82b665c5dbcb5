import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
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


FLOAT_KEYS = [name for name, key in cli.KEYS.items() if float in key.types]

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
        row = cli.KEYS[key]
        assert math.isfinite(cfg[section][sub]) and row.lo <= cfg[section][sub] <= row.hi


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
        cfg.write_text(yaml.safe_dump({"experiment": experiment_cfg}))
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


@pytest.mark.parametrize("hom_yaml", [
    # the coherence length wavelength^2 / bandwidth underflows to 0
    "wavelength_nm: 1.0e-200\n  bandwidth_nm: 1.0e+200",
    # wavelength^2 overflows
    "wavelength_nm: 1.0e+300",
    # np.linspace overflows
    "delay_min_um: -1.7e+308\n  delay_max_um: 1.7e+308",
    # (delay / l_c)^2 overflows
    "delay_min_um: -1.0e+300\n  delay_max_um: 1.0e+300",
], ids=["coherence_length_underflow", "wavelength_overflow", "linspace_overflow",
        "delay_overflow"])
def test_hom_config_outside_the_table_exits_3_and_writes_nothing(hom_yaml, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"hom:\n  {hom_yaml}\n")
    out = tmp_path / "out"
    assert main(["hom", "--config", str(cfg), "--out-dir", str(out)]) == 3
    assert not out.exists()


# The property tests draw sizes below these caps, so that each run takes
# milliseconds; the bound + 1 tests above cover each bound itself.
DRAWN_SIZE_CAPS = {"hom.delay_steps": 200, "clone.ancilla_samples": 20,
                   "qudit.d_min": 6, "qudit.d_max": 6, "stokes.runs": 4}
LABELS = st.sampled_from([*cli.STATE_NAMES, *cli.STATE_ALIASES])


def accepted_values(name, key):
    """Every value the table row ``key`` accepts, with sizes capped."""
    if key.normalize is cli._state_label:
        return LABELS
    if key.normalize is cli._state_list:
        return st.lists(LABELS, min_size=1, max_size=8)
    hi = min(key.hi, DRAWN_SIZE_CAPS.get(name, key.hi))
    if float in key.types:
        return st.floats(key.lo, hi) | st.integers(math.ceil(key.lo), math.floor(hi))
    values = st.integers(key.lo, hi)
    return st.none() | values if type(None) in key.types else values


def rejected_values(key):
    """Values that the table row ``key`` rejects: wrong types, and values
    outside its range or that its normalizer refuses."""
    if key.normalize is cli._state_label:
        return st.text("abcdhv+-2 ", max_size=4).filter(
            lambda s: s not in cli.STATE_NAMES and s not in cli.STATE_ALIASES) \
            | st.sampled_from([2, None, True, ["h"]])
    if key.normalize is cli._state_list:
        return st.sampled_from([[], ["h"] * (cli.MAX_STOKES_STATES + 1), ["h", "x"],
                                ["h", 2], "h", None])
    wrong_types = st.sampled_from([True, False, "1.0", [1.0], {"a": 1.0}])
    if float not in key.types:
        wrong_types |= st.floats(-10.0, 10.0)
    if type(None) not in key.types:
        wrong_types |= st.none()
    below = math.nextafter(key.lo, -math.inf)
    above = math.nextafter(key.hi, math.inf)
    if float in key.types:
        return (wrong_types | st.sampled_from([math.nan, math.inf, -math.inf])
                | st.floats(max_value=below) | st.floats(min_value=above))
    out_of_range = st.integers(max_value=math.floor(below))
    if above < math.inf:
        out_of_range |= st.integers(min_value=math.ceil(above))
    return wrong_types | out_of_range


def cross_key_rules_kept(config):
    """Bring the drawn keys that a cross-key rule ties together into line."""
    qd, exp = config["qudit"], config["experiment"]
    qd["d_min"], qd["d_max"] = sorted((qd["d_min"], qd["d_max"]))
    exp["coupling_min"], exp["coupling"], exp["coupling_max"] = sorted(
        (exp["coupling_min"], exp["coupling"], exp["coupling_max"]))
    # half the bound leaves room for the rounding of the product
    exp["duration_s"] = min(exp["duration_s"],
                            cli.MAX_SOURCE_PAIRS / exp["source_rate_hz"] / 2)
    return config


ACCEPTED_CONFIGS = st.fixed_dictionaries(
    {name: accepted_values(name, key) for name, key in cli.KEYS.items()}
).map(cli._nested).map(cross_key_rules_kept)


def run_with_config(scenario, config, tmp, *extra):
    cfg = tmp / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(config))
    return main([scenario, "--config", str(cfg), *extra])


@pytest.mark.parametrize("scenario", sorted(cli.RUNNERS))
@settings(max_examples=25, deadline=None)
@given(config=ACCEPTED_CONFIGS)
def test_every_accepted_config_runs_to_finite_deterministic_outputs(scenario, config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outputs = []
        for out in ("o1", "o2"):
            assert run_with_config(scenario, config, tmp, "--svg",
                                   "--out-dir", str(tmp / out)) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp / out).iterdir()})
    assert outputs[0] == outputs[1]
    strict_json(outputs[0][f"{scenario}.json"].decode())
    for line in outputs[0][f"{scenario}.csv"].decode().splitlines()[1:]:
        for cell in line.split(","):
            assert cell == "" or cell in cli.STATE_NAMES or math.isfinite(float(cell))


@settings(max_examples=100, deadline=None)
@given(config=ACCEPTED_CONFIGS, data=st.data())
def test_every_rejected_key_exits_3_and_writes_nothing(config, data):
    name = data.draw(st.sampled_from(sorted(cli.KEYS)))
    value = data.draw(rejected_values(cli.KEYS[name]))
    section, _, sub = name.partition(".")
    if sub:
        config[section][sub] = value
    else:
        config[section] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert run_with_config(section if sub else "clone", config, Path(tmp),
                               "--out-dir", str(out)) == 3
        assert not out.exists()


@pytest.mark.parametrize("scenario, used, absent", [
    ("clone", "oamclone.cloning", {"yaml", "oamclone.svgplot", "oamclone.experiment",
                                   "oamclone.interference", "oamclone.qudit"}),
    ("qudit", "oamclone.qudit", {"yaml", "oamclone.svgplot", "oamclone.experiment",
                                 "oamclone.interference"}),
    ("hom", "oamclone.interference", {"yaml", "oamclone.svgplot",
                                      "oamclone.experiment", "oamclone.qudit"}),
    ("stokes", "oamclone.experiment", {"yaml", "oamclone.svgplot",
                                       "oamclone.interference", "oamclone.qudit"}),
    # Table 1 needs qubit states and Poisson draws, not the Fock-space simulator
    ("experiment", "oamclone.experiment", {"yaml", "oamclone.svgplot",
                                           "oamclone.interference", "oamclone.fock",
                                           "oamclone.elements", "oamclone.cloning",
                                           "oamclone.qudit"}),
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


def test_importing_the_cli_loads_no_physics_module(tmp_path):
    code = "import json, sys\nimport oamclone.cli\nprint(json.dumps(sorted(sys.modules)))\n"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env=child_env())
    assert res.returncode == 0, res.stderr
    loaded = set(json.loads(res.stdout))
    assert {m for m in loaded if m.startswith("oamclone")} == {
        "oamclone", "oamclone.cli", "oamclone.qubit"}
    assert "yaml" not in loaded


def test_lazy_package_exports_are_their_modules_objects():
    for name, module in oamclone._EXPORTS.items():
        owner = importlib.import_module(f"oamclone.{module}")
        assert getattr(oamclone, name) is getattr(owner, name)
        assert getattr(owner, name).__module__ == owner.__name__
        assert name in dir(oamclone)
    with pytest.raises(AttributeError):
        oamclone.no_such_name


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
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out), "--svg"]) == 0
        res = strict_json((out / "experiment.json").read_text())["results"]
        assert res["mean_fidelity"] is None
        assert "duration_s" in res["reason"]
        # no state has a fidelity estimate, so the figure plots none
        assert "nan" not in (out / "experiment.svg").read_text().lower()

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
