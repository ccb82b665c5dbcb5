"""Scenario runner: reproducible CLI around the simulation library.

Subcommands: hom, clone, qudit, experiment, stokes, validate.  Each run
writes CSV data and a JSON summary (config echo, seed, library version)
into the output directory; --svg adds a convenience figure.  Exit codes:
0 success, 1 runtime error, 2 config parse error, 3 validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, cloning, experiment, interference, qudit, svgplot
from .cloning import QubitSpec
from .fock import FockError

EXIT_RUNTIME = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3

STATE_ALIASES = {"+2": "plus2", "-2": "minus2"}
STATE_NAMES = tuple(cloning.SIX_STATE_AMPLITUDES)


class ConfigValidationError(Exception):
    pass


def _positive(x):
    return 0 < x < math.inf


def _finite(constraint=None):
    """Spec of a float key: a number with a finite float value that ``constraint``
    accepts.  NaN fails every comparison; infinities and huge ints fail the first."""
    return (int, float), lambda v: (abs(v) <= sys.float_info.max
                                    and (constraint is None or constraint(v)))


# Upper bounds on the sizes a config controls, with the compute time at the
# bound (2-core Xeon, Python 3.11, numpy 2.4):
MAX_D = 24  # qudit d = 1..24 in 1.8 s; the time grows about as d^3.5
MAX_DELAY_STEPS = 100_000  # 4.3 us per delay: 0.43 s and a 5 MB CSV
MAX_STOKES_STATES = 60  # ten passes over the six states
MAX_STOKES_RUNS = 1_000  # 0.48 ms per run and state: 29 s for 60 states
MAX_COUNTS_PER_BASIS = 10 ** 9  # a Poisson draw costs the same at any mean
MAX_ANCILLA_SAMPLES = 100_000  # 0.17 ms per sampled ancilla: 17 s


DEFAULTS = {
    "seed": 0,
    "hom": {
        "state_a": "plus2",
        "state_b": "minus2",
        "delay_min_um": -300.0,
        "delay_max_um": 300.0,
        "delay_steps": 61,
        "wavelength_nm": 795.0,
        "bandwidth_nm": 6.0,
    },
    "clone": {
        "input": "h",
        "ancilla_samples": None,
    },
    "qudit": {
        "d_min": 1,
        "d_max": 8,
    },
    "experiment": {
        "duration_s": 600.0,
        "f_prep": 0.96,
        "enhancement": 1.97,
        "source_rate_hz": 5000.0,
        "qplate_efficiency": 0.8,
        "transferrer_success": 0.5,
        "coupling_min": 0.15,
        "coupling_max": 0.25,
        "coupling": 1.0 / 6.0,
    },
    "stokes": {
        "states": list(STATE_NAMES),
        "counts_per_basis": 400,
        "runs": 25,
    },
}

# key -> (expected types, constraint or None)
_SCHEMA = {
    "seed": (int, lambda v: 0 <= v < 2 ** 64),
    "hom.state_a": (str, None),
    "hom.state_b": (str, None),
    "hom.delay_min_um": _finite(),
    "hom.delay_max_um": _finite(),
    "hom.delay_steps": (int, lambda v: 1 <= v <= MAX_DELAY_STEPS),
    "hom.wavelength_nm": _finite(_positive),
    "hom.bandwidth_nm": _finite(_positive),
    "clone.input": (str, None),
    "clone.ancilla_samples": ((int, type(None)),
                              lambda v: v is None or 1 <= v <= MAX_ANCILLA_SAMPLES),
    "qudit.d_min": (int, lambda v: v >= 1),
    "qudit.d_max": (int, lambda v: 1 <= v <= MAX_D),
    "experiment.duration_s": _finite(lambda v: v >= 0),
    "experiment.f_prep": _finite(lambda v: 0.5 <= v <= 1.0),
    "experiment.enhancement": _finite(lambda v: 1.0 <= v <= 2.0),
    "experiment.source_rate_hz": _finite(_positive),
    "experiment.qplate_efficiency": _finite(lambda v: 0.0 <= v <= 1.0),
    "experiment.transferrer_success": _finite(lambda v: 0.0 <= v <= 1.0),
    "experiment.coupling_min": _finite(lambda v: 0.0 <= v <= 1.0),
    "experiment.coupling_max": _finite(lambda v: 0.0 <= v <= 1.0),
    "experiment.coupling": _finite(lambda v: 0.0 <= v <= 1.0),
    "stokes.states": (list, lambda v: 1 <= len(v) <= MAX_STOKES_STATES),
    "stokes.counts_per_basis": (int, lambda v: 1 <= v <= MAX_COUNTS_PER_BASIS),
    "stokes.runs": (int, lambda v: 1 <= v <= MAX_STOKES_RUNS),
}


def _state_label(raw, where):
    label = STATE_ALIASES.get(raw, raw)
    if label not in STATE_NAMES:
        raise ConfigValidationError(
            f"{where}: unknown state {raw!r} (choose from "
            f"{', '.join(STATE_NAMES)} or +2/-2)")
    return label


def validate_config(user: dict) -> dict:
    """Merge a user config over the defaults, rejecting unknown keys."""
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigValidationError("top-level config must be a mapping")
    config = {k: (dict(v) if isinstance(v, dict) else v) for k, v in DEFAULTS.items()}
    for key, value in user.items():
        if key not in DEFAULTS:
            raise ConfigValidationError(f"unknown config key {key!r}")
        if isinstance(DEFAULTS[key], dict):
            if not isinstance(value, dict):
                raise ConfigValidationError(f"{key}: expected a mapping")
            for sub, sub_value in value.items():
                flat = f"{key}.{sub}"
                if flat not in _SCHEMA:
                    raise ConfigValidationError(f"unknown config key {flat!r}")
                config[key][sub] = sub_value
        else:
            config[key] = value
    for flat, (types, constraint) in _SCHEMA.items():
        section, _, sub = flat.partition(".")
        value = config[section][sub] if sub else config[section]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigValidationError(f"{flat}: bad type {type(value).__name__}")
        if constraint is not None and not constraint(value):
            raise ConfigValidationError(f"{flat}: value {value!r} out of range")
    config["hom"]["state_a"] = _state_label(config["hom"]["state_a"], "hom.state_a")
    config["hom"]["state_b"] = _state_label(config["hom"]["state_b"], "hom.state_b")
    config["clone"]["input"] = _state_label(config["clone"]["input"], "clone.input")
    config["stokes"]["states"] = [
        _state_label(s, "stokes.states") for s in config["stokes"]["states"]]
    if config["qudit"]["d_max"] < config["qudit"]["d_min"]:
        raise ConfigValidationError("qudit.d_max < qudit.d_min")
    exp = config["experiment"]
    if exp["coupling_max"] < exp["coupling_min"]:
        raise ConfigValidationError("experiment.coupling_max < coupling_min")
    if not exp["coupling_min"] <= exp["coupling"] <= exp["coupling_max"]:
        raise ConfigValidationError("experiment.coupling outside its interval")
    return config


def _num(x) -> str:
    return f"{float(x):.12g}"


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _num(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, scenario, config, results):
    doc = {
        "scenario": scenario,
        "version": __version__,
        "seed": config["seed"],
        "config": config,
        "results": results,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _hom_states(cfg):
    basis = cloning.cloner_basis()
    qa = QubitSpec.named(cfg["state_a"])
    qb = QubitSpec.named(cfg["state_b"])
    return (cloning.embed_qubit(qa, basis, "a"), cloning.embed_qubit(qb, basis, "b"))


def run_hom(config, out_dir, want_svg):
    cfg = config["hom"]
    psi_a, psi_b = _hom_states(cfg)
    profile = interference.SpectralProfile(cfg["wavelength_nm"] * 1e-9,
                                           cfg["bandwidth_nm"] * 1e-9)
    delays_um = np.linspace(cfg["delay_min_um"], cfg["delay_max_um"], cfg["delay_steps"])
    scan = interference.hom_curve(psi_a, psi_b, delays_um * 1e-6, profile)
    rows = [(d, c, e) for d, c, e in zip(delays_um, scan.coincidences, scan.enhancements)]
    _write_csv(out_dir / "hom.csv",
               ["delay_um", "expected_coincidences", "enhancement"], rows)
    results = {
        "enhancement_ratio": scan.ratio,
        "coherence_length_um": interference.coherence_length(profile) * 1e6,
        "peak_coincidence": float(scan.coincidences.max()),
    }
    _write_json(out_dir / "hom.json", "hom", config, results)
    if want_svg:
        (out_dir / "hom.svg").write_text(svgplot.line_plot(
            delays_um, scan.coincidences,
            f"HOM coincidences ({cfg['state_a']}, {cfg['state_b']})",
            "delay (um)", "relative coincidences"))


def run_clone(config, out_dir, want_svg):
    cfg = config["clone"]
    q = QubitSpec.named(cfg["input"])
    result = cloning.run_cloner_full(q, cfg["ancilla_samples"], seed=config["seed"])
    record = result.to_record(q)
    _write_csv(out_dir / "clone.csv",
               ["input_state", "fidelity", "success_prob", "s1", "s2", "s3"],
               [(cfg["input"], result.fidelity, result.success_probability,
                 *result.stokes)])
    _write_json(out_dir / "clone.json", "clone", config, record)
    if want_svg:
        (out_dir / "clone.svg").write_text(svgplot.bloch_projection(
            [(cfg["input"], q.bloch(), result.stokes)], "Cloned qubit Bloch vector"))


def run_qudit(config, out_dir, want_svg):
    cfg = config["qudit"]
    rng = np.random.default_rng(config["seed"])
    rows = []
    for d in range(cfg["d_min"], cfg["d_max"] + 1):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        spec = qudit.QuditSpec(v / np.linalg.norm(v))
        res = qudit.qudit_clone(spec)
        f_formula, p_formula = qudit.qudit_formula(d)
        rows.append((d, res.fidelity, f_formula, res.success_probability, p_formula))
    _write_csv(out_dir / "qudit.csv",
               ["d", "F_channel", "F_formula", "p_channel", "p_formula"], rows)
    results = {"rows": [[int(r[0])] + [float(x) for x in r[1:]] for r in rows]}
    _write_json(out_dir / "qudit.json", "qudit", config, results)
    if want_svg:
        (out_dir / "qudit.svg").write_text(svgplot.line_plot(
            [r[0] for r in rows], [r[1] for r in rows],
            "Cloning fidelity vs dimension", "d", "fidelity"))


def _budget_from_config(cfg):
    return experiment.LossBudget(
        source_rate_hz=float(cfg["source_rate_hz"]),
        qplate_efficiency=float(cfg["qplate_efficiency"]),
        transferrer_success=float(cfg["transferrer_success"]),
        fiber_coupling=(float(cfg["coupling_min"]), float(cfg["coupling_max"])),
        default_coupling=float(cfg["coupling"]),
    )


def run_experiment(config, out_dir, want_svg):
    cfg = config["experiment"]
    model = experiment.ImperfectionModel(float(cfg["f_prep"]), float(cfg["enhancement"]))
    budget = _budget_from_config(cfg)
    report = experiment.table_one_run(model, budget, float(cfg["duration_s"]),
                                      config["seed"])
    _write_csv(out_dir / "experiment.csv",
               ["state_label", "C1", "C2", "F_exp", "sigma"], report.rows)
    lo, hi = experiment.rate_budget(budget)
    results = {
        "predicted_fidelity": report.predicted,
        "mean_fidelity": report.mean_fidelity,
        "rate_interval_hz": [lo, hi],
        "rate_hz": budget.rate(budget.default_coupling),
    }
    if report.mean_fidelity is None:
        results["reason"] = "no state got coincidence counts; raise experiment.duration_s"
    _write_json(out_dir / "experiment.json", "experiment", config, results)
    if want_svg:
        (out_dir / "experiment.svg").write_text(svgplot.line_plot(
            range(len(report.rows)), [r[3] for r in report.rows],
            "Simulated per-state fidelity", "state index", "F_exp"))


def run_stokes(config, out_dir, want_svg):
    cfg = config["stokes"]
    seeds = np.random.SeedSequence(config["seed"]).spawn(
        len(cfg["states"]) * cfg["runs"])
    rows = []
    arrows = []
    lengths = []
    k = 0
    for label in cfg["states"]:
        q = QubitSpec.named(label)
        mean_est = np.zeros(3)
        for run_idx in range(cfg["runs"]):
            res = experiment.simulate_stokes(q, cfg["counts_per_basis"], seeds[k])
            k += 1
            rows.append((label, run_idx, *res.input_bloch, *res.estimated, res.length))
            lengths.append(res.length)
            mean_est += res.estimated
        arrows.append((label, q.bloch(), mean_est / cfg["runs"]))
    _write_csv(out_dir / "stokes.csv",
               ["state", "run", "s1_in", "s2_in", "s3_in",
                "s1_out", "s2_out", "s3_out", "length"], rows)
    results = {
        "mean_length": float(np.mean(lengths)),
        "theory_length": 2.0 / 3.0,
    }
    _write_json(out_dir / "stokes.json", "stokes", config, results)
    if want_svg:
        (out_dir / "stokes.svg").write_text(svgplot.bloch_projection(
            arrows, "Shrunk Bloch sphere of the cloned states"))


RUNNERS = {
    "hom": run_hom,
    "clone": run_clone,
    "qudit": run_qudit,
    "experiment": run_experiment,
    "stokes": run_stokes,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oamclone",
        description="Two-photon interference and optimal-cloning scenario runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in [*RUNNERS, "validate"]:
        p = sub.add_parser(name, help=f"run the {name} scenario"
                           if name != "validate" else "check a config file")
        p.add_argument("--config", type=Path, default=None, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out-dir", type=Path, default=Path("out"))
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        p.add_argument("--svg", action="store_true", help="also emit an SVG figure")
    return parser


def _load_config(args):
    user = {}
    if args.config is not None:
        try:
            text = args.config.read_text()
        except OSError as exc:
            raise _ParseFailure(f"cannot read config: {exc}") from exc
        try:
            user = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise _ParseFailure(f"config parse error: {exc}") from exc
    config = validate_config(user)
    if args.seed is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigValidationError("--seed out of range for u64")
        config["seed"] = args.seed
    return config


class _ParseFailure(Exception):
    pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except _ParseFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except ConfigValidationError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.scenario == "validate":
        print(json.dumps(config, sort_keys=True, indent=2, allow_nan=False))
        return 0
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        RUNNERS[args.scenario](config, args.out_dir, args.svg)
        _apply_format_filter(args)
    except FockError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return 0


def _apply_format_filter(args):
    if args.format == "both":
        return
    drop = ".json" if args.format == "csv" else ".csv"
    target = args.out_dir / f"{args.scenario}{drop}"
    if target.exists():
        target.unlink()


if __name__ == "__main__":
    sys.exit(main())
