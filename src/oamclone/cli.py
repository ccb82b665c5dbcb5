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
from typing import Callable, NamedTuple, Optional

import numpy as np

# physics modules are imported inside the runners, so a command loads only what it runs
from . import FockError, __version__
from .qubit import SIX_STATE_AMPLITUDES, QubitSpec

EXIT_RUNTIME = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3

STATE_ALIASES = {"+2": "plus2", "-2": "minus2"}
STATE_NAMES = tuple(SIX_STATE_AMPLITUDES)


class ConfigValidationError(Exception):
    pass


# Upper bounds on the sizes a config controls, with the compute time at the
# bound (2-core Xeon, Python 3.11, numpy 2.4):
MAX_D = 24  # qudit d = 1..24 in 0.07 s with cold caches, 0.03 s warm; grows about as d^2
MAX_DELAY_STEPS = 100_000  # 4.3 us per delay: 0.43 s and a 5 MB CSV
MAX_STOKES_STATES = 60  # ten passes over the six states
MAX_STOKES_RUNS = 1_000  # 0.48 ms per run and state: 29 s for 60 states
MAX_COUNTS_PER_BASIS = 10 ** 9  # a Poisson draw costs the same at any mean
MAX_ANCILLA_SAMPLES = 100_000  # 0.06-0.07 ms per sampled ancilla: 6-7 s
# duration_s * source_rate_hz; a Poisson draw costs the same at any mean, but
# numpy rejects means above about 9.2e18 and the count rate is at most
# 0.1875 * source_rate_hz
MAX_SOURCE_PAIRS = 1e18

FLOAT_MAX = sys.float_info.max
POSITIVE = math.ulp(0.0)  # the least float above 0: "> 0" as an inclusive bound


def _state_label(raw, where):
    if not isinstance(raw, str):
        raise ConfigValidationError(
            f"{where}: state label must be a string, not {type(raw).__name__}")
    label = STATE_ALIASES.get(raw, raw)
    if label not in STATE_NAMES:
        raise ConfigValidationError(
            f"{where}: unknown state {raw!r} (choose from "
            f"{', '.join(STATE_NAMES)} or +2/-2)")
    return label


def _state_list(raw, where):
    if not 1 <= len(raw) <= MAX_STOKES_STATES:
        raise ConfigValidationError(f"{where}: value {raw!r} out of range")
    return [_state_label(s, where) for s in raw]


class Key(NamedTuple):
    """One config key: its default, the types it accepts (a bool never
    passes) and either the inclusive range [lo, hi] its value must lie in or
    a normalizer ``(value, key name) -> value``.  The default range of a
    float key is every finite float: NaN fails every comparison, and
    infinities and huge ints fail the bounds."""

    default: object
    types: tuple = (int, float)
    lo: float = -FLOAT_MAX
    hi: float = FLOAT_MAX
    normalize: Optional[Callable] = None


# Every config key, named "<section>.<key>" ("seed" has no section).
KEYS = {
    "seed": Key(0, (int,), 0, 2 ** 64 - 1),
    "hom.state_a": Key("plus2", (str,), normalize=_state_label),
    "hom.state_b": Key("minus2", (str,), normalize=_state_label),
    # up to 1 km of path delay, more than any delay line or fibre spool; far
    # larger spans overflow np.linspace and the (delay / l_c)^2 of the curve
    "hom.delay_min_um": Key(-300.0, lo=-1e9, hi=1e9),
    "hom.delay_max_um": Key(300.0, lo=-1e9, hi=1e9),
    "hom.delay_steps": Key(61, (int,), 1, MAX_DELAY_STEPS),
    # photons from 1 nm (soft X-ray) to 1 mm (far infrared), with filters from
    # 1 fm (a laser line) to 1 mm wide, keep the coherence length
    # l_c = wavelength^2 / bandwidth within 1e-15..1e9 m; at extreme floats
    # it underflows to 0 or overflows
    "hom.wavelength_nm": Key(795.0, lo=1.0, hi=1e6),
    "hom.bandwidth_nm": Key(6.0, lo=1e-6, hi=1e6),
    "clone.input": Key("h", (str,), normalize=_state_label),
    "clone.ancilla_samples": Key(None, (int, type(None)), 1, MAX_ANCILLA_SAMPLES),
    "qudit.d_min": Key(1, (int,), 1, math.inf),
    "qudit.d_max": Key(8, (int,), 1, MAX_D),
    "experiment.duration_s": Key(600.0, lo=0.0),
    "experiment.f_prep": Key(0.96, lo=0.5, hi=1.0),
    "experiment.enhancement": Key(1.97, lo=1.0, hi=2.0),
    "experiment.source_rate_hz": Key(5000.0, lo=POSITIVE),
    "experiment.qplate_efficiency": Key(0.8, lo=0.0, hi=1.0),
    "experiment.transferrer_success": Key(0.5, lo=0.0, hi=1.0),
    "experiment.coupling_min": Key(0.15, lo=0.0, hi=1.0),
    "experiment.coupling_max": Key(0.25, lo=0.0, hi=1.0),
    "experiment.coupling": Key(1.0 / 6.0, lo=0.0, hi=1.0),
    "stokes.states": Key(list(STATE_NAMES), (list,), normalize=_state_list),
    "stokes.counts_per_basis": Key(400, (int,), 1, MAX_COUNTS_PER_BASIS),
    "stokes.runs": Key(25, (int,), 1, MAX_STOKES_RUNS),
}


def _nested(flat: dict) -> dict:
    """``{"seed": s, "hom.state_a": a}`` as ``{"seed": s, "hom": {"state_a": a}}``."""
    config = {}
    for name, value in flat.items():
        section, _, sub = name.partition(".")
        if sub:
            config.setdefault(section, {})[sub] = value
        else:
            config[section] = value
    return config


DEFAULTS = _nested({name: key.default for name, key in KEYS.items()})


def validate_config(user: dict) -> dict:
    """Merge a user config over the defaults, rejecting unknown keys."""
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigValidationError("top-level config must be a mapping")
    values = {name: key.default for name, key in KEYS.items()}
    for section, value in user.items():
        if section not in DEFAULTS:
            raise ConfigValidationError(f"unknown config key {section!r}")
        if not isinstance(DEFAULTS[section], dict):
            values[section] = value
        elif not isinstance(value, dict):
            raise ConfigValidationError(f"{section}: expected a mapping")
        else:
            for sub, sub_value in value.items():
                flat = f"{section}.{sub}"
                if flat not in KEYS:
                    raise ConfigValidationError(f"unknown config key {flat!r}")
                values[flat] = sub_value
    for name, key in KEYS.items():
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, key.types):
            raise ConfigValidationError(f"{name}: bad type {type(value).__name__}")
        if key.normalize is not None:
            values[name] = key.normalize(value, name)
        elif value is not None and not key.lo <= value <= key.hi:
            raise ConfigValidationError(f"{name}: value {value!r} out of range")
    config = _nested(values)
    if config["qudit"]["d_max"] < config["qudit"]["d_min"]:
        raise ConfigValidationError("qudit.d_max < qudit.d_min")
    exp = config["experiment"]
    if exp["coupling_max"] < exp["coupling_min"]:
        raise ConfigValidationError("experiment.coupling_max < coupling_min")
    if not exp["coupling_min"] <= exp["coupling"] <= exp["coupling_max"]:
        raise ConfigValidationError("experiment.coupling outside its interval")
    if exp["duration_s"] * exp["source_rate_hz"] > MAX_SOURCE_PAIRS:
        raise ConfigValidationError(
            f"experiment.duration_s * source_rate_hz above {MAX_SOURCE_PAIRS:g}")
    return config


def _write_csv(path: Path, header, rows):
    """Write a CSV file; a ``None`` cell is written empty."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if c is None else c if isinstance(c, str)
                              else f"{float(c):.12g}" for c in row))
    path.write_text("\n".join(lines) + "\n")


def _plot(kind, *args):
    """The SVG thunk of a runner: ``svgplot.<kind>(*args)``, imported only
    when the figure is written."""
    def svg():
        from . import svgplot
        return getattr(svgplot, kind)(*args)
    return svg


def run_hom(config):
    from . import cloning, interference
    cfg = config["hom"]
    basis = cloning.cloner_basis()
    psi_a = cloning.embed_qubit(QubitSpec.named(cfg["state_a"]), basis, "a")
    psi_b = cloning.embed_qubit(QubitSpec.named(cfg["state_b"]), basis, "b")
    profile = interference.SpectralProfile(cfg["wavelength_nm"] * 1e-9,
                                           cfg["bandwidth_nm"] * 1e-9)
    delays_um = np.linspace(cfg["delay_min_um"], cfg["delay_max_um"], cfg["delay_steps"])
    scan = interference.hom_curve(psi_a, psi_b, delays_um * 1e-6, profile)
    results = {
        "enhancement_ratio": scan.ratio,
        "coherence_length_um": interference.coherence_length(profile) * 1e6,
        "peak_coincidence": float(scan.coincidences.max()),
    }
    return (["delay_um", "expected_coincidences", "enhancement"],
            list(zip(delays_um, scan.coincidences, scan.coincidences)), results,
            _plot("line_plot", delays_um, scan.coincidences,
                  f"HOM coincidences ({cfg['state_a']}, {cfg['state_b']})",
                  "delay (um)", "relative coincidences"))


def run_clone(config):
    from . import cloning
    cfg = config["clone"]
    q = QubitSpec.named(cfg["input"])
    result = cloning.run_cloner_full(q, cfg["ancilla_samples"], seed=config["seed"])
    return (["input_state", "fidelity", "success_prob", "s1", "s2", "s3"],
            [(cfg["input"], result.fidelity, result.success_probability,
              *result.stokes)],
            result.to_record(q),
            _plot("bloch_projection", [(cfg["input"], q.bloch(), result.stokes)],
                  "Cloned qubit Bloch vector"))


def run_qudit(config):
    from . import qudit
    cfg = config["qudit"]
    rng = np.random.default_rng(config["seed"])
    rows = []
    for d in range(cfg["d_min"], cfg["d_max"] + 1):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        spec = qudit.QuditSpec(v / np.linalg.norm(v))
        res = qudit.qudit_clone(spec)
        f_formula, p_formula = qudit.qudit_formula(d)
        rows.append((d, res.fidelity, f_formula, res.success_probability, p_formula))
    results = {"rows": [[int(r[0])] + [float(x) for x in r[1:]] for r in rows]}
    return (["d", "F_channel", "F_formula", "p_channel", "p_formula"], rows, results,
            _plot("line_plot", [r[0] for r in rows], [r[1] for r in rows],
                  "Cloning fidelity vs dimension", "d", "fidelity"))


def run_experiment(config):
    from . import experiment
    cfg = config["experiment"]
    model = experiment.ImperfectionModel(float(cfg["f_prep"]), float(cfg["enhancement"]))
    budget = experiment.LossBudget(
        source_rate_hz=float(cfg["source_rate_hz"]),
        qplate_efficiency=float(cfg["qplate_efficiency"]),
        transferrer_success=float(cfg["transferrer_success"]),
        fiber_coupling=(float(cfg["coupling_min"]), float(cfg["coupling_max"])),
        default_coupling=float(cfg["coupling"]),
    )
    report = experiment.table_one_run(model, budget, float(cfg["duration_s"]),
                                      config["seed"])
    # a state without counts has no fidelity estimate: empty cells, not nan
    rows = [(label, c1, c2, *((f, s) if c1 + c2 else (None, None)))
            for label, c1, c2, f, s in report.rows]
    lo, hi = experiment.rate_budget(budget)
    results = {
        "predicted_fidelity": report.predicted,
        "mean_fidelity": report.mean_fidelity,
        "rate_interval_hz": [lo, hi],
        "rate_hz": budget.rate(budget.default_coupling),
    }
    if report.mean_fidelity is None:
        results["reason"] = "no state got coincidence counts; raise experiment.duration_s"
    counted = [i for i, row in enumerate(rows) if row[3] is not None]
    return (["state_label", "C1", "C2", "F_exp", "sigma"], rows, results,
            _plot("line_plot", counted, [rows[i][3] for i in counted],
                  "Simulated per-state fidelity", "state index", "F_exp"))


def run_stokes(config):
    from . import cloning, experiment
    cfg = config["stokes"]
    seeds = np.random.SeedSequence(config["seed"]).spawn(
        len(cfg["states"]) * cfg["runs"])
    rows = []
    arrows = []
    lengths = []
    k = 0
    for label in cfg["states"]:
        q = QubitSpec.named(label)
        ideal = cloning.run_cloner_full(q).stokes
        mean_est = np.zeros(3)
        for run_idx in range(cfg["runs"]):
            res = experiment.simulate_stokes(q, cfg["counts_per_basis"], seeds[k],
                                             ideal=ideal)
            k += 1
            rows.append((label, run_idx, *res.input_bloch, *res.estimated, res.length))
            lengths.append(res.length)
            mean_est += res.estimated
        arrows.append((label, q.bloch(), mean_est / cfg["runs"]))
    results = {
        "mean_length": float(np.mean(lengths)),
        "theory_length": 2.0 / 3.0,
    }
    return (["state", "run", "s1_in", "s2_in", "s3_in",
             "s1_out", "s2_out", "s3_out", "length"], rows, results,
            _plot("bloch_projection", arrows, "Shrunk Bloch sphere of the cloned states"))


# Each runner returns (CSV header, CSV rows, JSON results, SVG thunk), and
# main writes the files that --format and --svg ask for.
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
        import yaml
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
        header, rows, results, svg = RUNNERS[args.scenario](config)
        # serialized on every run, so that a non-finite result fails the run
        # under --format csv too, and before any file is written
        doc = json.dumps({"scenario": args.scenario, "version": __version__,
                          "seed": config["seed"], "config": config, "results": results},
                         sort_keys=True, indent=2, allow_nan=False)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        stem = args.out_dir / args.scenario
        if args.format != "json":
            _write_csv(stem.with_suffix(".csv"), header, rows)
        if args.format != "csv":
            stem.with_suffix(".json").write_text(doc + "\n")
        if args.svg:
            stem.with_suffix(".svg").write_text(svg())
    except FockError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return 0


if __name__ == "__main__":
    sys.exit(main())
