"""The three workloads: seeded inputs, closed-loop operations and their checks.

Every workload is a closed loop with one caller: an operation starts only
after the previous one has returned and been checked.  Inputs come from a
``numpy.random.Generator`` seeded with the workload seed, so a seed fixes
every input of a run.  Work is grouped in cycles that repeat the same mix
of operations on fresh inputs; a run measures whole cycles.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from oamclone import cli, cloning, qudit

CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    """One call of the closed loop and the check of its result.

    Ops of kind ``warm_up`` run before the measured cycles; they are checked
    and counted but enter no timing.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    span: str | None = None  # root span the benchmark opens around it when traced


@dataclass
class Record:
    kind: str
    seconds: float
    problem: str | None


def run_ops(ops, tracer=None):
    """Run ops back to back; returns ``[(op, seconds, result, error)]``.

    Only the call is timed.  With a tracer, an op that names a span runs
    inside it.  An exception is the op's failure, not the run's.
    """
    done = []
    for op in ops:
        error = result = None
        start = time.perf_counter()
        try:
            if tracer is not None and op.span:
                with tracer.span(op.span):
                    result = op.call()
            else:
                result = op.call()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        done.append((op, time.perf_counter() - start, result, error))
    return done


def check_ops(done):
    """Check each result outside the timed region; returns Records."""
    records = []
    for op, seconds, result, error in done:
        problem = error
        if problem is None:
            try:
                problem = op.check(result)
            except Exception as exc:  # noqa: BLE001 - a crashing check is a failed op
                problem = f"check raised {type(exc).__name__}: {exc}"
        records.append(Record(op.kind, seconds, problem))
    return records


def haar_vector(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def child_env(src: Path):
    """Environment for a child that must import oamclone from ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(src).resolve())]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def own_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _seed(rng):
    return int(rng.integers(2 ** 32))


def _ms(records, kind, q):
    values = [r.seconds * 1e3 for r in records if r.kind == kind]
    return float(np.percentile(values, q)), len(values)


class CloneSweep:
    """Qubit cloner, one configuration (d=2, port a'), many inputs.

    Per cycle: one ``universality_sweep`` over seeded Haar qubits, single
    exact-ancilla ``run_cloner_full`` calls, and one call with sampled
    ancillas.
    """

    probe = "clone_sweep"
    headline = ("clone",)
    peak_rss_mb = staticmethod(own_peak_rss_mb)

    def __init__(self, sweep_n=400, singles=400, ancillas=1000):
        self.sweep_n = sweep_n
        self.singles = singles
        self.ancillas = ancillas

    def warm_up_ops(self):
        q = cloning.QubitSpec.named("h")
        return [Op("warm_up", lambda: cloning.run_cloner_full(q), checks.exact_clone),
                Op("warm_up", lambda: cloning.run_cloner_full(q, n_ancilla_samples=2, seed=0),
                   lambda r: checks.sampled_clone(r, q, 2, 0))]

    @property
    def sweep_inputs(self):
        """Inputs of one sweep: the six reference states plus the Haar qubits."""
        return self.sweep_n + len(cloning.SIX_STATE_AMPLITUDES)

    def cycle(self, rng):
        seed = _seed(rng)
        ops = [Op("sweep", lambda: cloning.universality_sweep(self.sweep_n, seed=seed),
                  lambda r: checks.sweep(r, self.sweep_inputs))]
        for _ in range(self.singles):
            q = cloning.haar_random_qubit(rng)
            ops.append(Op("clone", lambda q=q: cloning.run_cloner_full(q),
                          checks.exact_clone))
        q, seed = cloning.haar_random_qubit(rng), _seed(rng)
        ops.append(Op("sampled",
                      lambda: cloning.run_cloner_full(q, n_ancilla_samples=self.ancillas,
                                                      seed=seed),
                      lambda r: checks.sampled_clone(r, q, self.ancillas, seed)))
        return ops

    traced_cycle = cycle

    def layer_extras(self):
        return {}

    def end_to_end(self, records):
        sweeps = [r for r in records if r.kind == "sweep"]
        p50, n = _ms(records, "clone", 50)
        p99, _ = _ms(records, "clone", 99)
        sampled, n_sampled = _ms(records, "sampled", 50)
        return {
            "clone_per_s": (self.sweep_inputs * len(sweeps) / sum(r.seconds for r in sweeps),
                            "1/s", len(sweeps)),
            "clone_ms_p50": (p50, "ms", n),
            "clone_ms_p99": (p99, "ms", n),
            "sampled_clone_ms_p50": (sampled, "ms", n_sampled),
        }


class QuditScale:
    """``qudit_clone`` on seeded Haar qudits, one call per d in each cycle."""

    probe = "qudit_scale"
    peak_rss_mb = staticmethod(own_peak_rss_mb)

    def __init__(self, dims=(2, 4, 8, 16, 24)):
        self.dims = tuple(dims)
        self.headline = (f"qudit_d{max(self.dims)}",)

    def warm_up_ops(self):
        ops = []
        for d in self.dims:
            spec = qudit.QuditSpec(np.eye(d)[0])
            ops.append(Op("warm_up", lambda spec=spec: qudit.qudit_clone(spec),
                          lambda r, spec=spec: checks.qudit_clone(r, spec)))
        return ops

    def cycle(self, rng):
        ops = []
        for d in self.dims:
            spec = qudit.QuditSpec(haar_vector(rng, d))
            ops.append(Op(f"qudit_d{d}", lambda spec=spec: qudit.qudit_clone(spec),
                          lambda r, spec=spec: checks.qudit_clone(r, spec)))
        return ops

    traced_cycle = cycle

    def layer_extras(self):
        return {}

    def end_to_end(self, records):
        out = {}
        for d in self.dims:
            p50, n = _ms(records, f"qudit_d{d}", 50)
            out[f"qudit_d{d}_ms_p50"] = (p50, "ms", n)
        top = max(self.dims)
        p90, n = _ms(records, f"qudit_d{top}", 90)
        out[f"qudit_d{top}_ms_p90"] = (p90, "ms", n)
        return out


@dataclass
class CliRun:
    exit_code: int
    workdir: Path


class CliScenarios:
    """Each scenario in a fresh ``python -m oamclone <scenario> --seed <s>``.

    A cycle runs every scenario twice with one seed, so that each pair of
    outputs can be compared byte for byte.  Children run one at a time from
    a new directory under ``tmp_root`` with the default config, and find
    oamclone through an absolute ``src`` path on PYTHONPATH.
    """

    probe = "cli"
    SCENARIOS = ("hom", "clone", "qudit", "experiment", "stokes")

    def __init__(self, src: Path, tmp_root: Path, scenarios=SCENARIOS):
        self.src = Path(src).resolve()
        self.tmp_root = Path(tmp_root)
        self.scenarios = tuple(scenarios)
        self.headline = tuple(f"cli_{s}" for s in self.scenarios)
        self.first_output = {}
        self.bytes_by_scenario = {}
        self.child_peak_rss_kb = 0

    def peak_rss_mb(self):
        """Largest resident set of any scenario child."""
        return self.child_peak_rss_kb / 1024.0

    def warm_up_ops(self):
        # the set-up probes, fresh processes themselves, warm the file cache
        return []

    def layer_extras(self):
        return {"cli.bytes_written": (sum(self.bytes_by_scenario.values()), "B")}

    def _workdir(self):
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(dir=self.tmp_root))

    def _run_process(self, scenario, seed):
        workdir = self._workdir()
        with open(workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "oamclone", scenario,
                                     "--seed", str(seed)],
                                    cwd=workdir, env=child_env(self.src),
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, usage.ru_maxrss)
        return CliRun(proc.returncode, workdir)

    def _run_in_process(self, scenario, seed):
        workdir = self._workdir()
        code = cli.main([scenario, "--seed", str(seed), "--out-dir", str(workdir / "out")])
        return CliRun(code, workdir)

    def _check(self, scenario, seed, run):
        try:
            if run.exit_code != 0:
                err = (run.workdir / "stderr.txt")
                detail = err.read_text(errors="replace").strip() if err.exists() else ""
                return f"{scenario} exited {run.exit_code}: {detail[-200:]}"
            out = run.workdir / "out"
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
        problem = checks.scenario_output(scenario, files)
        if problem:
            return problem
        self.bytes_by_scenario[scenario] = sum(len(b) for b in files.values())
        first = self.first_output.setdefault((scenario, seed), files)
        if first != files:
            return f"{scenario} --seed {seed}: outputs differ between two runs"
        return None

    def _ops(self, rng, runner, reps, span):
        seed = _seed(rng)
        ops = []
        for scenario in self.scenarios:
            for _ in range(reps):
                ops.append(Op(f"cli_{scenario}",
                              lambda s=scenario: runner(s, seed),
                              lambda run, s=scenario: self._check(s, seed, run),
                              span=f"cli.run_{scenario}" if span else None))
        return ops

    def cycle(self, rng):
        return self._ops(rng, self._run_process, reps=2, span=False)

    def traced_cycle(self, rng):
        return self._ops(rng, self._run_in_process, reps=1, span=True)

    def end_to_end(self, records):
        out = {}
        for scenario in self.scenarios:
            p50, n = _ms(records, f"cli_{scenario}", 50)
            out[f"cli_{scenario}_ms"] = (p50, "ms", n)
        return out


def make(name, src: Path, tmp_root: Path):
    if name == "clone_sweep":
        return CloneSweep()
    if name == "qudit_scale":
        return QuditScale()
    if name == "cli_scenarios":
        return CliScenarios(src, tmp_root)
    raise ValueError(f"unknown workload {name!r}")
