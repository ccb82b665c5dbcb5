"""oamclone benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Untraced (``--trace 0``) runs measure the
end-to-end metrics; traced runs (``--trace 1``) time each layer instead.
Report lines name every metric with its unit and sample count; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the metrics ``BENCHMARK.json`` lists for that mode.  The exit code
is 0 only when every operation passed its check, and 2 when the checkout
has no oamclone source.  Full results, the environment record and the
spans of traced runs are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# The benchmark's own modules import oamclone, so functions import them only
# after main() has found src/oamclone and put it first on sys.path.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 9
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 600
WORKLOADS = ("clone_sweep", "qudit_scale", "cli_scenarios")


def probe(kind, seed):
    """Seconds a fresh interpreter takes for ``probe.py <kind>``."""
    import workloads
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), kind, str(SRC), str(seed)],
                          env=workloads.child_env(SRC), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"probe {kind} exited {done.returncode}: {done.stderr.strip()}")
    return float(done.stdout)


def probes(kind, seed, count):
    values = [probe(kind, seed) for _ in range(count)]
    return statistics.median(values), len(values)


def measure(workload, seed, seconds):
    """Untraced closed loop for ``seconds`` of op time: (end-to-end metrics, records)."""
    import numpy as np
    import workloads
    rng = np.random.default_rng(seed)
    records = workloads.check_ops(workloads.run_ops(workload.warm_up_ops()))
    cycles, setup = [], []
    while not cycles or sum(cycles) < seconds:
        # set-up probes are spread over the run, so that their median
        # samples the same machine states as the cycles do
        while len(setup) < SETUP_PROBES * min(1.0, sum(cycles) / seconds):
            setup.append(probe(workload.probe, seed))
        done = workloads.run_ops(workload.cycle(rng))
        cycles.append(sum(s for _, s, _, _ in done))
        records.extend(workloads.check_ops(done))
    while len(setup) < SETUP_PROBES:
        setup.append(probe(workload.probe, seed))
    head = [r.seconds * 1e3 for r in records if r.kind in workload.headline]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB", 1),
        "latency_ms_p50": (float(np.percentile(head, 50)), "ms", len(head)),
        "latency_ms_p90": (float(np.percentile(head, 90)), "ms", len(head)),
        "cycle_ms_p50": (float(np.percentile(cycles, 50)) * 1e3, "ms", len(cycles)),
        "cycle_ms_p90": (float(np.percentile(cycles, 90)) * 1e3, "ms", len(cycles)),
    }
    metrics.update(workload.end_to_end(records))
    return metrics, records


def traced_pass(workload, ops):
    """Run ``ops`` once with every layer wrapped: (tracer, op seconds, results)."""
    import spans
    import workloads
    tracer = spans.Tracer()
    with spans.installed(tracer):
        done = workloads.run_ops(ops, tracer)
    return tracer, sum(s for _, s, _, _ in done), done


def trace(workload, seed, seconds):
    """Alternate untraced and traced passes over one fixed cycle.

    Returns (per-layer metrics as medians over the passes, records, the
    tracer of every traced pass).  Counts repeat exactly from pass to pass.
    """
    import numpy as np
    import spans
    import workloads
    rng = np.random.default_rng(seed)
    records = workloads.check_ops(workloads.run_ops(workload.warm_up_ops()))
    ops = workload.traced_cycle(rng)
    reps, tracers = [], []
    spent = 0.0
    while not reps or spent < seconds:
        plain = workloads.run_ops(ops)
        plain_s = sum(s for _, s, _, _ in plain)
        tracer, traced_s, traced = traced_pass(workload, ops)
        records += workloads.check_ops(plain) + workloads.check_ops(traced)
        figures = spans.layer_figures(tracer)
        figures.update(workload.layer_extras())
        figures["tracing.overhead"] = (traced_s / plain_s, "ratio")
        reps.append(figures)
        tracers.append(tracer)
        spent += plain_s + traced_s
    metrics = {}
    for name in sorted({name for rep in reps for name in rep}):
        values = [rep[name][0] for rep in reps if name in rep]
        unit = next(rep[name][1] for rep in reps if name in rep)
        metrics[name] = (statistics.median_low(values), unit, len(values))
    cli_import = probes("cli", seed, IMPORT_PROBES)
    floor_import = probes("floor", seed, IMPORT_PROBES)
    metrics["cli.import_s"] = (cli_import[0], "s", cli_import[1])
    metrics["floor.import_s"] = (floor_import[0], "s", floor_import[1])
    metrics["src.loc"] = (source_lines(), "lines", 1)
    return metrics, records, tracers


def write_spans(path, tracers):
    """One traced pass per line: its span names and flat span fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            fh.write(json.dumps({"fields": tracer.FIELDS, "names": tracer.names,
                                 "spans": tracer.spans.tolist()},
                                separators=(",", ":")) + "\n")


def source_lines():
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((SRC / "oamclone").rglob("*.py")))


def _contract(trace_mode):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace_mode else "end_to_end"]]


def run_one(name, seed, seconds, trace_mode):
    import envinfo
    import workloads
    workload = workloads.make(name, SRC, OUT / "tmp")
    env = envinfo.environment(ROOT, seed)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  "
          f"{'traced' if trace_mode else 'untraced'}")
    print("environment " + json.dumps(env, sort_keys=True))
    if trace_mode:
        metrics, records, tracers = trace(workload, seed, seconds)
    else:
        metrics, records = measure(workload, seed, seconds)
        tracers = None
    failures = [r for r in records if r.problem]
    metrics["error_rate"] = (len(failures) / len(records), "ratio", len(records))
    for metric, (value, unit, n) in metrics.items():
        print(f"  {metric:<40} {value:>16.6g} {unit:<6} n={n}")
    for r in failures[:10]:
        print(f"FAILED {r.kind}: {r.problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace_mode)}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace_mode),
        "environment": env, "attempted": len(records), "failed": len(failures),
        "failures": [f"{r.kind}: {r.problem}" for r in failures[:100]],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
    }, indent=1) + "\n")
    if tracers is not None:
        write_spans(OUT / f"{name}-spans.json", tracers)
    shutil.rmtree(OUT / "tmp", ignore_errors=True)
    wanted = _contract(trace_mode)
    missing = [m for m in wanted if m not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(seed, seconds, trace_mode):
    """Each workload in its own process, so peak memory is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace_mode))],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1]) if lines else {}
        except ValueError:
            result = {}
        summary["correct"] &= bool(result.get("correct"))
        summary["attempted"] += result.get("attempted", 0)
        summary["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "oamclone" / "__init__.py").is_file():
        print(f"perfbench: no oamclone source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oamclone
    if not Path(oamclone.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported oamclone from {oamclone.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
