"""In-memory spans around calls into oamclone, and the per-layer figures.

The benchmark installs wrappers on the public functions of each module for
the traced pass only and restores the originals afterwards, so the program
itself carries no tracing code.  Each wrapped call records one span
``(name, start_ns, end_ns, parent, op)``; ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` numbers the root calls, so the
spans of one workload operation share it.

The program is single-threaded and calls nest strictly, so the child spans
of a span never overlap: its self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

from oamclone import cloning, elements, experiment, fock, interference, qudit

COMPLEX_BYTES = 16


class Tracer:
    """Span recorder and counter store for one traced pass.

    Spans are kept flat in an ``array`` of ``FIELDS`` per span, with the
    name stored as an index into ``names``, so a long traced run stays small.
    """

    FIELDS = ("name", "start_ns", "end_ns", "parent", "op")

    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.counts = Counter()
        self._name_ids = {}
        self._stack = []
        self._op = 0

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._op += 1
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans) // 5
        self.spans.extend((name_id, 0, 0, parent, self._op))
        self._stack.append(index)
        self.spans[5 * index + 1] = time.perf_counter_ns()
        return index

    def _exit(self, index):
        self.spans[5 * index + 2] = time.perf_counter_ns()
        self._stack.pop()

    def rows(self):
        """Every span as ``(name, start_ns, end_ns, parent, op)``."""
        s = self.spans
        for i in range(0, len(s), 5):
            yield self.names[s[i]], s[i + 1], s[i + 2], s[i + 3], s[i + 4]

    @contextlib.contextmanager
    def span(self, name):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if count is not None:
                count(self.counts, name, args, kwargs, result)
            return result
        return traced


def _pair_count(state):
    """Stored pair amplitudes of a two-photon state, or None for one photon.

    Both the pair-key dict and a symmetric-matrix store are understood, so the
    counters survive a change of the state's representation.
    """
    amps = getattr(state, "amplitudes", None)
    if isinstance(amps, dict):
        return len(amps)
    if isinstance(amps, np.ndarray) and amps.ndim == 2:
        return int(np.count_nonzero(np.triu(np.abs(amps) > 1e-15)))
    return None


def _count_apply(counts, name, args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    state = args[1] if len(args) > 1 else kwargs["state"]
    n = op.basis.size
    keys = _pair_count(state)
    if keys is None:
        return
    counts[name + ".keys_in"] += keys
    # S -> M S M^T: two complex n x n x n products; reads M twice and S,
    # writes and reads the intermediate, writes the result
    counts[name + ".flops_computed"] += 16 * n ** 3
    counts[name + ".bytes_computed"] += COMPLEX_BYTES * 6 * n * n


def _count_symmetrize(counts, name, args, kwargs, result):
    keys = _pair_count(result)
    if keys is not None:
        counts[name + ".keys_out"] += keys


def _count_project(counts, name, args, kwargs, result):
    keys_in = _pair_count(args[0] if args else kwargs["state"])
    keys_kept = _pair_count(result[0])
    if keys_in is not None and keys_kept is not None:
        counts[name + ".keys_in"] += keys_in
        counts[name + ".keys_kept"] += keys_kept


_CLONER_SIGNATURE = inspect.signature(cloning.run_cloner_full)


def _count_cloner_branches(counts, name, args, kwargs, result):
    bound = _CLONER_SIGNATURE.bind(*args, **kwargs).arguments
    if bound.get("ancilla") is not None:
        branches = 1
    elif bound.get("n_ancilla_samples") is None:
        branches = 2
    else:
        branches = bound["n_ancilla_samples"]
    counts[name + ".branches"] += branches


def _count_qudit_branches(counts, name, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    counts[name + ".branches"] += spec.d


# (owner, attribute, span name, counter); an attribute the program no longer
# has is skipped, so its metrics disappear from the report
TARGETS = (
    (fock, "symmetrize_product", "fock.symmetrize_product", _count_symmetrize),
    (fock, "superposition_state", "fock.superposition_state", None),
    (fock, "reduced_single_pure", "fock.reduced_single_pure", None),
    (fock, "project_keys", "fock.project_keys", _count_project),
    (fock.TwoPhotonState, "from_sym_matrix", "fock.from_sym_matrix", None),
    (elements, "apply", "elements.apply", _count_apply),
    (elements, "beam_splitter", "elements.beam_splitter", None),
    (cloning, "run_cloner_full", "cloning.run_cloner_full", _count_cloner_branches),
    (cloning, "universality_sweep", "cloning.universality_sweep", None),
    (qudit, "qudit_clone", "qudit.qudit_clone", _count_qudit_branches),
    (interference, "hom_curve", "interference.hom_curve", None),
    (interference, "internal_overlap", "interference.internal_overlap", None),
    (experiment, "table_one_run", "experiment.table_one_run", None),
    (experiment, "simulate_stokes", "experiment.simulate_stokes", None),
)


@contextlib.contextmanager
def installed(tracer):
    """Route calls to every target through ``tracer`` for the block's duration."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(tracer.wrap(name, original.__func__, count))
            else:
                replacement = tracer.wrap(name, original, count)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(rows):
    """Per-name (calls, busy_ns, self_ns) from strictly nested span rows."""
    rows = list(rows)
    covered = [0] * len(rows)
    for _, start, end, parent, _ in rows:
        if parent >= 0:
            covered[parent] += end - start
    calls, busy, own = Counter(), Counter(), Counter()
    for (name, start, end, _, _), child_ns in zip(rows, covered):
        calls[name] += 1
        busy[name] += end - start
        own[name] += end - start - child_ns
    return {name: (calls[name], busy[name], own[name]) for name in calls}


def layer_figures(tracer):
    """Per-layer metrics of one traced pass: ``{name: (value, unit)}``.

    Functions give ``<module>.<function>.{calls,self_s}`` plus their counters;
    modules give ``<module>.{calls,self_s}`` summed over their functions.
    """
    out = {}
    modules = Counter()
    module_calls = Counter()
    for name, (calls, busy_ns, self_ns) in self_times(tracer.rows()).items():
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (self_ns * 1e-9, "s")
        if name.startswith("cli.run_"):
            out[name + ".busy_s"] = (busy_ns * 1e-9, "s")
        module = name.split(".")[0]
        modules[module] += self_ns
        module_calls[module] += calls
    for module in modules:
        out[module + ".calls"] = (module_calls[module], "count")
        out[module + ".self_s"] = (modules[module] * 1e-9, "s")
    units = {"flops_computed": "flop", "bytes_computed": "B"}
    for key, value in tracer.counts.items():
        out[key] = (value, units.get(key.rsplit(".", 1)[1], "count"))
    kept = tracer.counts.get("fock.project_keys.keys_kept")
    seen = tracer.counts.get("fock.project_keys.keys_in")
    if seen:
        out["fock.project_keys.kept_ratio"] = (kept / seen, "ratio")
    return out
