"""Contracts of the cloner's front ends that hold for any implementation.

No retention: warm calls keep nothing alive, so a process that clones many
inputs holds no more memory than one that clones a few; the benchmark's RSS
growth with its op count comes from its own per-op records.  Output isolation:
a caller that writes over a returned array changes no later result.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from oamclone.cloning import QubitSpec, run_cloner_full, universality_sweep
from oamclone.qudit import QuditSpec, qudit_clone

H = QubitSpec.named("h")
# net traced bytes after a run of warm calls: each front end reads about -0.2
# to 7.3 KB over 30 to 1,200 calls, and a leak of 0.2 KB per call, one
# benchmark record, crosses the bound within the 100 calls of the fast ones
RETAINED_BOUND = 16 * 1024


def random_qudit(d, seed):
    v = np.random.default_rng(seed).normal(size=(d, 2)) @ [1.0, 1j]
    return QuditSpec(v / np.linalg.norm(v))


# name -> (one warm call, the call counts that must each stay under the bound)
WARM_CALLS = {
    "run_cloner_full": (lambda: run_cloner_full(H), (10, 100)),
    "run_cloner_full_sampled": (lambda: run_cloner_full(H, n_ancilla_samples=100, seed=1),
                                (1, 4)),
    "qudit_clone_d2": (lambda: qudit_clone(random_qudit(2, 2)), (10, 100)),
    "qudit_clone_d8": (lambda: qudit_clone(random_qudit(8, 8)), (5, 40)),
    "qudit_clone_d24": (lambda: qudit_clone(random_qudit(24, 24)), (2, 8)),
    "universality_sweep": (lambda: universality_sweep(20), (1, 4)),
}


def retained_bytes(call, n):
    """Traced bytes still allocated after ``n`` calls and a collection."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(n):
            call()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(WARM_CALLS))
def test_warm_calls_retain_nothing(name):
    call, counts = WARM_CALLS[name]
    call()  # fill every cache the call uses
    for n in counts:
        assert retained_bytes(call, n) < RETAINED_BOUND


@pytest.mark.parametrize("d", [2, 24])
def test_writing_over_a_result_changes_no_later_one(d):
    spec = random_qudit(d, 100 + d)
    # (a front end at d, the arrays of its result)
    front_ends = [(lambda: qudit_clone(spec), lambda res: [res.clone_density.matrix])]
    if d == 2:
        q = QubitSpec(*spec.amplitudes)
        front_ends.append((lambda: run_cloner_full(q),
                           lambda res: [res.clone_density, res.stokes]))
    returned = [arrays(call()) for call, arrays in front_ends]
    kept = [[a.tobytes() for a in result] for result in returned]
    for result in returned:
        for a in result:
            a[...] = 7.0
    assert [[a.tobytes() for a in arrays(call())] for call, arrays in front_ends] == kept
