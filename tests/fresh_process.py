"""Child interpreters that import the package under test.

A child gets the directory of the ``oamclone`` package that this process
imported as its first, absolute ``PYTHONPATH`` entry, so it runs the same copy
from any working directory: a relative entry such as ``PYTHONPATH=src`` would
resolve against the child's cwd.

``run_fresh`` runs a script in a child where no cache of the package is warm
yet.  A fault planted there reaches the package's checks on their first call,
and a count taken there sees each cached object built, with no cache to clear.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import oamclone

PACKAGE_ROOT = Path(oamclone.__file__).resolve().parent.parent

# defined in every run_fresh script
PRELUDE = '''
import json


def refused(call, error):
    """The message of the ``error`` that ``call()`` raises, or None if it returns."""
    try:
        call()
    except error as err:
        return str(err)
    return None
'''

# Counts, in one cold process, the splitter checks (ElementOperator.validate)
# and the one-photon states built (fock.superposition_state) by each call in
# turn: the HOM overlap, a qubit clone, the d = 2 qudit clone of that qubit, then
# qudit clones of fresh inputs at d = 2, 3, 4, twice over.
COLD_CENSUS = '''
import numpy as np
from oamclone import cloning, elements, fock, interference, qudit

validate, build = elements.ElementOperator.validate, fock.superposition_state
counts = {}


def counting_validate(self):
    counts["validates"] += 1
    return validate(self)


def counting_build(basis, terms):
    counts["states"] += 1
    return build(basis, terms)


elements.ElementOperator.validate = counting_validate
fock.superposition_state = counting_build
basis = cloning.cloner_basis()
pa, pb = (build(basis, [(fock.ModeIndex(path, "L", 2), 1.0)]) for path in ("a", "b"))
q = cloning.haar_random_qubit(np.random.default_rng(9))
rng = np.random.default_rng(8)


def random_qudit(d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return qudit.QuditSpec(v / np.linalg.norm(v))


calls = [("overlap", 2, lambda: interference.internal_overlap(pa, pb)),
         ("qubit", 2, lambda: cloning.run_cloner_full(q)),
         ("qudit", 2, lambda: qudit.qudit_clone(qudit.QuditSpec([q.alpha, q.beta])))]
calls += [("qudit", d, lambda d=d: qudit.qudit_clone(random_qudit(d)))
          for _ in range(2) for d in (2, 3, 4)]
census = []
for kind, d, call in calls:
    counts.update(validates=0, states=0)
    res = call()
    census.append({"kind": kind, "d": d, **counts,
                   "fidelity": getattr(res, "fidelity", None),
                   "success": getattr(res, "success_probability", None)})
print(json.dumps(census))
'''


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


@functools.cache
def run_fresh(script: str):
    """The JSON that ``PRELUDE + script`` prints in a new interpreter; each
    script runs once per test session."""
    res = subprocess.run([sys.executable, "-c", PRELUDE + script],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def cold_census():
    """One dict per ``COLD_CENSUS`` call: its kind, d, splitter checks
    ("validates"), states built ("states"), fidelity and success probability."""
    return run_fresh(COLD_CENSUS)
