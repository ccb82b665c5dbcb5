"""Mutation census: each entry plants one fault in a copy of the tree, and at least
one of the tests named for it must then fail.

    python tests/mutants.py

The runner copies the files that git tracks (``git ls-files``, as they are in the
working tree) to a temporary directory, runs every named test there unmutated (all
must pass), then plants each mutant in turn and runs its tests (one must fail).  An
entry whose snippet does not occur exactly once in its file fails the runner before
any test runs, so a change that moves a guarded line must update or retire its entry.
Exit 0 when every mutant is killed, 1 otherwise.  pytest does not collect this file
(its name does not match ``test_*.py``); stdlib, git and pytest only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in the file
    replacement: str
    invariant: str  # what the snippet guards
    nodes: tuple  # pytest node ids, at least one of which fails under the mutant


MUTANTS = [
    # the north-star invariants checked where layers meet
    Mutant("src/oamclone/elements.py", "if not err <= UNITARY_ATOL:", "if False:",
           "the cached splitter is unitary",
           ("tests/test_elements.py::TestBeamSplitter"
            "::test_cached_splitters_are_checked_for_unitarity",)),
    Mutant("src/oamclone/fock.py", "if prob > 1.0 + NORM_ATOL:", "if False:",
           "a post-selection probability is at most 1",
           ("tests/test_fock.py::TestProjectKeys::test_probability_above_one_rejected",)),
    Mutant("src/oamclone/fock.py", "if not (trace_err <= NORM_ATOL and ", "if not (",
           "a density matrix has unit trace",
           ("tests/test_fock.py::test_density_validation",)),
    Mutant("src/oamclone/fock.py", " and herm_err <= HERM_ATOL", "",
           "a density matrix is Hermitian",
           ("tests/test_fock.py::test_density_validation",)),
    Mutant("src/oamclone/fock.py", " and min_eig >= -PSD_ATOL", "",
           "a density matrix is positive semidefinite",
           ("tests/test_cloning.py::TestOptimalCloning"
            "::test_clone_that_is_not_a_density_matrix_is_rejected",)),
    Mutant("src/oamclone/fock.py", "if not (w >= 0.0 and math.isfinite(w)):", "if False:",
           "each mixture or ancilla weight is finite and >= 0",
           ("tests/test_fock.py::TestMix::test_weights_that_are_not_a_distribution_are_rejected",
            "tests/test_elements.py::TestCoalesce"
            "::test_weights_that_are_not_a_distribution_are_rejected")),
    Mutant("src/oamclone/fock.py", "if abs(total - 1.0) > NORM_ATOL:", "if False:",
           "mixture and ancilla weights sum to 1",
           ("tests/test_fock.py::TestMix::test_weight_sum_violation",
            "tests/test_elements.py::TestCoalesce"
            "::test_weights_that_are_not_a_distribution_are_rejected")),
    # the splitter, the port and the clone's score
    Mutant("src/oamclone/elements.py", "(reflected, -mode.oam, 1j * inv)",
           "(reflected, -mode.oam, -1j * inv)", "the reflection's phase is i",
           ("tests/test_elements.py::TestBeamSplitter::test_single_photon_routing",)),
    Mutant("src/oamclone/elements.py", "(reflected, -mode.oam, 1j * inv)",
           "(reflected, mode.oam, 1j * inv)", "reflection flips the OAM sign",
           ("tests/test_elements.py::TestBeamSplitter::test_opposite_oam_coalesce",)),
    Mutant("src/oamclone/elements.py", "rows = slice(r[0], r[-1] + 1)",
           "rows = slice(r[0], r[-1])", "apply writes every row the splitter reaches",
           ("tests/test_elements.py::TestApply"
            "::test_at_the_gather_size_any_element_writes_only_the_rows_it_reaches",
            "tests/test_channel_reference.py::test_label_clone_with_the_maximally_mixed_ancilla")),
    Mutant("src/oamclone/cloning.py", "phi.conj() @ clone.matrix @ phi",
           "phi @ clone.matrix @ phi.conj()", "the fidelity is <phi|clone|phi>",
           ("tests/test_cloning.py::TestOptimalCloning::test_fidelity_five_sixths_full_route",
            "tests/test_channel_reference.py::test_label_clone_with_the_maximally_mixed_ancilla")),
    Mutant("src/oamclone/cloning.py", "phi = psi_a.amplitudes[:d]",
           "phi = np.asarray(amps, dtype=complex)", "the fidelity scores the normalized input",
           ("tests/test_qudit.py::TestChannelAgreement"
            "::test_an_input_off_unit_norm_is_scored_normalized",
            "tests/test_channel_reference.py::test_label_clone_with_the_maximally_mixed_ancilla")),
    Mutant("src/oamclone/cloning.py", "if len(amps) != d:", "if False:",
           "an ancilla has one amplitude per label",
           ("tests/test_elements.py::TestCoalesce"
            "::test_an_ancilla_of_the_wrong_length_is_rejected",)),
    # the closed forms and the one normalizer
    Mutant("src/oamclone/experiment.py", "(qudit_formula(2)[1] / 2)", "qudit_formula(2)[1]",
           "the loss budget reads the cloner's one-port p, 3/8",
           ("tests/test_experiment.py::TestLossBudget::test_rate_interval",)),
    Mutant("src/oamclone/qubit.py", "BLOCH_SHRINK = 2.0 * qudit_formula(2)[0] - 1.0",
           "BLOCH_SHRINK = qudit_formula(2)[0]",
           "the qubit clone's Bloch vector shrinks to 2F - 1 = 2/3",
           ("tests/test_cli.py::TestScenarios::test_stokes_summary",
            "tests/test_golden.py::test_outputs_match_the_golden_files[default-clone]")),
    Mutant("src/oamclone/qubit.py", "if abs(nrm - 1.0) > 1e-12 else a",
           "if abs(nrm - 1.0) > 1e-3 else a", "the amplitude rule rescales any norm off 1",
           ("tests/test_qudit.py::test_a_norm_just_off_one_is_rescaled",)),
    Mutant("src/oamclone/fock.py", "PhotonState(basis, normalized_amplitudes(vec))",
           "PhotonState(basis, vec)", "a photon is normalized by the one amplitude rule",
           ("tests/test_fock.py::test_every_state_vector_follows_one_amplitude_rule",
            "tests/test_channel_reference.py::test_label_clone_with_the_maximally_mixed_ancilla")),
    Mutant("src/oamclone/fock.py", "v = normalized_amplitudes(state.amplitudes)",
           "v = state.amplitudes", "a projector is normalized by the one amplitude rule",
           ("tests/test_fock.py::test_every_state_vector_follows_one_amplitude_rule",)),
    Mutant("src/oamclone/experiment.py", "if means.max() > POISSON_MEAN_MAX:",
           "if means.max() > 2 * POISSON_MEAN_MAX:",
           "a Poisson mean above numpy's limit is refused as a configuration error",
           ("tests/test_experiment.py::TestSimulateCounts"
            "::test_the_poisson_guard_sits_at_numpys_limit",)),
    # the Stokes counts: draw order and the basis without counts
    Mutant("src/oamclone/experiment.py", "np.stack([mean * p, mean * (1.0 - p)], axis=-1)",
           "np.stack([mean * (1.0 - p), mean * p], axis=-1)",
           "each basis draws its + count, then its - count",
           ("tests/test_cli.py::test_stokes_rows_match_the_per_run_reference",)),
    Mutant("src/oamclone/experiment.py", "np.maximum(c_plus + c_minus, 1)", "(c_plus + c_minus)",
           "a Stokes component without counts reads 0.0, with no warning",
           ("tests/test_experiment.py::TestSimulateStokes"
            "::test_a_basis_without_counts_reads_zero_without_warning",)),
    # config bounds and exit codes
    Mutant("src/oamclone/cli.py", '"seed": Key(0, (int,), 0, 2 ** 64 - 1),',
           '"seed": Key(0, (int,), 0, 2 ** 64),', "a seed fits numpy's 64 bits",
           ("tests/test_cli.py::TestExitCodes::test_seed_option_is_bounded_by_the_seed_key",)),
    Mutant("src/oamclone/cli.py", "if label not in STATE_NAMES:", "if False:",
           "a state label names one of the six states",
           ("tests/test_cli.py::TestConfigValidation::test_unknown_state_label",)),
    Mutant("src/oamclone/cli.py", 'if config["qudit"]["d_max"] < config["qudit"]["d_min"]:',
           "if False:", "qudit.d_min <= qudit.d_max",
           ("tests/test_cli.py::TestConfigValidation::test_type_and_range_checks",)),
    Mutant("src/oamclone/cli.py", "elif value is not None and not key.lo <= value <= key.hi:",
           "elif False:", "a config value lies in its key's range",
           ("tests/test_cli.py::TestConfigValidation::test_type_and_range_checks",)),
    Mutant("src/oamclone/cli.py", "return EXIT_PARSE", "return EXIT_VALIDATION",
           "a config that cannot be read or parsed exits 2",
           ("tests/test_cli.py::TestExitCodes"
            "::test_config_that_is_not_utf8_exits_2_and_writes_nothing",)),
    Mutant("src/oamclone/cli.py", "return EXIT_VALIDATION", "return EXIT_RUNTIME",
           "a rejected config exits 3",
           ("tests/test_cli.py::TestExitCodes::test_seed_option_is_bounded_by_the_seed_key",)),
    Mutant("src/oamclone/cli.py", "return EXIT_RUNTIME", "return 0",
           "a failed run exits 1",
           ("tests/test_cli.py::TestExitCodes::test_a_run_that_fails_exits_1_and_writes_nothing",)),
    Mutant("src/oamclone/cloning.py", 'if port not in ("a_prime", "b_prime"):', "if False:",
           "the qubit cloner post-selects a primed port",
           ("tests/test_cloning.py::TestOptimalCloning::test_bad_port_rejected",)),
]


def stale(mutants=MUTANTS, root=ROOT):
    """A message for each mutant whose snippet does not occur exactly once in its file,
    or that names no test."""
    problems = []
    for m in mutants:
        count = (root / m.file).read_text().count(m.snippet)
        if count != 1:
            problems.append(f"{m.file}: snippet {m.snippet!r} occurs {count} times")
        if not m.nodes:
            problems.append(f"{m.file}: no test named for {m.invariant!r}")
    return problems


def copy_tree(target: Path):
    """Copy the working-tree files that git tracks under ``target``."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if "__pycache__" in Path(name).parts or not source.is_file():
            continue
        (target / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, target / name)


def run_tests(root: Path, nodes):
    """pytest's exit code for ``nodes`` in ``root`` (0 all passed, 1 some failed; None
    past ``TIMEOUT_S``, as a planted fault can lift a size bound) and its output."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                              "no:cacheprovider", *nodes],
                             cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return res.returncode, res.stdout + res.stderr


def main() -> int:
    problems = stale()
    if problems:
        print("\n".join(["stale census entries:", *problems]))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_tree(root)
        code, output = run_tests(root, sorted({node for m in MUTANTS for node in m.nodes}))
        if code != 0:
            print(f"the named tests do not pass unmutated (pytest exit {code}):\n{output[-3000:]}")
            return 1
        survivors = 0
        for m in MUTANTS:
            path = root / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            start = time.perf_counter()
            code, _ = run_tests(root, m.nodes)
            path.write_text(original)
            survivors += code != 1
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{verdict:<28} {time.perf_counter() - start:5.1f} s  {m.file}: {m.invariant}")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
