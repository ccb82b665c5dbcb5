"""Mutation census: each entry plants one fault in a copy of the tree, and at least
one of the tests named for it must then fail.

    python tests/mutants.py

Two tables.  ``GUARDS`` holds every guard in ``src/oamclone/*.py``, found with ``ast``:
each ``if``/``elif`` whose body raises, neutralized by a ``False`` condition, and each
``except`` whose body raises, neutralized by a bare ``raise``.  An entry is keyed by the
file, the enclosing function and the condition as written (not by line number).
``MUTANTS`` holds hand-written faults that are not guards: a snippet and its
replacement.

The runner copies the files that git tracks (``git ls-files``, as they are in the
working tree) to a temporary directory, runs every named test there unmutated (all
must pass), then plants each guard's and each mutant's fault in turn and runs its tests
(one must fail).  A guard with no entry, an entry that matches no guard, and a snippet
that does not occur exactly once in its file fail the runner before any test runs: a
new guard needs an entry that names a test which fails without it, and a change that
moves a guarded line must update or retire its entry.  Exit 0 when every fault is
killed, 1 otherwise.  pytest does not collect this file (its name does not match
``test_*.py``); stdlib, git and pytest only.
"""

import ast
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = "src/oamclone"
TIMEOUT_S = 120


class Guard(NamedTuple):
    file: str  # relative to the repository root
    function: str  # qualified name of the enclosing function, as find_guards reports it
    condition: str  # the if's test, or "except <type>", as find_guards reports it
    nodes: tuple  # pytest node ids, at least one of which fails with the guard neutralized


GUARDS = [
    Guard("src/oamclone/cli.py", "_state_label", "not isinstance(raw, str)",
          ("tests/test_cli.py::test_non_string_state_label_exits_3",)),
    Guard("src/oamclone/cli.py", "_state_label", "label not in STATE_NAMES",
          ("tests/test_cli.py::TestConfigValidation::test_unknown_state_label",)),
    Guard("src/oamclone/cli.py", "_state_list", "not 1 <= len(raw) <= MAX_STOKES_STATES",
          ("tests/test_cli.py::test_stokes_state_list_must_be_nonempty_and_bounded",)),
    Guard("src/oamclone/cli.py", "validate_config", "not isinstance(user, dict)",
          ("tests/test_cli.py::TestExitCodes"
           "::test_a_config_that_is_not_a_mapping_exits_3[top-level]",)),
    Guard("src/oamclone/cli.py", "validate_config", "section not in DEFAULTS",
          ("tests/test_cli.py::TestConfigValidation::test_unknown_keys_rejected",)),
    Guard("src/oamclone/cli.py", "validate_config", "not isinstance(value, dict)",
          ("tests/test_cli.py::TestExitCodes"
           "::test_a_config_that_is_not_a_mapping_exits_3[section]",)),
    Guard("src/oamclone/cli.py", "validate_config", "flat not in KEYS",
          ("tests/test_cli.py::TestConfigValidation::test_unknown_keys_rejected",)),
    Guard("src/oamclone/cli.py", "validate_config",
          "isinstance(value, bool) or not isinstance(value, key.types)",
          ("tests/test_cli.py::TestConfigValidation::test_type_and_range_checks",)),
    Guard("src/oamclone/cli.py", "validate_config",
          "value is not None and not key.lo <= value <= key.hi",
          ("tests/test_cli.py::TestConfigValidation::test_type_and_range_checks",)),
    Guard("src/oamclone/cli.py", "validate_config",
          'config["qudit"]["d_max"] < config["qudit"]["d_min"]',
          ("tests/test_cli.py::TestConfigValidation::test_type_and_range_checks",)),
    Guard("src/oamclone/cli.py", "validate_config",
          'not exp["coupling_min"] <= exp["coupling"] <= exp["coupling_max"]',
          ("tests/test_cli.py::TestConfigValidation::test_type_and_range_checks",)),
    Guard("src/oamclone/cli.py", "validate_config",
          'exp["duration_s"] * exp["source_rate_hz"] > MAX_SOURCE_PAIRS',
          ("tests/test_cli.py::test_emitted_pairs_above_their_bound_exit_3",)),
    Guard("src/oamclone/cli.py", "_load_config", "except OSError",
          ("tests/test_cli.py::TestExitCodes::test_unreadable_or_malformed_yaml_exits_2",)),
    Guard("src/oamclone/cli.py", "_load_config", "except yaml.YAMLError",
          ("tests/test_cli.py::TestExitCodes"
           "::test_config_that_is_not_utf8_exits_2_and_writes_nothing",)),
    Guard("src/oamclone/cloning.py", "_label_state", "len(amps) != d",
          ("tests/test_elements.py::TestCoalesce"
           "::test_an_ancilla_of_the_wrong_length_is_rejected",)),
    Guard("src/oamclone/cloning.py", "_ancilla_states", "n_samples < 1",
          ("tests/test_cloning.py::TestUniversality::test_bad_sample_count",)),
    Guard("src/oamclone/cloning.py", "run_cloner_full", 'port not in ("a_prime", "b_prime")',
          ("tests/test_cloning.py::TestOptimalCloning::test_bad_port_rejected",)),
    Guard("src/oamclone/cloning.py", "universality_sweep", "n < 1",
          ("tests/test_cloning.py::TestUniversality"
           "::test_a_sweep_without_random_inputs_is_rejected",)),
    Guard("src/oamclone/elements.py", "ElementOperator.__post_init__",
          "self.matrix.shape != (n, n)",
          ("tests/test_elements.py::TestApply"
           "::test_an_operator_matrix_of_the_wrong_size_is_rejected",)),
    Guard("src/oamclone/elements.py", "ElementOperator.validate", "not err <= UNITARY_ATOL",
          ("tests/test_elements.py::TestBeamSplitter"
           "::test_cached_splitters_are_checked_for_unitarity",)),
    Guard("src/oamclone/elements.py", "apply", "op.basis != state.basis",
          ("tests/test_elements.py::TestApply::test_basis_mismatch_rejected",)),
    Guard("src/oamclone/elements.py", "apply", "not isinstance(state, TwoPhotonState)",
          ("tests/test_elements.py::TestBeamSplitter::test_single_photon_routing",)),
    Guard("src/oamclone/elements.py", "beam_splitter",
          "not set(fock.PATHS) <= {mode.path for mode in basis.modes}",
          ("tests/test_elements.py::TestBeamSplitter::test_missing_paths_rejected",)),
    Guard("src/oamclone/elements.py", "beam_splitter", "any(-m not in oam_set for m in oam_set)",
          ("tests/test_elements.py::TestBeamSplitter"
           "::test_asymmetric_truncation_rejected_with_flip",)),
    Guard("src/oamclone/elements.py", "coalesce", "success == 0.0",
          ("tests/test_elements.py::TestCoalesce::test_no_post_selected_weight_is_rejected",)),
    Guard("src/oamclone/experiment.py", "ImperfectionModel.__post_init__",
          "not 0.5 <= self.f_prep <= 1.0",
          ("tests/test_experiment.py::TestPredictedFidelity::test_parameter_ranges",)),
    Guard("src/oamclone/experiment.py", "ImperfectionModel.__post_init__",
          "not 1.0 <= self.enhancement <= 2.0",
          ("tests/test_experiment.py::TestPredictedFidelity::test_parameter_ranges",)),
    Guard("src/oamclone/experiment.py", "LossBudget.__post_init__", "not 0.0 <= value <= 1.0",
          ("tests/test_experiment.py::TestLossBudget"
           "::test_each_probability_lies_in_the_unit_interval",)),
    Guard("src/oamclone/experiment.py", "LossBudget.__post_init__",
          "not lo <= self.default_coupling <= hi",
          ("tests/test_experiment.py::TestLossBudget::test_validation",)),
    Guard("src/oamclone/experiment.py", "LossBudget.__post_init__",
          "not (math.isfinite(self.source_rate_hz) and self.source_rate_hz > 0)",
          ("tests/test_experiment.py::TestLossBudget::test_non_finite_source_rate_rejected",)),
    Guard("src/oamclone/experiment.py", "fidelity_from_counts",
          "any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) "
          "or c < 0 for c in (c1, c2))",
          ("tests/test_experiment.py::TestFidelityFromCounts"
           "::test_counts_must_be_nonnegative_integers",)),
    Guard("src/oamclone/experiment.py", "fidelity_from_counts", "total == 0",
          ("tests/test_experiment.py::TestFidelityFromCounts::test_zero_total_rejected",)),
    Guard("src/oamclone/experiment.py", "_poisson_pair", "means.max() > POISSON_MEAN_MAX",
          ("tests/test_experiment.py::TestSimulateCounts"
           "::test_poisson_mean_above_numpys_limit_rejected",)),
    Guard("src/oamclone/experiment.py", "simulate_counts",
          "not (math.isfinite(duration_s) and duration_s >= 0)",
          ("tests/test_experiment.py::TestSimulateCounts::test_non_finite_duration_rejected",)),
    Guard("src/oamclone/experiment.py", "simulate_stokes_runs",
          "isinstance(counts_per_basis, (bool, np.bool_)) "
          "or not 1 <= counts_per_basis <= POISSON_MEAN_MAX "
          "or counts_per_basis != int(counts_per_basis)",
          ("tests/test_experiment.py::TestSimulateStokes"
           "::test_count_request_must_be_a_finite_integer",)),
    Guard("src/oamclone/experiment.py", "simulate_stokes_runs",
          "ideal.shape != (3,) or not np.all(np.isfinite(ideal)) "
          "or np.linalg.norm(ideal) > 1.0 + 1e-12",
          ("tests/test_experiment.py::TestSimulateStokes"
           "::test_ideal_must_be_three_finite_components_in_the_ball",)),
    Guard("src/oamclone/fock.py", "ModeIndex.__post_init__", "self.path not in PATHS",
          ("tests/test_fock.py::TestBuildBasis::test_unknown_path_rejected",)),
    Guard("src/oamclone/fock.py", "ModeIndex.__post_init__", "self.pol not in POLS",
          ("tests/test_fock.py::TestBuildBasis::test_unknown_polarization_rejected",)),
    Guard("src/oamclone/fock.py", "ModeBasis.__init__", "not modes",
          ("tests/test_fock.py::TestBuildBasis::test_an_empty_mode_list_is_rejected",)),
    Guard("src/oamclone/fock.py", "ModeBasis.__init__", "mode in lookup",
          ("tests/test_fock.py::TestBuildBasis::test_duplicates_rejected",)),
    Guard("src/oamclone/fock.py", "ModeBasis.port", "not idx",
          ("tests/test_fock.py::TestProjectKeys::test_path_without_modes_rejected",)),
    Guard("src/oamclone/fock.py", "ModeBasis.index", "except KeyError",
          ("tests/test_fock.py::TestSuperpositionState"
           "::test_a_mode_outside_the_basis_is_rejected",)),
    Guard("src/oamclone/fock.py", "build_basis", "not paths or not oam_set",
          ("tests/test_fock.py::TestBuildBasis::test_empty_inputs_rejected",)),
    Guard("src/oamclone/fock.py", "PhotonState.__post_init__",
          "self.amplitudes.shape != (self.basis.size,)",
          ("tests/test_fock.py::TestSuperpositionState"
           "::test_an_amplitude_vector_of_the_wrong_size_is_rejected",)),
    Guard("src/oamclone/fock.py", "TwoPhotonState.__post_init__", "self.amplitudes.shape != (n, n)",
          ("tests/test_fock.py::TestSymmetrizeProduct"
           "::test_inner_and_norm_are_those_of_the_pair_kets",)),
    Guard("src/oamclone/fock.py", "TwoPhotonState.inner", "self.basis != other.basis",
          ("tests/test_fock.py::TestSymmetrizeProduct::test_inner_product_across_bases_rejected",)),
    Guard("src/oamclone/fock.py", "symmetrize_product", "psi_a.basis != psi_b.basis",
          ("tests/test_fock.py::TestSymmetrizeProduct::test_basis_mismatch",)),
    Guard("src/oamclone/fock.py", "symmetrize_product", "norm < 1e-15",
          ("tests/test_fock.py::TestSymmetrizeProduct::test_zero_norm_rejected",)),
    Guard("src/oamclone/fock.py", "project_keys", "prob > 1.0 + NORM_ATOL",
          ("tests/test_fock.py::TestProjectKeys::test_probability_above_one_rejected",)),
    Guard("src/oamclone/fock.py", "DensityOperator.validate",
          "not (trace_err <= NORM_ATOL and herm_err <= HERM_ATOL and min_eig >= -PSD_ATOL)",
          ("tests/test_fock.py::test_density_validation",)),
    Guard("src/oamclone/fock.py", "pure_density", "not isinstance(state, PhotonState)",
          ("tests/test_fock.py::TestPureDensity::test_a_two_photon_state_is_refused",)),
    Guard("src/oamclone/fock.py", "checked_weight", "not (w >= 0.0 and math.isfinite(w))",
          ("tests/test_fock.py::TestMix::test_weights_that_are_not_a_distribution_are_rejected",
           "tests/test_elements.py::TestCoalesce"
           "::test_weights_that_are_not_a_distribution_are_rejected")),
    Guard("src/oamclone/fock.py", "check_total", "abs(total - 1.0) > NORM_ATOL",
          ("tests/test_fock.py::TestMix::test_weight_sum_violation",
           "tests/test_elements.py::TestCoalesce"
           "::test_weights_that_are_not_a_distribution_are_rejected")),
    Guard("src/oamclone/fock.py", "mix", "any(rho.basis != basis for rho, _ in states)",
          ("tests/test_fock.py::TestMix::test_states_on_different_bases_are_rejected",)),
    Guard("src/oamclone/fock.py", "reduced_single_pure", "tr < 1e-30",
          ("tests/test_fock.py::TestPartialTrace::test_the_zero_state_is_refused",)),
    Guard("src/oamclone/interference.py", "SpectralProfile.__post_init__",
          "not (math.isfinite(value) and value > 0)",
          ("tests/test_interference.py::TestTemporalOverlap::test_bad_profiles_rejected",)),
    Guard("src/oamclone/interference.py", "SpectralProfile.__post_init__", "not 0 < lc < math.inf",
          ("tests/test_interference.py::TestTemporalOverlap::test_non_finite_profile_rejected",)),
    Guard("src/oamclone/interference.py", "temporal_overlap", "not np.all(np.isfinite(delay))",
          ("tests/test_interference.py::TestCoincidenceCurve::test_non_finite_delay_rejected",)),
    Guard("src/oamclone/interference.py", "_single_path", "len(paths) != 1",
          ("tests/test_interference.py::TestInternalOverlap"
           "::test_a_photon_on_both_input_paths_is_rejected",)),
    Guard("src/oamclone/interference.py", "internal_overlap", '{pa, pb} != {"a", "b"}',
          ("tests/test_interference.py::TestInternalOverlap::test_same_path_inputs_rejected",)),
    Guard("src/oamclone/interference.py", "hom_curve", "delays.size == 0",
          ("tests/test_interference.py::TestCoincidenceCurve::test_empty_scan_rejected",)),
    Guard("src/oamclone/qubit.py", "qudit_formula", "d < 1",
          ("tests/test_qudit.py::TestFormula::test_rejects_bad_dimension",)),
    Guard("src/oamclone/qubit.py", "normalized_amplitudes", "except OverflowError",
          ("tests/test_qudit.py::test_amplitudes_too_large_for_a_double_are_rejected",)),
    Guard("src/oamclone/qubit.py", "normalized_amplitudes", "a.ndim != 1 or a.size < 1",
          ("tests/test_qudit.py::test_spec_validation",)),
    Guard("src/oamclone/qubit.py", "normalized_amplitudes", "not 0.0 < nrm < math.inf",
          ("tests/test_qudit.py::test_spec_validation",)),
    Guard("src/oamclone/qubit.py", "QubitSpec.named", "except KeyError",
          ("tests/test_cloning.py::TestQubitSpec::test_unknown_label",)),
    Guard("src/oamclone/qubit.py", "stokes_vector", "rho.shape != (2, 2)",
          ("tests/test_cloning.py::TestStokes::test_a_matrix_that_is_not_2x2_is_rejected",)),
    Guard("src/oamclone/qudit.py", "brute_force_oracle", "d > MAX_ORACLE_DIM",
          ("tests/test_qudit.py::TestChannelAgreement::test_oracle_dimension_cap",)),
]


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in the file
    replacement: str
    invariant: str  # what the snippet guards
    nodes: tuple  # pytest node ids, at least one of which fails under the mutant


MUTANTS = [
    # the north-star invariants checked where layers meet
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
]


class Site(NamedTuple):
    function: str  # qualified name of the enclosing function, or "<module>"
    condition: str  # the if's test, or "except <type>", as written on one line
    start: int  # character offsets of the text that neutralizing replaces
    end: int
    replacement: str


def find_guards(source: str):
    """Each guard in ``source``: an ``if``/``elif`` whose body raises (neutralized, its
    condition becomes ``False``) and an ``except`` whose body raises (neutralized, its
    body becomes a bare ``raise``)."""
    lines = source.splitlines(keepends=True)
    starts = list(itertools.accumulate(map(len, lines), initial=0))

    def offset(line, col):  # ast counts columns in UTF-8 bytes
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    def span(first, last):
        return (offset(first.lineno, first.col_offset),
                offset(last.end_lineno, last.end_col_offset))

    def one_line(node):
        start, end = span(node, node)
        return " ".join(source[start:end].replace("\\\n", " ").split())

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            guard = isinstance(child, (ast.If, ast.ExceptHandler)) and any(
                isinstance(statement, ast.Raise) for statement in child.body)
            function = ".".join(scope) or "<module>"
            if guard and isinstance(child, ast.If):
                found.append(Site(function, one_line(child.test),
                                  *span(child.test, child.test), "False"))
            elif guard:  # an except handler
                caught = f"except {one_line(child.type)}" if child.type else "except"
                found.append(Site(function, caught, *span(child.body[0], child.body[-1]),
                                  "raise"))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, [*scope, child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def neutralize(source: str, site: Site) -> str:
    return source[:site.start] + site.replacement + source[site.end:]


def tree_sources(root=ROOT):
    """{file relative to ``root``: its text} for each module of the package."""
    return {f"{SRC}/{path.name}": path.read_text() for path in sorted((root / SRC).glob("*.py"))}


def stale(mutants=MUTANTS, root=ROOT, guards=GUARDS, sources=None):
    """A message for each mutant whose snippet does not occur exactly once in its file,
    for each guard in ``sources`` (default: the package's) without exactly one entry in
    ``guards``, for each guard entry that matches no guard, and for each entry of either
    table that names no test."""
    problems = []
    for m in mutants:
        count = (root / m.file).read_text().count(m.snippet)
        if count != 1:
            problems.append(f"{m.file}: snippet {m.snippet!r} occurs {count} times")
        if not m.nodes:
            problems.append(f"{m.file}: no test named for {m.invariant!r}")
    found = Counter((file, site.function, site.condition)
                    for file, text in (sources or tree_sources(root)).items()
                    for site in find_guards(text))
    listed = Counter((g.file, g.function, g.condition) for g in guards)
    for key, count in found.items():
        where = "{}: guard {}: {!r}".format(*key)
        if not listed[key]:
            problems.append(f"{where} has no entry")
        elif listed[key] > 1 or count > 1:
            problems.append(f"{where} occurs {count} times, with {listed[key]} entries")
    for g in guards:
        if (g.file, g.function, g.condition) not in found:
            problems.append(f"{g.file}: entry {g.function}: {g.condition!r} matches no guard")
        if not g.nodes:
            problems.append(f"{g.file}: no test named for {g.function}: {g.condition!r}")
    return problems


def faults(root):
    """Each census entry as (kind, file, label, the file's text with its fault, nodes)."""
    for g in GUARDS:
        source = (root / g.file).read_text()
        site = next(s for s in find_guards(source)
                    if (s.function, s.condition) == (g.function, g.condition))
        line = source.count("\n", 0, site.start) + 1
        yield ("guard", g.file, f"{g.file}:{line} {g.function}: {g.condition}",
               neutralize(source, site), g.nodes)
    for m in MUTANTS:
        yield ("mutant", m.file, f"{m.file}: {m.invariant}",
               (root / m.file).read_text().replace(m.snippet, m.replacement), m.nodes)


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
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_tree(root)
        every_node = sorted({node for entry in (*GUARDS, *MUTANTS) for node in entry.nodes})
        code, output = run_tests(root, every_node)
        if code != 0:
            print(f"the named tests do not pass unmutated (pytest exit {code}):\n{output[-3000:]}")
            return 1
        planted, killed = Counter(), Counter()
        for kind, file, label, text, nodes in faults(root):
            path = root / file
            original = path.read_text()
            path.write_text(text)
            began = time.perf_counter()
            code, _ = run_tests(root, nodes)
            path.write_text(original)
            planted[kind] += 1
            killed[kind] += code == 1
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{verdict:<28} {time.perf_counter() - began:5.1f} s  {label}")
    print(f"{killed['guard']} of {planted['guard']} guards and {killed['mutant']} of "
          f"{planted['mutant']} mutants killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == planted else 1


if __name__ == "__main__":
    sys.exit(main())
