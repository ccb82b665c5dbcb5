import math

import numpy as np
import pytest

from oamclone import ConfigurationError
from oamclone.fock import ModeIndex, build_basis, superposition_state
from oamclone.interference import (
    KAPPA,
    DelayScan,
    SpectralProfile,
    coherence_length,
    coincidence_expectation,
    hom_curve,
    internal_overlap,
    temporal_overlap,
)
from pair_reference import internal_overlap_direct, photon_amplitude

BASIS = build_basis(("a", "b", "a_prime", "b_prime"), (-2, 2), pols=("L",))


def oam_state(path, plus, minus):
    return superposition_state(BASIS, [(ModeIndex(path, "L", 2), plus),
                                       (ModeIndex(path, "L", -2), minus)])


def random_oam_pair(rng):
    q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return oam_state("a", *q[0]), oam_state("b", *q[1])


class TestTemporalOverlap:
    def test_coherence_length_of_default_filter(self):
        lc = coherence_length(SpectralProfile())
        assert lc == pytest.approx(105.3375e-6, rel=1e-12)

    def test_limits(self):
        prof = SpectralProfile()
        assert temporal_overlap(0.0, prof) == 1.0
        assert temporal_overlap(1.0, prof) < 1e-300
        lc = coherence_length(prof)
        assert temporal_overlap(lc, prof) == pytest.approx(math.exp(-KAPPA))
        assert temporal_overlap(-0.3 * lc, prof) == temporal_overlap(0.3 * lc, prof)

    def test_against_numerical_fourier_transform(self):
        # oracle: |FT of the gaussian spectral intensity|, computed by quadrature
        prof = SpectralProfile()
        lam, dlam = prof.center_wavelength, prof.bandwidth_fwhm
        k0 = 2 * math.pi / lam
        dk = 2 * math.pi * dlam / lam ** 2  # FWHM in wavenumber
        sigma_k = dk / (2 * math.sqrt(2 * math.log(2)))
        k = np.linspace(k0 - 8 * sigma_k, k0 + 8 * sigma_k, 20001)
        intensity = np.exp(-((k - k0) ** 2) / (2 * sigma_k ** 2))
        intensity /= np.trapezoid(intensity, k)
        for frac in (0.0, 0.2, 0.5, 1.0, 1.7):
            d = frac * coherence_length(prof)
            numeric = abs(np.trapezoid(intensity * np.exp(1j * k * d), k))
            assert temporal_overlap(d, prof) == pytest.approx(numeric, abs=1e-6)

    def test_bad_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            SpectralProfile(bandwidth_fwhm=0.0)
        with pytest.raises(ConfigurationError):
            temporal_overlap(float("nan"), SpectralProfile())

    @pytest.mark.parametrize("wavelength, bandwidth", [
        (math.nan, 6e-9), (math.inf, 6e-9), (795e-9, math.nan), (795e-9, math.inf),
        # the coherence length wavelength^2 / bandwidth underflows to 0 or overflows
        (1e-300, 1e300), (1e300, 6e-9)])
    def test_non_finite_profile_rejected(self, wavelength, bandwidth):
        with pytest.raises(ConfigurationError):
            SpectralProfile(wavelength, bandwidth)


class TestInternalOverlap:
    def test_opposite_oam_eigenstates_fully_enhance(self):
        assert internal_overlap(oam_state("a", 1, 0), oam_state("b", 0, 1)) \
            == pytest.approx(1.0)

    def test_equal_oam_eigenstates_do_not_enhance(self):
        assert internal_overlap(oam_state("a", 1, 0), oam_state("b", 1, 0)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_matching_superpositions_fully_enhance(self):
        s = 1 / math.sqrt(2)
        assert internal_overlap(oam_state("a", s, s), oam_state("b", s, s)) \
            == pytest.approx(1.0)

    def test_orthogonal_superpositions_do_not_enhance(self):
        s = 1 / math.sqrt(2)
        assert internal_overlap(oam_state("a", s, s), oam_state("b", s, -s)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pa, pb = random_oam_pair(rng)
            pa2 = oam_state("a", photon_amplitude(pb, ModeIndex("b", "L", 2)),
                            photon_amplitude(pb, ModeIndex("b", "L", -2)))
            pb2 = oam_state("b", photon_amplitude(pa, ModeIndex("a", "L", 2)),
                            photon_amplitude(pa, ModeIndex("a", "L", -2)))
            assert internal_overlap(pa, pb) == pytest.approx(
                internal_overlap(pa2, pb2), abs=1e-12)

    def test_two_routes_agree_on_random_states(self):
        # beam-splitter route vs the direct flipped-overlap formula
        rng = np.random.default_rng(7)
        for _ in range(200):
            pa, pb = random_oam_pair(rng)
            assert internal_overlap(pa, pb) == pytest.approx(
                internal_overlap_direct(pa, pb), abs=1e-10)

    def test_same_path_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            internal_overlap(oam_state("a", 1, 0), oam_state("a", 0, 1))

    def test_a_photon_on_both_input_paths_is_rejected(self):
        both = superposition_state(BASIS, [(ModeIndex("a", "L", 2), 1.0),
                                           (ModeIndex("b", "L", 2), 1.0)])
        with pytest.raises(ConfigurationError, match="exactly one path"):
            internal_overlap(both, oam_state("b", 1, 0))


class TestCoincidenceCurve:
    def test_peak_and_baseline(self):
        prof = SpectralProfile()
        pa, pb = oam_state("a", 1, 0), oam_state("b", 0, 1)
        assert coincidence_expectation(pa, pb, 0.0, prof) == pytest.approx(2.0)
        assert coincidence_expectation(pa, pb, 0.01, prof) == pytest.approx(1.0)

    def test_flat_for_distinguishable_pair(self):
        prof = SpectralProfile()
        pa, pb = oam_state("a", 1, 0), oam_state("b", 1, 0)
        for d in np.linspace(-2e-4, 2e-4, 11):
            assert coincidence_expectation(pa, pb, d, prof) == pytest.approx(1.0)

    def test_curve_shape(self):
        prof = SpectralProfile()
        lc = coherence_length(prof)
        delays = np.linspace(-3 * lc, 3 * lc, 121)
        scan = hom_curve(oam_state("a", 1, 0), oam_state("b", 0, 1), delays, prof)
        assert isinstance(scan, DelayScan)
        assert scan.ratio == pytest.approx(2.0)
        assert np.allclose(scan.coincidences, scan.coincidences[::-1], atol=1e-12)
        half = scan.coincidences[delays >= 0]
        assert np.all(np.diff(half) <= 1e-12)  # monotone decay away from zero
        v = np.exp(-KAPPA * (delays / lc) ** 2)
        assert np.allclose(scan.coincidences, 1.0 + v * v, atol=1e-12)

    def test_mixture_average_gives_intermediate_ratio(self):
        # photon b in an equal classical mixture of the two eigenstates
        prof = SpectralProfile()
        pa = oam_state("a", 1, 0)
        peak = 0.5 * (coincidence_expectation(pa, oam_state("b", 0, 1), 0.0, prof)
                      + coincidence_expectation(pa, oam_state("b", 1, 0), 0.0, prof))
        assert peak == pytest.approx(1.5)

    def test_partial_distinguishability_interpolates(self):
        prof = SpectralProfile()
        c = math.cos(0.3)
        s = math.sin(0.3)
        pa = oam_state("a", 1, 0)
        pb = oam_state("b", s, c)  # flipped overlap with +2 is c
        scan = hom_curve(pa, pb, [0.0], prof)
        assert scan.ratio == pytest.approx(1.0 + c * c, abs=1e-12)

    def test_empty_scan_rejected(self):
        with pytest.raises(ConfigurationError):
            hom_curve(oam_state("a", 1, 0), oam_state("b", 0, 1), [], SpectralProfile())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            hom_curve(oam_state("a", 1, 0), oam_state("b", 0, 1), [0.0, bad],
                      SpectralProfile())

    def test_huge_finite_delays_have_no_overlap(self):
        # (delay / l_c)^2 overflows; pytest turns numpy's RuntimeWarning into an error
        prof = SpectralProfile()
        scan = hom_curve(oam_state("a", 1, 0), oam_state("b", 0, 1), [1e300, -1e300, 0.0], prof)
        assert scan.coincidences[:2].tolist() == [1.0, 1.0]
        assert scan.coincidences[2] == pytest.approx(2.0)
        assert temporal_overlap(1e300, prof) == 0.0
