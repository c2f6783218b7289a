import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corrseg import autodiff as ad
from corrseg import corrfn as cf
from corrseg import icm
from corrseg.errors import ShapeError
from corrseg.rng import SplitMix64
from oracles import (check_gradients, corr_profile_ops, fit_dft, mirror_extend,
                     per_harmonic_profile)

finite_floats = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def profile(theta, coords, length):
    """corr_profile on plain packed parameters, as a plain array."""
    return cf.corr_profile(ad.Tensor(np.asarray(theta, dtype=float)), coords, length).data


def slow_dft_reconstruction(t, n_keep):
    """O(M^2) truncated-spectrum reconstruction, no FFT involved."""
    m = len(t)
    spectrum = []
    for n in range(m):
        acc = 0.0 + 0.0j
        for k in range(m):
            acc += t[k] * np.exp(-2j * np.pi * n * k / m)
        spectrum.append(acc)
    recon = np.zeros(m)
    for j in range(m):
        val = spectrum[0].real / m
        for n in range(1, n_keep + 1):
            coef = spectrum[n] * np.exp(2j * np.pi * n * j / m)
            if n == m - n:  # Nyquist bin has no conjugate partner
                val += coef.real / m
            else:
                val += 2.0 * coef.real / m
        recon[j] = val
    return recon


class TestMirrorExtend:
    def test_three_elements(self):
        np.testing.assert_array_equal(
            mirror_extend([1.0, 2.0, 3.0]), [1, 2, 3, 3, 2, 1]
        )

    def test_singleton(self):
        np.testing.assert_array_equal(mirror_extend([7.0]), [7, 7])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            mirror_extend([])

    @given(hnp.arrays(np.float64, st.integers(1, 32), elements=finite_floats))
    def test_seam_and_symmetry(self, c):
        ext = mirror_extend(c)
        assert len(ext) == 2 * len(c)
        assert ext[len(c) - 1] == ext[len(c)]
        np.testing.assert_array_equal(ext, ext[::-1])


class TestFitDft:
    def test_constant_sequence(self):
        theta = fit_dft(np.full(8, 3.25), n_terms=4)
        assert theta[0] == pytest.approx(3.25, abs=1e-12)
        np.testing.assert_allclose(theta[1:5], 0.0, atol=1e-12)

    def test_single_harmonic(self):
        length = 8
        j = np.arange(2 * length)
        theta = fit_dft(np.sin(np.pi / length * j), n_terms=length)
        assert theta[1] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(theta[2:length + 1], 0.0, atol=1e-12)

    @pytest.mark.parametrize("length", [4, 8, 16])
    def test_full_rank_reconstructs_mirrored_sequence(self, length):
        rng = SplitMix64(length)
        c = rng.uniform_array((length,), -3.0, 3.0)
        ext = mirror_extend(c)
        theta = fit_dft(ext, n_terms=length)
        recon = profile(theta, np.arange(2 * length), length)
        np.testing.assert_allclose(recon, ext, atol=1e-9)

    def test_full_rank_exact_even_with_nonzero_nyquist(self):
        t = SplitMix64(99).uniform_array((16,), -2.0, 2.0)  # not mirrored
        theta = fit_dft(t, n_terms=8)
        recon = profile(theta, np.arange(16), 8)
        np.testing.assert_allclose(recon, t, atol=1e-9)

    def test_mirrored_sequences_have_zero_nyquist_bin(self):
        for seed in range(5):
            ext = mirror_extend(SplitMix64(seed).uniform_array((9,), -4.0, 4.0))
            assert abs(np.fft.rfft(ext)[-1]) < 1e-9

    @pytest.mark.parametrize("n_keep", [0, 1, 3, 5, 8])
    def test_truncation_matches_slow_dft_oracle(self, n_keep):
        t = SplitMix64(n_keep + 10).uniform_array((16,), -3.0, 3.0)
        theta = fit_dft(t, n_terms=n_keep)
        fast = profile(theta, np.arange(16), 8)
        np.testing.assert_allclose(fast, slow_dft_reconstruction(t, n_keep), atol=1e-9)

    def test_odd_length_rejected(self):
        with pytest.raises(ShapeError, match="even-length"):
            fit_dft(np.zeros(7), n_terms=2)

    def test_excess_terms_rejected(self):
        with pytest.raises(ValueError, match="n_terms"):
            fit_dft(np.zeros(8), n_terms=5)
        with pytest.raises(ValueError, match="n_terms"):
            fit_dft(np.zeros(8), n_terms=-1)


class TestEval1D:
    """Closed-form properties of one-axis evaluation through corr_profile."""

    def test_constant_params(self):
        theta = np.concatenate(([2.5], np.zeros(3), SplitMix64(5).uniform_array((3,), -3, 3)))
        np.testing.assert_allclose(profile(theta, np.linspace(-7, 7, 11), 6), 2.5)

    def test_quarter_phase_peak(self):
        assert profile([0.0, 1.0, np.pi / 2], [0.0], 5)[0] == pytest.approx(1.0)

    @given(
        st.integers(1, 5),
        st.integers(1, 16),
        st.floats(-100.0, 100.0, allow_nan=False),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_periodicity(self, n, length, j, seed):
        rng = SplitMix64(seed)
        theta = np.concatenate((
            [rng.uniform(-2, 2)],
            rng.uniform_array((n,), -2.0, 2.0),
            rng.uniform_array((n,), -np.pi, np.pi),
        ))
        lhs, rhs = profile(theta, [j + 2 * length, j], length)
        assert abs(lhs - rhs) < 1e-9


class TestPackedLayout:
    def test_even_channel_count_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            cf.corr_profile(ad.Tensor(np.zeros(4)), np.arange(3.0), 3)

    def test_field_mismatched_halves_rejected(self):
        with pytest.raises(ShapeError):
            cf.CorrParamField(hor=np.zeros((3, 5, 7)), ver=np.zeros((3, 4, 7)))


class TestCorrProfile:
    @pytest.mark.parametrize("n_terms", [0, 3])
    @pytest.mark.parametrize("coords", ["integer", "fractional"])
    def test_matches_per_harmonic_oracle(self, n_terms, coords):
        theta = SplitMix64(35 + n_terms).uniform_array((4, 5, 2 * n_terms + 1), -2.0, 2.0)
        if coords == "integer":
            samples = np.arange(5, dtype=float)
        else:  # ICM reference points: grid-cell centers, as in refs.points
            samples = icm.make_reference_grid(4, 5, 3).points[:, 0]
        got = profile(theta, samples, 5)
        want = per_harmonic_profile(theta, samples, 5)
        assert got.shape == (4, 5, samples.size)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_matches_numpy_path(self):
        # One location's unbatched (2N+1,) vector, as viz passes it.
        vec = SplitMix64(31).uniform_array((7,), -1.0, 1.0)
        coords = np.arange(9, dtype=float)
        got = profile(vec, coords, 9)
        assert got.shape == (9,)
        np.testing.assert_allclose(got, per_harmonic_profile(vec, coords, 9), atol=1e-12)

    def test_field_batch_matches_per_location(self):
        rng = SplitMix64(32)
        field = rng.uniform_array((3, 4, 5), -1.0, 1.0)
        coords = np.arange(4, dtype=float)
        batched = profile(field, coords, 4)
        for y in range(3):
            for x in range(4):
                want = per_harmonic_profile(field[y, x], coords, 4)
                np.testing.assert_allclose(batched[y, x], want, atol=1e-12)

    def test_zero_terms(self):
        out = profile([2.0], np.arange(3.0), 3)
        np.testing.assert_allclose(out, 2.0)

    def test_gradient_wrt_parameters(self):
        x = ad.Tensor(SplitMix64(33).uniform_array((2, 2, 5), -1.0, 1.0))
        coords = np.arange(6, dtype=float)
        err = check_gradients(
            lambda t: ad.mul(cf.corr_profile(t, coords, 6), 0.3).sum(), x
        )
        assert err < 1e-4


class TestCorrProfileNode:
    """The one-node profile against the op-by-op graph it replaced."""

    @staticmethod
    def samples(coords):
        if coords == "integer":
            return np.arange(5, dtype=float)
        return icm.make_reference_grid(4, 5, 3).points[:, 0]

    def test_one_tracked_node(self):
        theta = ad.Tensor(SplitMix64(60).uniform_array((3, 4, 7), -1.0, 1.0),
                          requires_grad=True)
        out = cf.corr_profile(theta, np.arange(4.0), 4)
        assert [node for node in out._topo_order() if node._grad_fn is not None] == [out]
        assert out._parents == (theta,)

    @pytest.mark.parametrize("n_terms", [0, 1, 3])
    @pytest.mark.parametrize("coords", ["integer", "fractional"])
    def test_matches_composed_graph(self, n_terms, coords):
        # Value and gradient bit for bit, under a random output gradient.
        data = SplitMix64(61 + n_terms).uniform_array((4, 5, 2 * n_terms + 1), -2.0, 2.0)
        samples = self.samples(coords)
        weights = ad.Tensor(SplitMix64(62).uniform_array((4, 5, samples.size), -1.0, 1.0))
        results = []
        for evaluate in (cf.corr_profile, corr_profile_ops):
            theta = ad.Tensor(data, requires_grad=True)
            out = evaluate(theta, samples, 5)
            ad.mul(out, weights).sum().backward()
            results.append((out.data, theta.grad))
        (got, got_grad), (want, want_grad) = results
        assert np.array_equal(got, want)
        assert np.array_equal(got_grad, want_grad)

    @pytest.mark.parametrize("coords", ["integer", "fractional"])
    def test_gradient_fd(self, coords):
        theta = ad.Tensor(SplitMix64(63).uniform_array((2, 3, 7), -1.0, 1.0))
        samples = self.samples(coords)
        weights = ad.Tensor(SplitMix64(64).uniform_array((2, 3, samples.size), -1.0, 1.0))
        err = check_gradients(
            lambda t: ad.mul(cf.corr_profile(t, samples, 5), weights).sum(), theta)
        assert err < 1e-8


class TestBasisCache:
    """The (2N, M) basis is built once per (N, length, positions)."""

    def test_cached_basis_is_shared_and_read_only(self):
        coords = np.arange(6, dtype=float)
        profile(np.zeros(5), coords, 6)
        basis = cf._basis(2, 6, coords.tobytes())
        assert cf._basis(2, 6, coords.tobytes()) is basis
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_sizes_in_turn_equal_a_fresh_build(self):
        # Value and gradient bit for bit against the op-by-op graph, which
        # builds its basis from sin and cos afresh on every call.
        for length in (5, 8, 5, 8):
            data = SplitMix64(70 + length).uniform_array((3, length, 7), -2.0, 2.0)
            weights = ad.Tensor(SplitMix64(71).uniform_array((3, length, length), -1.0, 1.0))
            results = []
            for evaluate in (cf.corr_profile, corr_profile_ops):
                theta = ad.Tensor(data, requires_grad=True)
                out = evaluate(theta, np.arange(length), length)
                ad.mul(out, weights).sum().backward()
                results.append((out.data, theta.grad))
            (got, got_grad), (want, want_grad) = results
            assert np.array_equal(got, want), length
            assert np.array_equal(got_grad, want_grad), length
