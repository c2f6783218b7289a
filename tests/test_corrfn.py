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

finite_floats = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


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
            cf.mirror_extend([1.0, 2.0, 3.0]), [1, 2, 3, 3, 2, 1]
        )

    def test_singleton(self):
        np.testing.assert_array_equal(cf.mirror_extend([7.0]), [7, 7])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            cf.mirror_extend([])

    @given(hnp.arrays(np.float64, st.integers(1, 32), elements=finite_floats))
    def test_seam_and_symmetry(self, c):
        ext = cf.mirror_extend(c)
        assert len(ext) == 2 * len(c)
        assert ext[len(c) - 1] == ext[len(c)]
        np.testing.assert_array_equal(ext, ext[::-1])


class TestFitDft:
    def test_constant_sequence(self):
        theta = cf.fit_dft(np.full(8, 3.25), n_terms=4)
        assert theta.a0 == pytest.approx(3.25, abs=1e-12)
        np.testing.assert_allclose(theta.amplitudes, 0.0, atol=1e-12)

    def test_single_harmonic(self):
        length = 8
        j = np.arange(2 * length)
        theta = cf.fit_dft(np.sin(np.pi / length * j), n_terms=length)
        assert theta.amplitudes[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(theta.amplitudes[1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("length", [4, 8, 16])
    def test_full_rank_reconstructs_mirrored_sequence(self, length):
        rng = SplitMix64(length)
        c = rng.uniform_array((length,), -3.0, 3.0)
        ext = cf.mirror_extend(c)
        theta = cf.fit_dft(ext, n_terms=length)
        recon = cf.eval_corr_1d(theta, np.arange(2 * length), length)
        np.testing.assert_allclose(recon, ext, atol=1e-9)

    def test_full_rank_exact_even_with_nonzero_nyquist(self):
        t = SplitMix64(99).uniform_array((16,), -2.0, 2.0)  # not mirrored
        theta = cf.fit_dft(t, n_terms=8)
        recon = cf.eval_corr_1d(theta, np.arange(16), 8)
        np.testing.assert_allclose(recon, t, atol=1e-9)

    def test_mirrored_sequences_have_zero_nyquist_bin(self):
        for seed in range(5):
            ext = cf.mirror_extend(SplitMix64(seed).uniform_array((9,), -4.0, 4.0))
            assert abs(np.fft.rfft(ext)[-1]) < 1e-9

    @pytest.mark.parametrize("n_keep", [0, 1, 3, 5, 8])
    def test_truncation_matches_slow_dft_oracle(self, n_keep):
        t = SplitMix64(n_keep + 10).uniform_array((16,), -3.0, 3.0)
        theta = cf.fit_dft(t, n_terms=n_keep)
        fast = cf.eval_corr_1d(theta, np.arange(16), 8)
        np.testing.assert_allclose(fast, slow_dft_reconstruction(t, n_keep), atol=1e-9)

    def test_odd_length_rejected(self):
        with pytest.raises(ShapeError, match="even-length"):
            cf.fit_dft(np.zeros(7), n_terms=2)

    def test_excess_terms_rejected(self):
        with pytest.raises(ValueError, match="n_terms"):
            cf.fit_dft(np.zeros(8), n_terms=5)
        with pytest.raises(ValueError, match="n_terms"):
            cf.fit_dft(np.zeros(8), n_terms=-1)


class TestEval1D:
    def test_constant_params(self):
        theta = cf.CorrParams1D(a0=2.5, amplitudes=np.zeros(3), phases=np.zeros(3))
        vals = cf.eval_corr_1d(theta, np.linspace(-7, 7, 11), 6)
        np.testing.assert_allclose(vals, 2.5)

    def test_quarter_phase_peak(self):
        theta = cf.CorrParams1D(a0=0.0, amplitudes=[1.0], phases=[np.pi / 2])
        assert cf.eval_corr_1d(theta, 0.0, 5) == pytest.approx(1.0)

    @given(
        st.integers(1, 5),
        st.integers(1, 16),
        st.floats(-100.0, 100.0, allow_nan=False),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_periodicity(self, n, length, j, seed):
        rng = SplitMix64(seed)
        theta = cf.CorrParams1D(
            a0=rng.uniform(-2, 2),
            amplitudes=rng.uniform_array((n,), -2.0, 2.0),
            phases=rng.uniform_array((n,), -np.pi, np.pi),
        )
        lhs = cf.eval_corr_1d(theta, j + 2 * length, length)
        rhs = cf.eval_corr_1d(theta, j, length)
        assert abs(lhs - rhs) < 1e-9

    def test_mismatched_param_lengths_rejected(self):
        with pytest.raises(ShapeError):
            cf.CorrParams1D(a0=0.0, amplitudes=[1.0, 2.0], phases=[0.0])

    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValueError):
            cf.CorrParams1D(a0=np.inf, amplitudes=[], phases=[])


class TestEval2DAndMap:
    def rand_pair(self, seed, n=3):
        rng = SplitMix64(seed)
        mk = lambda: cf.CorrParams1D(
            a0=rng.uniform(-1, 1),
            amplitudes=rng.uniform_array((n,), -1.5, 1.5),
            phases=rng.uniform_array((n,), -np.pi, np.pi),
        )
        return mk(), mk()

    def test_identity_and_annihilator(self):
        one = cf.CorrParams1D(a0=1.0, amplitudes=[], phases=[])
        zero = cf.CorrParams1D(a0=0.0, amplitudes=[], phases=[])
        assert cf.eval_corr_2d((one, one), (3, 2), 5, 7) == pytest.approx(1.0)
        assert cf.eval_corr_2d((zero, one), (3, 2), 5, 7) == pytest.approx(0.0)
        np.testing.assert_allclose(cf.correlation_map((one, one), 4, 6), 1.0)

    def test_2d_is_product_of_axial_calls(self):
        pair = self.rand_pair(3)
        for vx, vy in [(0, 0), (2.5, 1.0), (6, 3)]:
            want = cf.eval_corr_1d(pair[0], vx, 7) * cf.eval_corr_1d(pair[1], vy, 4)
            assert cf.eval_corr_2d(pair, (vx, vy), 4, 7) == pytest.approx(want)

    def test_map_pointwise_oracle(self):
        pair = self.rand_pair(11)
        grid = cf.correlation_map(pair, 4, 5)
        for y in range(4):
            for x in range(5):
                assert grid[y, x] == pytest.approx(
                    cf.eval_corr_2d(pair, (x, y), 4, 5), abs=1e-12
                )

    def test_degenerate_height(self):
        pair = self.rand_pair(12)
        grid = cf.correlation_map(pair, 1, 6)
        hor = cf.eval_corr_1d(pair[0], np.arange(6), 6)
        ver0 = cf.eval_corr_1d(pair[1], 0, 1)
        np.testing.assert_allclose(grid[0], hor * ver0)

    def test_zero_dims_rejected(self):
        pair = self.rand_pair(13)
        with pytest.raises(ShapeError):
            cf.correlation_map(pair, 0, 5)
        with pytest.raises(ShapeError):
            cf.correlation_map(pair, 5, 0)

    def test_row_change_never_alters_horizontal_factor(self):
        # Separability guard: the ratio map[y, x] / hor[x] is constant in x,
        # so the last column of one row places no constraint on the first
        # column of the next row.
        pair = self.rand_pair(14)
        grid = cf.correlation_map(pair, 5, 8)
        hor = cf.eval_corr_1d(pair[0], np.arange(8), 8)
        ratios = grid / hor
        for y in range(5):
            np.testing.assert_allclose(ratios[y], ratios[y, 0], atol=1e-9)


class TestPackedLayout:
    def test_vector_round_trip(self):
        theta = cf.CorrParams1D(a0=0.5, amplitudes=[1, 2], phases=[0.1, 0.2])
        vec = np.concatenate(([theta.a0], theta.amplitudes, theta.phases))
        back = cf.vector_to_params(vec)
        assert back.a0 == theta.a0
        np.testing.assert_array_equal(back.amplitudes, theta.amplitudes)
        np.testing.assert_array_equal(back.phases, theta.phases)

    def test_even_channel_count_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            cf.vector_to_params(np.zeros(4))

    def test_field_mismatched_halves_rejected(self):
        with pytest.raises(ShapeError):
            cf.CorrParamField(hor=np.zeros((3, 5, 7)), ver=np.zeros((3, 4, 7)))

    def test_theta_at_unpacks_layout(self):
        rng = SplitMix64(21)
        hor = rng.uniform_array((2, 3, 5), -1, 1)
        field = cf.CorrParamField(hor=hor, ver=np.zeros((2, 3, 5)))
        th, _ = cf.theta_at(field, 1, 2)
        assert th.a0 == hor[1, 2, 0]
        np.testing.assert_array_equal(th.amplitudes, hor[1, 2, 1:3])
        np.testing.assert_array_equal(th.phases, hor[1, 2, 3:5])


def per_harmonic_profile(theta, coords, length):
    """Oracle: a0 + sum_n A_n sin(n (pi / length) j + psi_n), one sin per term."""
    n = (theta.shape[-1] - 1) // 2
    out = np.repeat(theta[..., 0:1], len(coords), axis=-1)
    for k in range(1, n + 1):
        args = k * (np.pi / length) * np.asarray(coords) + theta[..., n + k:n + k + 1]
        out = out + theta[..., k:k + 1] * np.sin(args)
    return out


class TestCorrProfile:
    @pytest.mark.parametrize("n_terms", [0, 3])
    @pytest.mark.parametrize("coords", ["integer", "fractional"])
    def test_matches_per_harmonic_oracle(self, n_terms, coords):
        theta = SplitMix64(35 + n_terms).uniform_array((4, 5, 2 * n_terms + 1), -2.0, 2.0)
        if coords == "integer":
            samples = np.arange(5, dtype=float)
        else:  # ICM reference points: grid-cell centers, as in refs.points
            samples = icm.make_reference_grid(4, 5, 3).points[:, 0]
        got = cf.corr_profile(ad.Tensor(theta), samples, 5).data
        want = per_harmonic_profile(theta, samples, 5)
        assert got.shape == (4, 5, samples.size)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_matches_numpy_path(self):
        rng = SplitMix64(31)
        vec = rng.uniform_array((7,), -1.0, 1.0)
        coords = np.arange(9, dtype=float)
        got = cf.corr_profile(ad.Tensor(vec), coords, 9).data
        want = cf.eval_corr_1d(cf.vector_to_params(vec), coords, 9)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_field_batch_matches_per_location(self):
        rng = SplitMix64(32)
        field = rng.uniform_array((3, 4, 5), -1.0, 1.0)
        coords = np.arange(4, dtype=float)
        batched = cf.corr_profile(ad.Tensor(field), coords, 4).data
        for y in range(3):
            for x in range(4):
                want = cf.eval_corr_1d(cf.vector_to_params(field[y, x]), coords, 4)
                np.testing.assert_allclose(batched[y, x], want, atol=1e-12)

    def test_zero_terms(self):
        out = cf.corr_profile(ad.Tensor(np.array([2.0])), np.arange(3.0), 3).data
        np.testing.assert_allclose(out, 2.0)

    def test_gradient_wrt_parameters(self):
        x = ad.Tensor(SplitMix64(33).uniform_array((2, 2, 5), -1.0, 1.0))
        coords = np.arange(6, dtype=float)
        err = ad.check_gradients(
            lambda t: ad.mul(cf.corr_profile(t, coords, 6), 0.3).sum(), x
        )
        assert err < 1e-4
