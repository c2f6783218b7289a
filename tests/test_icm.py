import numpy as np
import pytest

from corrseg import autodiff as ad
from corrseg import corrfn as cf
from corrseg import icm, scm
from corrseg.errors import ConfigError, ShapeError
from corrseg.rng import SplitMix64
from oracles import check_gradients, per_harmonic_profile


class TestReferenceGrid:
    def test_single_center_point(self):
        grid = icm.make_reference_grid(16, 16, 1)
        np.testing.assert_array_equal(grid.points, [[8.0, 8.0]])

    def test_full_resolution_grid(self):
        grid = icm.make_reference_grid(16, 16, 16)
        assert len(grid.points) == 256
        xs = np.unique(grid.points[:, 0])
        np.testing.assert_allclose(xs, np.arange(16) + 0.5)

    def test_two_by_two_on_four(self):
        grid = icm.make_reference_grid(4, 4, 2)
        np.testing.assert_array_equal(
            grid.points, [[1, 1], [3, 1], [1, 3], [3, 3]]
        )

    def test_points_inside_bounds(self):
        grid = icm.make_reference_grid(6, 9, 5)
        assert np.all(grid.points[:, 0] > 0) and np.all(grid.points[:, 0] < 9)
        assert np.all(grid.points[:, 1] > 0) and np.all(grid.points[:, 1] < 6)

    def test_degenerate_sides_rejected(self):
        with pytest.raises(ValueError):
            icm.make_reference_grid(8, 8, 0)
        with pytest.raises(ValueError):
            icm.make_reference_grid(4, 4, 9)

    def test_entry_bound(self):
        # 64x64 locations times 128x128 references sits on the bound;
        # one more row of locations is over it.
        assert len(icm.make_reference_grid(64, 64, 128).points) == 128 * 128
        assert 64 * 64 * 128 * 128 == icm.MAX_REFERENCE_ENTRIES
        with pytest.raises(ConfigError, match="above 67108864"):
            icm.make_reference_grid(65, 64, 128)


def rand_field(h, w, n_terms, seed):
    rng = SplitMix64(seed)
    k = 2 * n_terms + 1
    return cf.CorrParamField(
        hor=ad.Tensor(rng.uniform_array((h, w, k), -1, 1)),
        ver=ad.Tensor(rng.uniform_array((h, w, k), -1, 1)),
    )


class TestReferenceCorrelations:
    def test_constant_one_functions(self):
        hor = np.zeros((3, 4, 5))
        hor[:, :, 0] = 1.0
        field = cf.CorrParamField(hor=ad.Tensor(hor), ver=ad.Tensor(hor.copy()))
        out = icm.reference_correlations(field, icm.make_reference_grid(3, 4, 2))
        np.testing.assert_allclose(out.data, 1.0)

    def test_identical_params_identical_vectors(self):
        rng = SplitMix64(1)
        vec = rng.uniform_array((5,), -1, 1)
        hor = np.tile(vec, (2, 3, 1))
        field = cf.CorrParamField(hor=ad.Tensor(hor), ver=ad.Tensor(hor.copy()))
        out = icm.reference_correlations(field, icm.make_reference_grid(2, 3, 2)).data
        np.testing.assert_allclose(out, np.broadcast_to(out[0, 0], out.shape), atol=1e-12)

    def test_matches_pointwise_oracle(self):
        field = rand_field(2, 2, 2, seed=2)
        refs = icm.make_reference_grid(2, 2, 2)
        out = icm.reference_correlations(field, refs).data
        for y in range(2):
            for x in range(2):
                for k, (px, py) in enumerate(refs.points):
                    hor = per_harmonic_profile(field.hor.data[y, x], [px], 2)[0]
                    ver = per_harmonic_profile(field.ver.data[y, x], [py], 2)[0]
                    assert out[y, x, k] == pytest.approx(hor * ver, abs=1e-12)

    def test_phase_difference_separates_locations(self):
        # Same vertical params everywhere; horizontal phases differ between
        # the two locations, so their reference vectors must differ.
        hor = np.zeros((1, 2, 3))
        hor[:, :, 1] = 1.0          # A1 = 1
        hor[0, 0, 2] = 0.0          # psi1
        hor[0, 1, 2] = np.pi / 3
        ver = np.zeros((1, 2, 3))
        ver[:, :, 0] = 1.0
        field = cf.CorrParamField(hor=ad.Tensor(hor), ver=ad.Tensor(ver))
        out = icm.reference_correlations(field, icm.make_reference_grid(1, 2, 1)).data
        assert np.linalg.norm(out[0, 0] - out[0, 1]) > 0.1

    def test_grid_dim_mismatch_rejected(self):
        field = rand_field(3, 3, 1, seed=3)
        with pytest.raises(ShapeError):
            icm.reference_correlations(field, icm.make_reference_grid(4, 3, 2))


class TestIcmForward:
    def make(self, channels=3, n_terms=1, s=2, seed=4):
        return icm.IcmWeights.init(channels, n_terms, s, SplitMix64(seed))

    def test_head_drawn_first_as_an_scm_head(self):
        weights = self.make(channels=3, n_terms=2, s=2, seed=19)
        head = scm.ScmWeights.init(3, 2, SplitMix64(19))
        for name, param in head.parameters("icm").items():
            np.testing.assert_array_equal(weights.parameters()[name].data, param.data)

    def test_encode_reads_grid_side_from_corr_proj(self):
        weights = self.make(channels=3, s=2, seed=20)
        features = ad.Tensor(SplitMix64(21).uniform_array((4, 6, 3), -1, 1))
        want = icm.icm_forward(features, weights, icm.make_reference_grid(4, 6, 2))
        np.testing.assert_array_equal(weights.encode(features).data, want.data)

    def test_encode_builds_each_grid_once(self, monkeypatch):
        weights = self.make(channels=3, s=2, seed=20)
        features = ad.Tensor(SplitMix64(21).uniform_array((4, 6, 3), -1, 1))
        first = weights.encode(features).data
        build, built = icm.make_reference_grid, []
        monkeypatch.setattr(icm, "make_reference_grid",
                            lambda *args: built.append(args) or build(*args))
        np.testing.assert_array_equal(weights.encode(features).data, first)
        assert built == []
        weights.encode(ad.Tensor(SplitMix64(22).uniform_array((2, 6, 3), -1, 1)))
        assert built == [(2, 6, 2)]  # a new size builds its own grid

    def test_zero_corr_proj_leaves_pure_projection(self):
        weights = self.make()
        weights.corr_proj.data[...] = 0.0
        features = ad.Tensor(SplitMix64(5).uniform_array((4, 4, 3), -1, 1))
        refs = icm.make_reference_grid(4, 4, 2)
        out = icm.icm_forward(features, weights, refs)
        want = ad.conv2d(features, weights.feat_proj).data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_identity_corr_proj_exposes_raw_correlations(self):
        weights = self.make(channels=4, s=2, seed=6)
        weights.feat_proj.data[...] = 0.0
        weights.corr_proj.data[...] = np.eye(4).reshape(1, 1, 4, 4)
        features = ad.Tensor(SplitMix64(7).uniform_array((3, 3, 4), -1, 1))
        refs = icm.make_reference_grid(3, 3, 2)
        out = icm.icm_forward(features, weights, refs)
        corrs = icm.reference_correlations(
            icm.predict_params(features, weights), refs
        )
        np.testing.assert_allclose(out.data, corrs.data, atol=1e-12)

    def test_positional_contribution_linear_in_correlations(self):
        weights = self.make(seed=8)
        features = ad.Tensor(SplitMix64(9).uniform_array((3, 4, 3), -1, 1))
        corrs = ad.Tensor(SplitMix64(10).uniform_array((3, 4, 4), -1, 1))
        zero = ad.Tensor(np.zeros((3, 4, 4)))
        base = icm.combine(features, zero, weights).data
        single = icm.combine(features, corrs, weights).data
        double = icm.combine(features, ad.Tensor(2.0 * corrs.data), weights).data
        np.testing.assert_allclose(double - base, 2.0 * (single - base), atol=1e-12)

    def test_deterministic(self):
        weights = self.make(seed=11)
        features = ad.Tensor(SplitMix64(12).uniform_array((4, 4, 3), -1, 1))
        refs = icm.make_reference_grid(4, 4, 2)
        a = icm.icm_forward(features, weights, refs).data
        b = icm.icm_forward(features, weights, refs).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_output_channels_independent_of_grid(self, s):
        weights = self.make(channels=3, s=s, seed=13)
        features = ad.Tensor(SplitMix64(14).uniform_array((4, 5, 3), -1, 1))
        out = icm.icm_forward(features, weights, icm.make_reference_grid(4, 5, s))
        assert out.shape == (4, 5, 3)

    @pytest.mark.parametrize("name", ["pre_conv", "hor_bias", "feat_proj", "corr_proj"])
    def test_gradients_wrt_weights(self, name):
        weights = self.make(channels=2, n_terms=1, s=2, seed=15)
        features = ad.Tensor(SplitMix64(16).uniform_array((3, 4, 2), -1, 1))
        refs = icm.make_reference_grid(3, 4, 2)
        probe = weights.parameters()[f"icm.{name}"]

        def forward(_):
            return ad.mul(icm.icm_forward(features, weights, refs), 0.5).sum()

        assert check_gradients(forward, probe) < 1e-4

    def test_gradient_wrt_features(self):
        weights = self.make(channels=2, n_terms=1, s=2, seed=17)
        refs = icm.make_reference_grid(3, 3, 2)
        features = ad.Tensor(SplitMix64(18).uniform_array((3, 3, 2), -1, 1))
        err = check_gradients(
            lambda t: icm.icm_forward(t, weights, refs).sum(), features
        )
        assert err < 1e-4

    def test_identical_interior_patches_encode_identically(self):
        # Pins a known limitation: away from the zero-padded border the
        # encoder is translation-equivariant, and it evaluates each
        # location's correlation functions at absolute reference points,
        # so two copies of one patch get the same output at their centres.
        # A change that gives ICM a position signal flips this on purpose.
        weights = self.make(channels=16, n_terms=3, s=2, seed=22)
        patch = SplitMix64(23).uniform_array((5, 5, 16), -1, 1)
        features = np.zeros((16, 16, 16))
        features[2:7, 2:7] = patch
        features[8:13, 9:14] = patch
        out = weights.encode(ad.Tensor(features)).data
        assert np.all(out[4, 4] != 0.0)
        np.testing.assert_array_equal(out[4, 4], out[10, 11])
