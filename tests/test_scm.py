import numpy as np
import pytest

from corrseg import autodiff as ad
from corrseg import corrfn as cf
from corrseg import scm
from corrseg.errors import ConfigError, ShapeError
from corrseg.rng import SplitMix64
from oracles import check_gradients, per_harmonic_profile


def rand_field(h, w, n_terms, seed, lo=-1.0, hi=1.0):
    rng = SplitMix64(seed)
    k = 2 * n_terms + 1
    return cf.CorrParamField(
        hor=ad.Tensor(rng.uniform_array((h, w, k), lo, hi)),
        ver=ad.Tensor(rng.uniform_array((h, w, k), lo, hi)),
    )


def constant_field(h, w, a0_hor, a0_ver, n_terms=1):
    k = 2 * n_terms + 1
    hor = np.zeros((h, w, k))
    ver = np.zeros((h, w, k))
    hor[:, :, 0] = a0_hor
    ver[:, :, 0] = a0_ver
    return cf.CorrParamField(hor=ad.Tensor(hor), ver=ad.Tensor(ver))


def global_oracle(features, field):
    """Double-loop softmax aggregation straight from the definitions."""
    h, w, c = features.shape
    out = np.zeros_like(features)
    for y in range(h):
        for x in range(w):
            hor = per_harmonic_profile(field.hor.data[y, x], np.arange(w), w)
            ver = per_harmonic_profile(field.ver.data[y, x], np.arange(h), h)
            logits = np.array([ver[vy] * hor[vx] for vy in range(h) for vx in range(w)])
            wts = np.exp(logits - logits.max())
            wts /= wts.sum()
            out[y, x] = wts @ features.reshape(h * w, c)
    return out


def axial_oracle(features, field):
    h, w, c = features.shape
    out = np.zeros_like(features)
    for y in range(h):
        for x in range(w):
            row_logits = per_harmonic_profile(field.hor.data[y, x], np.arange(w), w)
            col_logits = per_harmonic_profile(field.ver.data[y, x], np.arange(h), h)
            rw = np.exp(row_logits - row_logits.max())
            rw /= rw.sum()
            cw = np.exp(col_logits - col_logits.max())
            cw /= cw.sum()
            out[y, x] = rw @ features[y] + cw @ features[:, x]
    return out


class TestPredictParams:
    def test_zero_input_zero_bias_gives_zero_params(self):
        weights = scm.ScmWeights.init(channels=3, n_terms=2, rng=SplitMix64(0))
        features = ad.Tensor(np.zeros((4, 5, 3)))
        field = scm.predict_params(features, weights)
        np.testing.assert_array_equal(field.hor.data, 0.0)
        np.testing.assert_array_equal(field.ver.data, 0.0)

    def test_identical_neighborhoods_identical_params(self):
        weights = scm.ScmWeights.init(channels=2, n_terms=1, rng=SplitMix64(1))
        tile = SplitMix64(2).uniform_array((3, 3, 2), -1, 1)
        features = ad.Tensor(np.tile(tile, (2, 2, 1)))  # 6x6, period 3
        field = scm.predict_params(features, weights)
        # interior centers one period apart share their 3x3 neighborhood
        np.testing.assert_allclose(field.hor.data[1, 1], field.hor.data[4, 4], atol=1e-12)
        np.testing.assert_allclose(field.ver.data[1, 4], field.ver.data[4, 1], atol=1e-12)

    def test_channels_match_raw_convolutions(self):
        weights = scm.ScmWeights.init(channels=3, n_terms=2, rng=SplitMix64(3))
        features = ad.Tensor(SplitMix64(4).uniform_array((4, 4, 3), -1, 1))
        field = scm.predict_params(features, weights)
        base = ad.conv2d(features, weights.pre_conv).data + weights.pre_bias.data
        raw_hor = ad.conv2d(ad.Tensor(base), weights.hor_head).data + weights.hor_bias.data
        np.testing.assert_allclose(field.hor.data, raw_hor, atol=1e-12)
        packed = field.hor.data[2, 1]  # [a0, A_1, A_2, psi_1, psi_2]
        np.testing.assert_allclose(packed[1:3], raw_hor[2, 1, 1:3], atol=1e-12)
        np.testing.assert_allclose(packed[3:5], raw_hor[2, 1, 3:5], atol=1e-12)

    def test_matches_conv_plus_add_graph(self):
        # The heads' biases inside conv2d against a separate add node per
        # conv: values and every gradient bit for bit.
        init = scm.ScmWeights.init(channels=3, n_terms=2, rng=SplitMix64(6))
        x = SplitMix64(7).uniform_array((4, 5, 3), -1.0, 1.0)
        g_hor, g_ver = (ad.Tensor(SplitMix64(s).uniform_array((4, 5, 5), -1.0, 1.0))
                        for s in (8, 9))

        def composed(features, w):
            base = ad.conv2d(features, w.pre_conv) + w.pre_bias
            return cf.CorrParamField(hor=ad.conv2d(base, w.hor_head) + w.hor_bias,
                                     ver=ad.conv2d(base, w.ver_head) + w.ver_bias)

        results = []
        for predict in (scm.predict_params, composed):
            weights = scm.ScmWeights(**{name.split(".")[1]: ad.Tensor(p.data, requires_grad=True)
                                        for name, p in init.parameters().items()})
            features = ad.Tensor(x, requires_grad=True)
            field = predict(features, weights)
            (ad.mul(field.hor, g_hor).sum() + ad.mul(field.ver, g_ver).sum()).backward()
            results.append([field.hor.data, field.ver.data, features.grad]
                           + [p.grad for p in weights.parameters().values()])
        for got, want in zip(*results):
            assert got is not None and np.array_equal(got, want)

    def test_channel_mismatch_rejected(self):
        weights = scm.ScmWeights.init(channels=3, n_terms=1, rng=SplitMix64(5))
        with pytest.raises(ShapeError, match="channel mismatch"):
            scm.predict_params(ad.Tensor(np.zeros((4, 4, 5))), weights)


class TestAggregateGlobal:
    def test_constant_correlations_average_everything(self):
        features = ad.Tensor(SplitMix64(6).uniform_array((3, 4, 2), -2, 2))
        out = scm.aggregate_global(features, constant_field(3, 4, 0.7, 1.0))
        mean = features.data.reshape(-1, 2).mean(axis=0)
        np.testing.assert_allclose(out.data, np.broadcast_to(mean, (3, 4, 2)), atol=1e-12)

    def test_singleton_input_passthrough(self):
        features = ad.Tensor(np.array([[[1.5, -2.0]]]))
        out = scm.aggregate_global(features, rand_field(1, 1, 2, seed=7))
        np.testing.assert_allclose(out.data, features.data, atol=1e-12)

    def test_matches_double_loop_oracle(self):
        features = ad.Tensor(SplitMix64(8).uniform_array((3, 3, 2), -2, 2))
        field = rand_field(3, 3, 2, seed=9)
        out = scm.aggregate_global(features, field)
        np.testing.assert_allclose(out.data, global_oracle(features.data, field), atol=1e-9)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="does not match"):
            scm.aggregate_global(ad.Tensor(np.zeros((3, 3, 2))), rand_field(3, 4, 1, seed=10))

    def test_no_graph_tensor_holds_the_pairwise_logits(self):
        h, w = 4, 5
        features = ad.Tensor(SplitMix64(30).uniform_array((h, w, 2), -1, 1), requires_grad=True)
        field = rand_field(h, w, 2, seed=31)
        field.hor.requires_grad = field.ver.requires_grad = True
        graph = scm.aggregate_global(features, field)._topo_order()
        assert {id(features), id(field.hor), id(field.ver)} <= {id(t) for t in graph}
        assert max(t.size for t in graph) < (h * w) ** 2

    def test_too_many_locations_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(scm, "field_profiles", None)  # any call would fail
        side = int(np.sqrt(scm.MAX_GLOBAL_LOCATIONS))
        features = ad.Tensor(np.zeros((side + 1, side, 1)))
        with pytest.raises(ConfigError, match="global-mode SCM allows at most"):
            scm.aggregate_global(features, constant_field(side + 1, side, 0.0, 0.0))
        scm.check_global_size(side, side)


class TestAggregateAxial:
    def test_singleton_input_doubles(self):
        features = ad.Tensor(np.array([[[1.5, -2.0]]]))
        out = scm.aggregate_axial(features, rand_field(1, 1, 2, seed=11))
        np.testing.assert_allclose(out.data, 2.0 * features.data, atol=1e-12)

    def test_constant_correlations_row_plus_column_mean(self):
        features = ad.Tensor(SplitMix64(12).uniform_array((3, 5, 2), -2, 2))
        out = scm.aggregate_axial(features, constant_field(3, 5, -0.3, 0.9))
        want = features.data.mean(axis=1, keepdims=True) + features.data.mean(axis=0, keepdims=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(want, out.shape), atol=1e-12)

    def test_matches_double_loop_oracle(self):
        features = ad.Tensor(SplitMix64(13).uniform_array((4, 5, 3), -2, 2))
        field = rand_field(4, 5, 2, seed=14)
        out = scm.aggregate_axial(features, field)
        np.testing.assert_allclose(out.data, axial_oracle(features.data, field), atol=1e-9)

    def test_each_term_is_convex_combination(self):
        features = ad.Tensor(SplitMix64(15).uniform_array((4, 6, 3), -3, 3))
        row_term, col_term = scm.axial_terms(features, rand_field(4, 6, 2, seed=16))
        f = features.data
        assert np.all(row_term.data <= f.max(axis=1, keepdims=True) + 1e-12)
        assert np.all(row_term.data >= f.min(axis=1, keepdims=True) - 1e-12)
        assert np.all(col_term.data <= f.max(axis=0, keepdims=True) + 1e-12)
        assert np.all(col_term.data >= f.min(axis=0, keepdims=True) - 1e-12)

    def test_global_convexity(self):
        features = ad.Tensor(SplitMix64(17).uniform_array((3, 4, 2), -3, 3))
        out = scm.aggregate_global(features, rand_field(3, 4, 2, seed=18))
        f = features.data.reshape(-1, 2)
        assert np.all(out.data <= f.max(axis=0) + 1e-12)
        assert np.all(out.data >= f.min(axis=0) - 1e-12)


class TestModeRelations:
    def test_width_one_global_is_axial_minus_self(self):
        # With the horizontal function pinned to 1, the 2D logits equal the
        # vertical logits, and the axial row softmax over a single column
        # returns the location itself.
        h = 5
        rng = SplitMix64(19)
        features = ad.Tensor(rng.uniform_array((h, 1, 3), -2, 2))
        ver = rng.uniform_array((h, 1, 5), -1, 1)
        hor = np.zeros((h, 1, 5))
        hor[:, :, 0] = 1.0
        field = cf.CorrParamField(hor=ad.Tensor(hor), ver=ad.Tensor(ver))
        glob = scm.aggregate_global(features, field)
        axial = scm.aggregate_axial(features, field)
        np.testing.assert_allclose(axial.data - glob.data, features.data, atol=1e-9)


class TestScmForward:
    def test_zero_features_zero_weights_stay_zero(self):
        weights = scm.ScmWeights.init(channels=2, n_terms=1, rng=SplitMix64(20))
        for t in weights.parameters().values():
            t.data[...] = 0.0
        out = weights.encode(ad.Tensor(np.zeros((3, 3, 2))))
        np.testing.assert_array_equal(out.data, 0.0)

    @pytest.mark.parametrize("mode", ["global", "axial"])
    def test_output_shape(self, mode):
        weights = scm.ScmWeights.init(channels=3, n_terms=2, rng=SplitMix64(21), mode=mode)
        features = ad.Tensor(SplitMix64(22).uniform_array((5, 4, 3), -1, 1))
        out = weights.encode(features)
        assert out.shape == (5, 4, 3)

    def test_channel_permutation_consistency(self):
        weights = scm.ScmWeights.init(channels=4, n_terms=1, rng=SplitMix64(24))
        features = ad.Tensor(SplitMix64(25).uniform_array((3, 4, 4), -1, 1))
        out = weights.encode(features).data

        perm = np.array([2, 0, 3, 1])
        pw = scm.ScmWeights(
            pre_conv=ad.Tensor(weights.pre_conv.data[:, :, perm][:, :, :, perm]),
            pre_bias=ad.Tensor(weights.pre_bias.data[perm]),
            hor_head=ad.Tensor(weights.hor_head.data[:, :, perm, :]),
            hor_bias=weights.hor_bias,
            ver_head=ad.Tensor(weights.ver_head.data[:, :, perm, :]),
            ver_bias=weights.ver_bias,
        )
        out_perm = pw.encode(ad.Tensor(features.data[:, :, perm])).data
        np.testing.assert_allclose(out_perm, out[:, :, perm], atol=1e-9)

    @pytest.mark.parametrize("name", ["pre_conv", "hor_head", "ver_bias"])
    def test_gradients_wrt_weights(self, name):
        weights = scm.ScmWeights.init(channels=2, n_terms=1, rng=SplitMix64(26))
        features = ad.Tensor(SplitMix64(27).uniform_array((3, 4, 2), -1, 1))
        probe = getattr(weights, name)

        def forward(_):
            return ad.mul(weights.encode(features), 0.5).sum()

        assert check_gradients(forward, probe) < 1e-4

    def test_gradient_wrt_features_global_mode(self):
        weights = scm.ScmWeights.init(channels=2, n_terms=1, rng=SplitMix64(28), mode="global")
        features = ad.Tensor(SplitMix64(29).uniform_array((3, 3, 2), -1, 1))
        err = check_gradients(lambda t: weights.encode(t).sum(), features)
        assert err < 1e-4
