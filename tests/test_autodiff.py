import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corrseg import autodiff as ad
from corrseg.errors import AutodiffError, NumericsError, ShapeError
from corrseg.rng import SplitMix64

TOL = 1e-6


def rand(shape, seed=0, lo=-2.0, hi=2.0):
    return SplitMix64(seed).uniform_array(shape, lo, hi)


class TestElementwise:
    @pytest.mark.parametrize("op", [ad.add, ad.mul, ad.div])
    def test_binary_fd(self, op):
        b = ad.Tensor(rand((3, 4), seed=1, lo=0.5, hi=2.0))
        x = ad.Tensor(rand((3, 4), seed=2))
        err = oracles.check_gradients(lambda t: op(t, b).sum(), x)
        assert err < TOL

    @pytest.mark.parametrize("op", [ad.sin, ad.cos, ad.exp, ad.relu, ad.sigmoid])
    def test_unary_fd(self, op):
        x = ad.Tensor(rand((5, 3), seed=3) + 0.05)  # keep relu off its kink
        err = oracles.check_gradients(lambda t: op(t).sum(), x)
        assert err < TOL

    def test_log_fd(self):
        x = ad.Tensor(rand((4, 4), seed=4, lo=0.2, hi=3.0))
        err = oracles.check_gradients(lambda t: ad.log(t).sum(), x)
        assert err < TOL

    def test_broadcast_grad_sums_over_expanded_axes(self):
        x = ad.Tensor(rand((1, 4), seed=5))
        other = ad.Tensor(rand((3, 4), seed=6))
        err = oracles.check_gradients(lambda t: ad.mul(t, other).sum(), x)
        assert err < TOL

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))))

    def test_python_scalar_operands(self):
        # A float operand of + goes through add as a constant node.
        data = np.array([1.0, 2.0, -0.3])
        x = ad.Tensor(data, requires_grad=True)
        y = (x * 2.0 + 1.0) * 0.25
        assert np.array_equal(y.data, (data * 2.0 + 1.0) * 0.25)
        y.sum().backward()
        assert np.array_equal(x.grad, [0.5, 0.5, 0.5])


class TestStableSigmoid:
    def test_bit_identical_to_three_exp_formula(self):
        # The expression autodiff.sigmoid and model decoding used before
        # they shared stable_sigmoid, which evaluates exp(-|x|) once.
        def reference(x):
            return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        steps = np.linspace(-3.0, 3.0, 601)
        x = np.concatenate([steps * 1e-3, steps, steps + 700.0, steps - 700.0,
                            [0.0, -0.0, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308]])
        with np.errstate(under="ignore"):
            want = reference(x)
            assert np.array_equal(ad.stable_sigmoid(x), want)
            assert np.array_equal(ad.sigmoid(ad.Tensor(x)).data, want)


class TestReductionsAndSoftmax:
    def test_sum_axis_keepdims_fd(self):
        x = ad.Tensor(rand((2, 3, 4), seed=7))
        err = oracles.check_gradients(
            lambda t: ad.mul(ad.tsum(t, axis=1, keepdims=True), 1.5).sum(), x
        )
        assert err < TOL

    def test_softmax_rows_sum_to_one(self):
        x = ad.Tensor(rand((6, 9), seed=9, lo=-30, hi=30))
        s = ad.softmax_matmul(x, np.eye(9))
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_stable_for_large_logits(self):
        x = ad.Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        s = ad.softmax_matmul(x, np.eye(3)).data
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s[0, :2], 0.5, atol=1e-12)

    def test_softmax_fd(self):
        x = ad.Tensor(rand((4, 5), seed=10))
        w = ad.Tensor(rand((4, 5), seed=11))
        err = oracles.check_gradients(
            lambda t: ad.mul(ad.softmax_matmul(t, np.eye(5)), w).sum(), x
        )
        assert err < TOL


class TestStructural:
    def test_reshape_transpose_fd(self):
        x = ad.Tensor(rand((2, 3, 4), seed=14))
        w = ad.Tensor(rand((4, 3, 2), seed=15))

        def prog(t):
            return ad.mul(ad.transpose(t, (2, 1, 0)), w).sum()

        assert oracles.check_gradients(prog, x) < TOL

    def test_getitem_strided_slice_fd(self):
        x = ad.Tensor(rand((6, 8), seed=16))
        err = oracles.check_gradients(lambda t: ad.mul(t[::2, 1::3], 2.0).sum(), x)
        assert err < TOL

    def test_getitem_scatters_zero_elsewhere(self):
        x = ad.Tensor(rand((4, 4), seed=17), requires_grad=True)
        x[1:3, 1:3].sum().backward()
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_integer_array_fd(self):
        # Row 2 is picked twice, so its gradient sums both picks.
        x = ad.Tensor(rand((5, 3), seed=21))
        w = ad.Tensor(rand((4, 3), seed=22))
        key = np.array([2, 0, 2, 4])
        assert oracles.check_gradients(lambda t: ad.mul(t[key], w).sum(), x) < TOL

    @pytest.mark.parametrize("key", [
        np.s_[1:3], np.s_[..., 0:1], np.s_[2, ::2], np.s_[-1, 1:], np.s_[np.int64(1)],
    ])
    def test_getitem_basic_key_grad_matches_scatter_add(self, key):
        # Bitwise, with signed zeros in the incoming gradient.
        g = rand((4, 5), seed=23)[key].copy()
        g.flat[::2] = -0.0
        x = ad.Tensor(rand((4, 5), seed=24), requires_grad=True)
        ad.mul(x[key], g).sum().backward()
        want = np.zeros((4, 5))
        np.add.at(want, key, g)
        np.testing.assert_array_equal(x.grad.view(np.int64), want.view(np.int64))

    def test_getitem_repeated_index_accumulates(self):
        x = ad.Tensor(np.zeros(3), requires_grad=True)
        x[np.array([1, 1, 2])].sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 2.0, 1.0])

    def test_concat_fd(self):
        x = ad.Tensor(rand((3, 2), seed=18))
        other = ad.Tensor(rand((3, 5), seed=19))
        w = ad.Tensor(rand((3, 7), seed=20))
        err = oracles.check_gradients(
            lambda t: ad.mul(ad.concat([t, other], axis=1), w).sum(), x
        )
        assert err < TOL

    def test_matmul_2d_fd(self):
        x = ad.Tensor(rand((3, 4), seed=21))
        b = ad.Tensor(rand((4, 5), seed=22))
        assert oracles.check_gradients(lambda t: (t @ b).sum(), x) < TOL
        assert oracles.check_gradients(lambda t: (ad.Tensor(x.data) @ t).sum(), b) < TOL

    def test_matmul_batched_fd(self):
        x = ad.Tensor(rand((2, 3, 4), seed=23))
        b = ad.Tensor(rand((2, 4, 5), seed=24))
        assert oracles.check_gradients(lambda t: (t @ b).sum(), x) < TOL
        assert oracles.check_gradients(lambda t: (ad.Tensor(x.data) @ t).sum(), b) < TOL

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3, 4))))


SOFTMAX_MATMUL_SHAPES = {"2d": ((4, 5), (5, 3)), "3d": ((2, 3, 4), (2, 4, 3))}


def softmax_then_matmul(logits, values):
    """The unfused composition from elementwise graph ops and matmul."""
    shift = ad.Tensor(logits.data.max(axis=-1, keepdims=True) * -1.0)
    e = ad.exp(logits + shift)
    return ad.matmul(ad.div(e, ad.tsum(e, axis=-1, keepdims=True)), values)


class TestSoftmaxMatmul:
    @pytest.mark.parametrize("rank", sorted(SOFTMAX_MATMUL_SHAPES))
    def test_fd_both_arguments(self, rank):
        l_shape, v_shape = SOFTMAX_MATMUL_SHAPES[rank]
        logits = ad.Tensor(rand(l_shape, seed=40))
        values = ad.Tensor(rand(v_shape, seed=41))
        w = ad.Tensor(rand(l_shape[:-1] + v_shape[-1:], seed=42))
        fixed_logits, fixed_values = ad.Tensor(logits.data), ad.Tensor(values.data)
        assert oracles.check_gradients(
            lambda t: ad.mul(ad.softmax_matmul(t, fixed_values), w).sum(), logits) < TOL
        assert oracles.check_gradients(
            lambda t: ad.mul(ad.softmax_matmul(fixed_logits, t), w).sum(), values) < TOL

    @pytest.mark.parametrize("rank", sorted(SOFTMAX_MATMUL_SHAPES))
    def test_matches_softmax_then_matmul(self, rank):
        l_shape, v_shape = SOFTMAX_MATMUL_SHAPES[rank]
        w = rand(l_shape[:-1] + v_shape[-1:], seed=45)
        results = []
        for fn in (ad.softmax_matmul, softmax_then_matmul):
            logits = ad.Tensor(rand(l_shape, seed=43, lo=-5, hi=5), requires_grad=True)
            values = ad.Tensor(rand(v_shape, seed=44), requires_grad=True)
            out = fn(logits, values)
            ad.mul(out, w).sum().backward()
            results.append((out.data, logits.grad, values.grad))
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.softmax_matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError):
            ad.softmax_matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3, 4))))


def outer_then_softmax_matmul(rows, cols, values):
    """The unfused composition: the outer product as a batched matmul."""
    (b, h), w = rows.shape, cols.shape[1]
    logits = ad.reshape(ad.reshape(rows, (b, h, 1)) @ ad.reshape(cols, (b, 1, w)), (b, h * w))
    return ad.softmax_matmul(logits, values)


def mixed_sign_with_zeros(shape, seed):
    """Uniform entries of both signs, with every third one set to zero."""
    x = rand(shape, seed=seed, lo=-3, hi=3)
    x.reshape(-1)[::3] = 0.0
    return x


BLOCK = ad.OUTER_BLOCK


class TestOuterSoftmaxMatmul:
    B, H, W, C = 5, 3, 4, 2

    def operands(self, seed, b=B):
        return (mixed_sign_with_zeros((b, self.H), seed),
                mixed_sign_with_zeros((b, self.W), seed + 1),
                rand((self.H * self.W, self.C), seed=seed + 2))

    def assert_fd_matches(self, arg, b, seed):
        operands = [ad.Tensor(x) for x in self.operands(seed=seed, b=b)]
        w = ad.Tensor(rand((b, self.C), seed=seed + 3))

        def prog(t):
            args = list(operands)
            args[arg] = t
            return ad.mul(ad.outer_softmax_matmul(*args), w).sum()

        assert oracles.check_gradients(prog, operands[arg]) < TOL

    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_fd_each_argument(self, arg):
        self.assert_fd_matches(arg, self.B, seed=50)

    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_fd_each_argument_across_blocks(self, arg):
        self.assert_fd_matches(arg, BLOCK + 3, seed=61)

    def assert_matches_outer_then_softmax_matmul(self, b):
        w = rand((b, self.C), seed=57)
        results = []
        for fn in (ad.outer_softmax_matmul, outer_then_softmax_matmul):
            args = [ad.Tensor(x, requires_grad=True) for x in self.operands(seed=54, b=b)]
            out = fn(*args)
            ad.mul(out, w).sum().backward()
            results.append((out.data, *(t.grad for t in args)))
        # Relative to each array's largest entry: the gradients' small
        # entries come from cancellation and differ at their own last ulps.
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_matches_outer_then_softmax_matmul(self):
        self.assert_matches_outer_then_softmax_matmul(self.B)

    @pytest.mark.parametrize("b", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
    def test_every_block_split_matches_outer_then_softmax_matmul(self, b):
        self.assert_matches_outer_then_softmax_matmul(b)

    def test_large_logits_stay_finite(self):
        b = 2 * BLOCK + 5
        rows = ad.Tensor(rand((b, self.H), seed=58, lo=-1e3, hi=1e3), requires_grad=True)
        cols = ad.Tensor(rand((b, self.W), seed=59, lo=-1e3, hi=1e3), requires_grad=True)
        values = ad.Tensor(rand((self.H * self.W, self.C), seed=60), requires_grad=True)
        out = ad.outer_softmax_matmul(rows, cols, values)
        out.sum().backward()
        for x in (out.data, rows.grad, cols.grad, values.grad):
            assert np.all(np.isfinite(x))
        # Logits ~1e6 apart: each output row is the value row of its argmax.
        logits = (rows.data[:, :, None] * cols.data[:, None, :]).reshape(b, -1)
        np.testing.assert_allclose(out.data, values.data[logits.argmax(axis=1)], atol=1e-12)

    def test_backward_allocates_no_second_weight_array(self):
        b, h, w, c = 1024, 32, 32, 16
        rows = ad.Tensor(rand((b, h), seed=65), requires_grad=True)
        cols = ad.Tensor(rand((b, w), seed=66), requires_grad=True)
        values = ad.Tensor(rand((h * w, c), seed=67), requires_grad=True)
        loss = ad.mul(ad.outer_softmax_matmul(rows, cols, values), rand((b, c), seed=68)).sum()
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * h * w * 8 / 4

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.outer_softmax_matmul(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((12, 1)))
        with pytest.raises(ShapeError):
            ad.outer_softmax_matmul(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((11, 1)))
        with pytest.raises(ShapeError):
            ad.outer_softmax_matmul(np.zeros((2, 3, 1)), np.zeros((2, 4)), np.zeros((12, 1)))


_LOGIT_FACTORS = st.floats(-1e150, 1e150)  # products stay finite


@settings(max_examples=200, deadline=None)
@given(b=st.integers(1, 3), h=st.integers(1, 5), w=st.integers(1, 5), data=st.data())
def test_outer_max_is_full_row_max(b, h, w, data):
    rows = np.array(data.draw(st.lists(_LOGIT_FACTORS, min_size=b * h, max_size=b * h)))
    cols = np.array(data.draw(st.lists(_LOGIT_FACTORS, min_size=b * w, max_size=b * w)))
    rows, cols = rows.reshape(b, h), cols.reshape(b, w)
    full = (rows[:, :, None] * cols[:, None, :]).reshape(b, -1).max(axis=1)
    # + 0.0 maps -0.0 to 0.0; exp(logit - max) is the same for either zero.
    got = ad._outer_max(rows, cols) + 0.0
    np.testing.assert_array_equal(got.view(np.int64), (full + 0.0).view(np.int64))


class TestConv2d:
    def test_matches_direct_convolution(self):
        x = rand((5, 6, 3), seed=25)
        k = rand((3, 3, 3, 2), seed=26)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k)).data
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        want = np.zeros((5, 6, 2))
        for i in range(5):
            for j in range(6):
                patch = xp[i:i + 3, j:j + 3, :]
                want[i, j] = np.tensordot(patch, k, axes=3)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_1x1_is_per_pixel_linear_map(self):
        x = rand((4, 4, 3), seed=27)
        k = rand((1, 1, 3, 5), seed=28)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k)).data
        np.testing.assert_allclose(out, x @ k[0, 0], atol=1e-12)

    @pytest.mark.parametrize("ksize", [1, 3])
    def test_fd_both_arguments(self, ksize):
        x = ad.Tensor(rand((4, 5, 2), seed=29))
        k = ad.Tensor(rand((ksize, ksize, 2, 3), seed=30))
        assert oracles.check_gradients(lambda t: ad.conv2d(t, ad.Tensor(k.data)).sum(), x) < TOL
        assert oracles.check_gradients(lambda t: ad.conv2d(ad.Tensor(x.data), t).sum(), k) < TOL

    def test_rejects_bad_kernels(self):
        x = ad.Tensor(np.zeros((4, 4, 3)))
        with pytest.raises(ShapeError, match="1x1 or 3x3"):
            ad.conv2d(x, ad.Tensor(np.zeros((5, 5, 3, 2))))
        with pytest.raises(ShapeError, match="channel mismatch"):
            ad.conv2d(x, ad.Tensor(np.zeros((3, 3, 7, 2))))

    @pytest.mark.parametrize("ksize", [1, 3])
    @pytest.mark.parametrize("hw", [(6, 8), (5, 7)])
    def test_stride2_is_stride1_sampled(self, ksize, hw):
        x = ad.Tensor(rand(hw + (3,), seed=31))
        k = ad.Tensor(rand((ksize, ksize, 3, 4), seed=32))
        out = ad.conv2d(x, k, stride=2).data
        assert out.shape == ((hw[0] + 1) // 2, (hw[1] + 1) // 2, 4)
        assert np.array_equal(out, ad.conv2d(x, k).data[::2, ::2])

    @pytest.mark.parametrize("ksize", [1, 3])
    def test_fd_both_arguments_stride2(self, ksize):
        x = ad.Tensor(rand((5, 6, 2), seed=33))
        k = ad.Tensor(rand((ksize, ksize, 2, 3), seed=34))
        assert oracles.check_gradients(
            lambda t: ad.conv2d(t, ad.Tensor(k.data), stride=2).sum(), x) < TOL
        assert oracles.check_gradients(
            lambda t: ad.conv2d(ad.Tensor(x.data), t, stride=2).sum(), k) < TOL

    @pytest.mark.parametrize("ksize", [1, 3])
    @pytest.mark.parametrize("hw", [(6, 8), (5, 7)])
    def test_stride2_grads_match_conv_then_slice(self, ksize, hw):
        weights = rand(((hw[0] + 1) // 2, (hw[1] + 1) // 2, 4), seed=35)
        grads = []
        for strided in (True, False):
            x = ad.Tensor(rand(hw + (3,), seed=36), requires_grad=True)
            k = ad.Tensor(rand((ksize, ksize, 3, 4), seed=37), requires_grad=True)
            out = ad.conv2d(x, k, stride=2) if strided else ad.conv2d(x, k)[::2, ::2]
            (out * weights).sum().backward()
            grads.append((x.grad, k.grad))
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @staticmethod
    def assert_grads_match_oracle(x, k, stride):
        """dx and dK against the loop oracle at rtol 1e-12.

        The floor atol = 1e-12 * max|oracle| covers entries that cancel to
        near zero, where the two summation orders differ in the last bits.
        """
        weights = rand(((x.shape[0] - 1) // stride + 1, (x.shape[1] - 1) // stride + 1,
                        k.shape[3]), seed=40)
        xt = ad.Tensor(x, requires_grad=True)
        kt = ad.Tensor(k, requires_grad=True)
        (ad.conv2d(xt, kt, stride=stride) * weights).sum().backward()
        for got, want in zip((xt.grad, kt.grad), oracles.conv2d_grads(x, k, weights, stride)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("ksize", [1, 3])
    def test_grads_match_scatter_add_oracle(self, ksize, stride):
        # Odd, non-square input; C_in != C_out.  The input is a
        # transposed (non-contiguous) view.
        x = rand((7, 5, 3), seed=38).transpose(1, 0, 2)
        k = rand((ksize, ksize, 3, 4), seed=39)
        self.assert_grads_match_oracle(x, k, stride)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("ksize", [1, 3])
    @pytest.mark.parametrize("view", ["transpose", "concat"])
    def test_noncontiguous_input_matches_contiguous_copy(self, view, ksize, stride):
        # Output, dx and dK bit for bit.  The output goes through a
        # transpose node, so the gradient conv2d's backward reads is a
        # transposed view as well.
        if view == "transpose":
            x = rand((7, 5, 3), seed=45).transpose(1, 0, 2)
        else:  # three channels of a wider channel concat
            x = np.concatenate([rand((5, 7, 2), seed=45), rand((5, 7, 2), seed=46)],
                               axis=2)[:, :, 1:]
        assert not x.flags.c_contiguous
        k = rand((ksize, ksize, 3, 4), seed=47)
        ho, wo = (x.shape[0] - 1) // stride + 1, (x.shape[1] - 1) // stride + 1
        weights = rand((wo, ho, 4), seed=48)
        results = []
        for data in (x, np.ascontiguousarray(x)):
            xt = ad.Tensor(data, requires_grad=True)
            kt = ad.Tensor(k, requires_grad=True)
            out = ad.conv2d(xt, kt, stride=stride)
            (ad.transpose(out, (1, 0, 2)) * weights).sum().backward()
            results.append((out.data, xt.grad, kt.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_stem2_shape_grads_match_scatter_add_oracle(self):
        x = rand((32, 32, 16), seed=41)
        k = rand((3, 3, 16, 16), seed=42)
        self.assert_grads_match_oracle(x, k, 2)

    @pytest.mark.parametrize("ksize", [1, 3])
    @pytest.mark.parametrize("hw", [(1, 1), (1, 6), (2, 5), (6, 1), (5, 2), (2, 2), (7, 4), (4, 7)])
    def test_strided_input_grad_edge_shapes_match_oracle(self, ksize, hw):
        # One output row or column, odd x even sides; C_in != C_out.
        x = rand(hw + (3,), seed=43)
        k = rand((ksize, ksize, 3, 5), seed=44)
        self.assert_grads_match_oracle(x, k, 2)


class TestBackwardSemantics:
    def test_backward_rejects_nonscalar(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(AutodiffError, match="scalar"):
            (x * 2.0).backward()

    def test_second_backward_rejected(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        loss = x.sum()
        loss.backward()
        with pytest.raises(AutodiffError, match="already ran"):
            loss.backward()

    def test_grad_accumulates_across_uses(self):
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_deep_chain_no_recursion_error(self):
        x = ad.Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_two_tensors_share_grad_memory(self):
        a = ad.Tensor(rand((2, 3), seed=70), requires_grad=True)
        b = ad.Tensor(rand((2, 3), seed=71), requires_grad=True)
        t = ad.add(a + a, b) + 0.5
        c = ad.concat([t, a, b * 2.0], axis=0)
        r = ad.reshape(ad.transpose(c, (1, 0)), (6, 3))
        loss = (r * rand((6, 3), seed=72)).sum()
        loss.backward()
        grads = [n.grad for n in loss._topo_order() if n.grad is not None]
        assert len(grads) == 11
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)

    def test_leaf_reached_by_two_owned_grads_holds_their_sum(self):
        x = ad.Tensor(rand((2, 3), seed=73), requires_grad=True)
        w = rand((2, 3), seed=74)
        ((x * 2.0 + x * 3.0) * w).sum().backward()
        np.testing.assert_array_equal(x.grad, w * 2.0 + w * 3.0)

    def test_no_grad_blocks_graph(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = (x * 2.0).sum()
        assert y._grad_fn is None and not y.requires_grad


class TestCheckGradients:
    def test_reports_for_known_analytic_function(self):
        x = ad.Tensor(rand((3, 3), seed=31))
        err = oracles.check_gradients(lambda t: ad.sin(t).sum(), x)
        assert err < 1e-8

    def test_nonfinite_raises_with_coordinate(self):
        x = ad.Tensor(np.array([1.0, 0.0]))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match="coordinate"):
                oracles.check_gradients(lambda t: ad.log(t).sum(), x)

    def test_rejects_nonpositive_step(self):
        x = ad.Tensor(np.ones(2))
        with pytest.raises(ValueError):
            oracles.check_gradients(lambda t: t.sum(), x, h=0.0)


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    c=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_composite_program_grad_property(h, w, c, seed):
    x = SplitMix64(seed).uniform_array((h, w, c), -1.5, 1.5)
    x = ad.Tensor(x + np.copysign(0.05, x))  # keep relu off its kink
    m = ad.Tensor(SplitMix64(seed + 1).uniform_array((c, c), -1.0, 1.0))

    def prog(t):
        z = ad.relu(t) + ad.sin(t)
        z = ad.reshape(z, (h * w, c)) @ m
        return ad.mul(ad.softmax_matmul(z, np.eye(c)), 0.7).sum() + ad.sigmoid(z).sum()

    assert oracles.check_gradients(prog, x) < 1e-5


def test_sgd_momentum_and_weight_decay_update_rule():
    p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = ad.SGD({"p": p}, lr=0.1, momentum=0.9, weight_decay=0.01)
    w0 = p.data.copy()
    p.grad = np.array([0.5, 0.5])
    opt.step()
    buf1 = np.array([0.5, 0.5]) + 0.01 * w0
    np.testing.assert_allclose(p.data, w0 - 0.1 * buf1)
    w1 = p.data.copy()
    p.grad = np.array([0.0, 0.0])
    opt.step()
    buf2 = 0.9 * buf1 + 0.01 * w1
    np.testing.assert_allclose(p.data, w1 - 0.1 * buf2)


def test_init_parameter_is_deterministic_and_bounded():
    a = ad.init_parameter((4, 4), fan_in=16, rng=SplitMix64(7))
    b = ad.init_parameter((4, 4), fan_in=16, rng=SplitMix64(7))
    np.testing.assert_array_equal(a.data, b.data)
    assert np.all(np.abs(a.data) <= 0.25) and a.requires_grad
