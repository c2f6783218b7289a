"""Independent numpy oracles.

`corrseg.corrfn.corr_profile` is the package's one correlation
evaluator: a fixed-basis matmul over packed parameters
[a0, A_1..A_N, psi_1..psi_N].  `fit_dft` and `per_harmonic_profile`
share no code with it.  `fit_dft` goes through `np.fft` and returns that
packed layout, so a fit feeds straight into `corr_profile`;
`per_harmonic_profile` evaluates one sine per term.

`conv2d_grads` differentiates `corrseg.autodiff.conv2d` one output pixel
and one kernel tap at a time, with no im2col and no padded copy.
`conv_bias_relu` composes a conv layer from separate conv2d, add and
relu nodes, against which the fused layer node is checked bit for bit.

`dice_loss`, `focal_loss` and `cross_entropy` are the loss terms of
`corrseg.losses` composed op by op from autodiff primitives, so their
gradients come from the chain rule through each op rather than from the
package's closed forms.  Their forwards run the same numpy operations in
the same order, so the two values agree bit for bit.

`exp`, `log`, `div`, `relu`, `sin` and `cos` are the elementwise graph
ops that only these references and the tests use.  They are built on
`corrseg.autodiff.make_node`, as the package's own ops are.
`corr_profile_ops` composes a correlation profile from them op by op,
against which the one-node `corrseg.corrfn.corr_profile` is checked.

`check_gradients` compares reverse-mode gradients against central
finite differences.

`matrix_nms_float64` and `twins_covered_broadcast` count mask overlaps
with a float64 product of the flattened masks and with a (2, n, H, W)
bool broadcast.  `corrseg.postprocess.overlap_counts` counts them with a
float32 product, exact only while every count stays below 2**24, so the
package's results must equal these bit for bit.

`segments_by_sort` finds a labeling's segments with `np.unique`, a sort
of the packed keys; `corrseg.metrics` counts dense keys instead, and
must return the same arrays.

`paint_instances` paints a list of masks into an instance-id plane one
mask at a time; the tests build hand-made scenes' planes through it.

`compute_pq` is no oracle: it is the one-pair shorthand for
`corrseg.metrics.PqAccumulator` that the metric tests call.
"""

import math

import numpy as np

from corrseg import autodiff as ad
from corrseg.autodiff import Tensor, no_grad
from corrseg.errors import AutodiffError, NumericsError, ShapeError
from corrseg.losses import DICE_EPS, FOCAL_ALPHA
from corrseg.metrics import PqAccumulator
from corrseg.model import InstancePrediction, ModelConfig


def div(a, b):
    def grad_fn(g):
        if a.requires_grad:
            a._accum(ad._unbroadcast(g / b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accum(ad._unbroadcast(-g * a.data / (b.data * b.data), b.shape), owned=True)

    return ad.make_node(a.data / b.data, (a, b), grad_fn)


def sin(a):
    return ad.make_node(np.sin(a.data), (a,),
                        lambda g: a._accum(g * np.cos(a.data), owned=True))


def cos(a):
    return ad.make_node(np.cos(a.data), (a,),
                        lambda g: a._accum(-g * np.sin(a.data), owned=True))


def exp(a):
    out_data = np.exp(a.data)
    return ad.make_node(out_data, (a,), lambda g: a._accum(g * out_data, owned=True))


def log(a):
    return ad.make_node(np.log(a.data), (a,), lambda g: a._accum(g / a.data, owned=True))


def relu(a):
    return ad.make_node(np.maximum(a.data, 0.0), (a,),
                        lambda g: a._accum(g * (a.data > 0), owned=True))


_relu_op = relu  # conv_bias_relu's `relu` flag, named as conv2d's, hides the op


def mirror_extend(c):
    """[a, b, c] -> [a, b, c, c, b, a]; continuous at the seam, period 2L."""
    values = np.asarray(c, dtype=float).reshape(-1)
    if values.size < 1:
        raise ShapeError("cannot mirror-extend an empty sequence")
    return np.concatenate([values, values[::-1]])


def fit_dft(t, n_terms):
    """Packed amplitude/phase form of the lowest `n_terms` harmonics of `t`.

    `t` has even length 2L (a mirror-extended sequence, typically).  The
    constant term is the mean; harmonic n gets amplitude 2|X_n|/(2L) and
    phase arg(X_n) + pi/2, so that A*sin(n*(pi/L)*j + psi) reproduces the
    real inverse-transform term.  The Nyquist harmonic (n == L) is not
    doubled.  With n_terms == L the reconstruction at integer j is exact.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.size < 2 or t.size % 2 != 0:
        raise ShapeError(f"expected an even-length extended sequence, got length {t.size}")
    m = t.size
    half = m // 2
    if not 0 <= n_terms <= half:
        raise ValueError(f"n_terms must be in [0, {half}] for length {m}, got {n_terms}")
    spectrum = np.fft.rfft(t)
    bins = spectrum[1:n_terms + 1]
    amps = 2.0 * np.abs(bins) / m
    if n_terms == half:
        amps[-1] *= 0.5
    phases = np.angle(bins) + np.pi / 2.0
    return np.concatenate(([spectrum[0].real / m], amps, phases))


def per_harmonic_profile(theta, coords, length):
    """a0 + sum_n A_n sin(n (pi / length) j + psi_n), one sin per term.

    theta: (..., 2N+1) packed parameters; returns (..., len(coords)).
    """
    theta = np.asarray(theta, dtype=float)
    coords = np.asarray(coords, dtype=float).reshape(-1)
    n = (theta.shape[-1] - 1) // 2
    out = np.repeat(theta[..., 0:1], coords.size, axis=-1)
    for k in range(1, n + 1):
        args = k * (np.pi / length) * coords + theta[..., n + k:n + k + 1]
        out = out + theta[..., k:k + 1] * np.sin(args)
    return out


def corr_profile_ops(theta, coords, length):
    """`corrseg.corrfn.corr_profile` as a graph of twelve elementwise,
    structural and matmul nodes: a0 + [A cos psi | A sin psi] @ B."""
    n = (theta.shape[-1] - 1) // 2
    lead = theta.shape[:-1]
    coords = np.asarray(coords, dtype=float).reshape(-1)
    args = np.multiply.outer(np.arange(1, n + 1) * (np.pi / length), coords)
    basis = Tensor(np.concatenate([np.sin(args), np.cos(args)]))
    amps, phases = theta[..., 1:n + 1], theta[..., n + 1:]
    coeffs = ad.concat([ad.mul(amps, cos(phases)), ad.mul(amps, sin(phases))])
    rows = int(np.prod(lead))
    waves = ad.reshape(ad.matmul(ad.reshape(coeffs, (rows, 2 * n)), basis),
                       lead + (coords.size,))
    return ad.add(waves, theta[..., 0:1])


def conv2d_grads(x, kernel, g, stride=1):
    """(dx, dkernel) of a same-padded correlation sampled every `stride`.

    out[i, j] = sum over taps (ty, tx) of x[i*stride + ty - p,
    j*stride + tx - p] @ kernel[ty, tx], with p = (k - 1) // 2 and taps
    outside x reading zero.  Each in-bounds tap scatter-adds
    kernel[ty, tx] @ g[i, j] to its input pixel and the outer product of
    that pixel with g[i, j] to kernel[ty, tx].
    """
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    h, w, _ = x.shape
    k = kernel.shape[0]
    p = (k - 1) // 2
    dx = np.zeros_like(x)
    dk = np.zeros_like(kernel)
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            for ty in range(k):
                for tx in range(k):
                    row, col = i * stride + ty - p, j * stride + tx - p
                    if 0 <= row < h and 0 <= col < w:
                        dx[row, col] += kernel[ty, tx] @ g[i, j]
                        dk[ty, tx] += np.outer(x[row, col], g[i, j])
    return dx, dk


def conv_bias_relu(x, kernel, bias=None, stride=1, relu=False):
    """``relu(conv2d(x, kernel) + bias)`` as up to three graph nodes."""
    out = ad.conv2d(x, kernel, stride=stride)
    if bias is not None:
        out = out + bias
    return _relu_op(out) if relu else out


def dice_loss(pred, target):
    t = target.astype(float)
    inter = ad.tsum(ad.mul(pred, Tensor(t)), axis=(-2, -1))
    denom = ad.tsum(ad.mul(pred, pred), axis=(-2, -1)) + Tensor((t * t).sum(axis=(-2, -1)))
    return div(inter * 2.0 + DICE_EPS, denom + DICE_EPS) * -1.0 + 1.0


def _log_sigmoid(z):
    # log sigmoid(z) = -relu(-z) - log(1 + exp(-|z|)), exact for any z
    neg = relu(z * -1.0)
    mag = relu(z) + neg
    return (neg + log(exp(mag * -1.0) + 1.0)) * -1.0


def focal_loss(logits, target_onehot):
    y = target_onehot.astype(float)
    p = ad.sigmoid(logits)
    q = ad.sigmoid(logits * -1.0)
    pt_complement = ad.mul(q, Tensor(y)) + ad.mul(p, Tensor(1.0 - y))
    log_pt = (
        ad.mul(_log_sigmoid(logits), Tensor(y))
        + ad.mul(_log_sigmoid(logits * -1.0), Tensor(1.0 - y))
    )
    alpha_t = Tensor(FOCAL_ALPHA * y + (1.0 - FOCAL_ALPHA) * (1.0 - y))
    focus = ad.mul(pt_complement, pt_complement)
    total = ad.tsum(ad.mul(alpha_t, ad.mul(focus, log_pt * -1.0)))
    return total * (1.0 / max(1.0, float(y.sum())))


def cross_entropy(logits, target_ids):
    k = logits.shape[-1]
    flat = ad.reshape(logits, (-1, k))
    ids = target_ids.reshape(-1)
    onehot = np.zeros((ids.size, k))
    onehot[np.arange(ids.size), ids] = 1.0
    # The row max is a constant shift: log-softmax does not depend on it.
    shifted = flat + Tensor(flat.data.max(axis=-1, keepdims=True) * -1.0)
    log_probs = shifted + log(ad.tsum(exp(shifted), axis=-1, keepdims=True)) * -1.0
    picked = ad.tsum(ad.mul(log_probs, Tensor(onehot)))
    return picked * (-1.0 / ids.size)


def matrix_nms_float64(pred):
    """`corrseg.postprocess.matrix_nms` with its overlaps from a float64
    product of the flattened masks."""
    if len(pred) == 0:
        return pred
    order = np.argsort(-pred.scores, kind="stable")
    masks = pred.masks[order]
    cats = pred.categories[order]
    flat = masks.reshape(len(masks), -1).astype(float)
    inter = flat @ flat.T
    areas = np.diag(inter)
    union = areas[:, None] + areas[None, :] - inter
    iou = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
    same_class = cats[:, None] == cats[None, :]
    pair = np.triu(np.where(same_class, iou, 0.0), k=1)
    cmax = pair.max(axis=0)
    active = np.triu(same_class, k=1)
    decay_pairs = np.where(
        active, np.exp(-(pair**2 - cmax[:, None] ** 2) / ModelConfig.nms_sigma), 1.0
    )
    return InstancePrediction(masks=masks, categories=cats,
                              scores=pred.scores[order] * decay_pairs.min(axis=0))


def twins_covered_broadcast(pred, scene):
    """`corrseg.train.twins_covered` with its overlaps from a (2, n, H, W)
    bool broadcast."""
    kept = pred.masks[pred.scores > ModelConfig.post_nms_score]
    twins = np.stack([scene.instance == 1, scene.instance == 2])
    inter = (twins[:, None] & kept[None]).sum(axis=(2, 3))
    union = twins.sum(axis=(1, 2))[:, None] + kept.sum(axis=(1, 2)) - inter
    return bool((2 * inter > union).any(axis=1).all())


def paint_instances(masks, shape):
    """The (H, W) uint8 id plane of `corrseg.synth.SyntheticScene.instance`
    painted one (H, W) bool mask at a time: k + 1 on mask k, 0 elsewhere."""
    instance = np.zeros(shape, dtype=np.uint8)
    for k, mask in enumerate(masks):
        instance[mask] = k + 1
    return instance


def segments_by_sort(pan):
    """`corrseg.metrics._segments` through `np.unique`: dense segment id per
    pixel, each segment's category and area."""
    category = pan.category.reshape(-1).astype(np.int64)
    instance = pan.instance.reshape(-1).astype(np.int64)
    lo = int(instance.min(initial=0))
    span = int(instance.max(initial=0)) - lo + 1
    keys = (category + 1) * span + (instance - lo)
    uniq, ids, area = np.unique(keys, return_inverse=True, return_counts=True)
    return ids.reshape(-1), uniq // span - 1, area.tolist()


def compute_pq(pred, gt):
    """PQ of one (prediction, ground truth) pair."""
    acc = PqAccumulator()
    acc.add(pred, gt)
    return acc.result()


def check_gradients(f, x, h=1e-5):
    """Max relative error between reverse-mode and central finite differences.

    `f` maps the Tensor `x` to a scalar Tensor.  Returns
    ``max_i |autodiff_i - central_i| / max(1, |central_i|)`` over all
    coordinates of `x`; raises NumericsError naming the first coordinate
    where a non-finite value is met.
    """
    if h <= 0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    x.data = np.ascontiguousarray(x.data)
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    if out.size != 1:
        raise AutodiffError(f"check_gradients needs a scalar program, got {out.shape}")
    out.backward()
    auto = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    worst = 0.0
    flat = x.data.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f(x).item()
            flat[i] = orig - h
            f_minus = f(x).item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            if not (math.isfinite(fd) and math.isfinite(auto.reshape(-1)[i])):
                raise NumericsError(f"non-finite gradient at coordinate {i}")
            err = abs(auto.reshape(-1)[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    return worst
