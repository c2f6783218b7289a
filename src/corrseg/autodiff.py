"""Minimal dense-tensor reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array.  Every op builds its output with
:func:`make_node`, which records the parents plus a closure that routes
the incoming gradient to them exactly when gradients are enabled and
some parent requires grad.  Calling :meth:`Tensor.backward` on a scalar
walks the graph once in reverse topological order and populates
``grad`` on every reachable tensor with ``requires_grad`` set.

Every tensor holds float64; all documented tolerances assume it.  Ops
take Tensor operands.  Only `add` and `mul` also take a number or array,
as a constant Tensor, so ``x * 2.0`` is ``mul(x, 2.0)`` and ``x + 1.0``
is ``add(x, 1.0)``.

A graph is confined to one logical thread between construction and
backward; tensors without gradient tracking are immutable by convention
and safe to share across threads.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import AutodiffError, ShapeError
from .rng import SplitMix64

_GRAD_ENABLED = True

# Rows of the (B, H*W) softmax weights that outer_softmax_matmul handles
# at a time: 32 x 1024 float64 is 256 KiB, which stays in L2.
OUTER_BLOCK = 32


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _broadcast_shape(a_shape, b_shape):
    if a_shape == b_shape:
        return a_shape
    try:
        return np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ShapeError(
            f"shapes not broadcast-compatible: {a_shape} vs {b_shape}"
        ) from None


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting trailing-dimension broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense n-dimensional real array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._grad_fn: Optional[Callable[[np.ndarray], None]] = None
        self._done = False

    # -- bookkeeping ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.data.reshape(-1)[0])

    def _accum(self, g: np.ndarray, owned: bool = False) -> None:
        """Add `g` to this tensor's gradient.

        ``owned=True`` says the producer just allocated `g` and holds no
        other reference to it, so a first gradient is kept as is; any
        other first gradient (a view or a broadcast) is copied.
        """
        if self.grad is None:
            self.grad = g if owned else np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward -------------------------------------------------------

    def backward(self) -> None:
        """Populate grads of every requires_grad tensor reachable from self.

        Only scalar (single-element) losses are accepted, and a second call
        on the same output is rejected.
        """
        if self.size != 1:
            raise AutodiffError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if self._done:
            raise AutodiffError(
                "backward already ran for this tensor; rebuild the graph"
            )
        self._done = True

        order = self._topo_order()
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._grad_fn is not None and node.grad is not None:
                node._grad_fn(node.grad)

    def _topo_order(self) -> list:
        # Iterative DFS; graphs from long training steps exceed Python's
        # recursion limit.
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)


TensorLike = Union[Tensor, np.ndarray, float, int, Sequence]


def as_tensor(x: TensorLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_node(data, parents, grad_fn) -> Tensor:
    """A Tensor holding `data` that routes its gradient to `parents` by
    calling ``grad_fn(g)``.  It is tracked when gradients are enabled and
    some parent requires grad, and is a plain constant otherwise.  Every
    op, and every fused node outside this module, is built through it."""
    out = Tensor(data)
    if _GRAD_ENABLED:
        # A plain loop: any() over a generator costs several times as
        # much, on every node a step builds.
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._grad_fn = grad_fn
                break
    return out


# -- elementwise binary ops ------------------------------------------------


def add(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)

    def grad_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return make_node(a.data + b.data, (a, b), grad_fn)


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)

    def grad_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape), owned=True)

    return make_node(a.data * b.data, (a, b), grad_fn)


# -- elementwise unary ops ---------------------------------------------------


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function on a plain array.

    Split by sign so exp never overflows: with e = exp(-|x|), sigmoid is
    1 / (1 + e) for x >= 0 and e / (1 + e) otherwise.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out_data = stable_sigmoid(a.data)

    def grad_fn(g):
        a._accum(g * out_data * (1.0 - out_data), owned=True)

    return make_node(out_data, (a,), grad_fn)


# -- reductions ----------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.shape))

    return make_node(out_data, (a,), grad_fn)


# -- structural ops -----------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old_shape = a.shape

    def grad_fn(g):
        a._accum(g.reshape(old_shape))

    return make_node(a.data.reshape(shape), (a,), grad_fn)


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)

    def grad_fn(g):
        a._accum(g.transpose(inverse))

    return make_node(a.data.transpose(axes), (a,), grad_fn)


def take(a: Tensor, key) -> Tensor:
    """``a[key]`` for any numpy key: slices, integers or integer arrays.

    The gradient scatter-adds back, so an entry picked more than once
    by an integer-array key receives the sum of its gradients.
    """

    def grad_fn(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        a._accum(full, owned=True)

    return make_node(a.data[key], (a,), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return make_node(np.concatenate([t.data for t in tensors], axis=axis), tensors, grad_fn)


def _check_matmul(a: Tensor, b: Tensor, op: str) -> None:
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"{op} expects matching 2d/3d ranks, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"{op} shapes incompatible: {a.shape} @ {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-d tensors or batched 3-d tensors."""
    _check_matmul(a, b, "matmul")

    def grad_fn(g):
        if a.requires_grad:
            a._accum(np.matmul(g, b.data.swapaxes(-1, -2)), owned=True)
        if b.requires_grad:
            b._accum(np.matmul(a.data.swapaxes(-1, -2), g), owned=True)

    return make_node(np.matmul(a.data, b.data), (a, b), grad_fn)


def softmax_matmul(logits: Tensor, values: Tensor) -> Tensor:
    """``softmax(logits, axis=-1) @ values`` as one graph node.

    2-d or batched 3-d operands, as for :func:`matmul`.  The softmax uses
    max-subtraction for stability, and the node keeps only its weights
    P.  With G the output gradient: dvalues = P^T G and
    dlogits = P * (G values^T - rowsum(G * out)).
    """
    _check_matmul(logits, values, "softmax_matmul")
    p = logits.data - logits.data.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out_data = np.matmul(p, values.data)

    def grad_fn(g):
        if values.requires_grad:
            values._accum(np.matmul(p.swapaxes(-1, -2), g), owned=True)
        if logits.requires_grad:
            dlogits = np.matmul(g, values.data.swapaxes(-1, -2))
            dlogits -= (g * out_data).sum(axis=-1, keepdims=True)
            dlogits *= p
            logits._accum(dlogits, owned=True)

    return make_node(out_data, (logits, values), grad_fn)


def _outer_max(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Max over (y, x) of ``rows[u, y] * cols[u, x]``, per u, in O(H + W).

    The largest product pairs an extreme of one side with an extreme of
    the other, and rounding is monotone, so the largest rounded product
    is among the four rounded extreme products.
    """
    r_hi, r_lo = rows.max(axis=1), rows.min(axis=1)
    c_hi, c_lo = cols.max(axis=1), cols.min(axis=1)
    return np.maximum(np.maximum(r_hi * c_hi, r_hi * c_lo),
                      np.maximum(r_lo * c_hi, r_lo * c_lo))


def outer_softmax_matmul(rows: Tensor, cols: Tensor, values: Tensor) -> Tensor:
    """Softmax over rank-1 logits, times values, as one graph node.

    rows (B, H), cols (B, W), values (H*W, C) -> (B, C).  Row u of the
    logits is the outer product ``rows[u, y] * cols[u, x]`` flattened
    y-major, which is never a graph tensor.  The node keeps one (B, H*W)
    buffer E = exp(logits - rowmax) and the row sums s, and returns
    (E @ values) / s.  With gs = G / s: dvalues = E^T gs and
    dlogits = E * (gs values^T - rowsum(gs * out)), which reaches rows
    and cols as two batched matrix-vector products with cols and rows.

    Both passes walk the B rows in blocks of OUTER_BLOCK, so each block
    of E is reused while it is in cache.  The forward writes a block's
    products with one einsum into E, then exponentiates, sums and
    multiplies it by values in place.  The backward adds the block's
    share of dvalues and builds its rows of dlogits in one block-sized
    scratch buffer, so no second (B, H*W) array exists.  Per element the
    arithmetic is that of the unblocked node; only the GEMMs' summation
    order can depend on the block size.
    """
    if rows.ndim != 2 or cols.ndim != 2 or values.ndim != 2:
        raise ShapeError(
            f"outer_softmax_matmul expects 2d operands, got "
            f"{rows.shape}, {cols.shape}, {values.shape}"
        )
    b, h = rows.shape
    w = cols.shape[1]
    if cols.shape[0] != b or values.shape[0] != h * w:
        raise ShapeError(
            f"outer_softmax_matmul shapes incompatible: {rows.shape} x "
            f"{cols.shape} @ {values.shape}"
        )
    rowmax = _outer_max(rows.data, cols.data)[:, None, None]
    e = np.empty((b, h, w))
    s = np.empty((b, 1))
    out_data = np.empty((b, values.shape[1]))
    for lo in range(0, b, OUTER_BLOCK):
        blk = slice(lo, lo + OUTER_BLOCK)
        eb = e[blk]
        np.einsum("uy,ux->uyx", rows.data[blk], cols.data[blk], out=eb)
        eb -= rowmax[blk]
        np.exp(eb, out=eb)
        eb = eb.reshape(-1, h * w)
        eb.sum(axis=1, keepdims=True, out=s[blk])
        np.matmul(eb, values.data, out=out_data[blk])
    out_data /= s
    e = e.reshape(b, h * w)

    def grad_fn(g):
        gs = g / s
        rowsum = (gs * out_data).sum(axis=1, keepdims=True)
        dvalues = np.zeros(values.shape)
        drows, dcols = np.empty(rows.shape), np.empty(cols.shape)
        scratch = np.empty((min(b, OUTER_BLOCK), h * w))
        for lo in range(0, b, OUTER_BLOCK):
            blk = slice(lo, lo + OUTER_BLOCK)
            eb, gb = e[blk], gs[blk]
            dvalues += eb.T @ gb
            dlogits = scratch[:len(eb)]
            np.matmul(gb, values.data.T, out=dlogits)
            dlogits -= rowsum[blk]
            dlogits *= eb
            dlogits = dlogits.reshape(-1, h, w)
            drows[blk] = np.matmul(dlogits, cols.data[blk, :, None])[:, :, 0]
            dcols[blk] = np.matmul(rows.data[blk, None, :], dlogits)[:, 0, :]
        for t, grad in ((values, dvalues), (rows, drows), (cols, dcols)):
            if t.requires_grad:
                t._accum(grad, owned=True)

    return make_node(out_data, (rows, cols, values), grad_fn)


# -- convolution ---------------------------------------------------------------


def _windows(buf: np.ndarray, shape, stride: int) -> np.ndarray:
    """Sliding (ho, wo, k, k, C) windows over the C-contiguous HWC `buf`.

    Window (i, j) starts at pixel (stride*i, stride*j).  The ndarray
    constructor over `buf`'s memory builds the same view as
    ``as_strided`` at a fraction of its per-call cost.
    """
    sy, sx, sc = buf.strides
    return np.ndarray(shape, buf.dtype, buf, 0, (stride * sy, stride * sx, sy, sx, sc))


def _im2col(x: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    """im2col rows of a same-padded k x k correlation of HWC `x`.

    Row r holds the k*k*C_in window of output pixel r in the kernel's
    (dy, dx, c) order, for output pixels at every `stride`-th row and
    column of the stride-1 result.
    """
    p = (k - 1) // 2
    h, w, c_in = x.shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    if not p:
        # A 1x1 window is the pixel itself; `x` may be a strided view.
        return x[::stride, ::stride].reshape(ho * wo, c_in)
    xp = np.zeros((h + 2 * p, w + 2 * p, c_in))
    xp[p:p + h, p:p + w] = x
    return _windows(xp, (ho, wo, k, k, c_in), stride).reshape(ho * wo, k * k * c_in)


def _same_correlate(x: np.ndarray, kernel: np.ndarray, stride: int = 1) -> np.ndarray:
    """Same-padded correlation of HWC `x`: its im2col rows @ kernel."""
    k, _, c_in, c_out = kernel.shape
    h, w = x.shape[:2]
    out = _im2col(x, k, stride) @ kernel.reshape(k * k * c_in, c_out)
    return out.reshape((h - 1) // stride + 1, (w - 1) // stride + 1, c_out)


def _strided_input_grad(g: np.ndarray, kernel: np.ndarray, stride: int, shape):
    """Input gradient of a same-padded conv sampled every `stride` >= 2.

    With pad p = (k - 1) // 2, input row i = stride*m + r (0 <= r <
    stride) gets tap dy = r + p - stride*a from output row m + a, and
    only the n = (stride - 1 + p) // stride + 1 offsets a = 0..n-1 can
    give a tap (n = 2 for 3x3 kernels, 1 for 1x1).  So the gradient is
    an n x n correlation of `g`, with n - 1 zero rows and columns
    appended, against a kernel packed as (n, n, C_out) -> (stride,
    stride, C_in) whose block (a, b, ry, rx) is kernel[dy, dx]^T, or
    zero where dy or dx is no tap.  The stride*stride phase planes are
    then interleaved and cropped to `shape`.  Against correlating the
    zero-filled stride-1 gradient, this skips the filled-in zeros.
    """
    k, _, c_in, c_out = kernel.shape
    ho, wo = g.shape[:2]
    p = (k - 1) // 2
    n = (stride - 1 + p) // stride + 1
    taps = np.arange(stride)[:, None] + p - stride * np.arange(n)
    taps = np.where((taps >= 0) & (taps < k), taps, k)  # k picks the zero pad
    padded = np.zeros((k + 1, k + 1, c_in, c_out))
    padded[:k, :k] = kernel
    # packed[a, b, o, ry, rx, i] = padded[taps[ry, a], taps[rx, b], i, o]
    packed = padded[taps.T[:, None, :, None], taps.T[None, :, None, :]]
    packed = packed.transpose(0, 1, 5, 2, 3, 4).reshape(n * n * c_out, -1)
    gp = np.zeros((ho + n - 1, wo + n - 1, c_out))
    gp[:ho, :wo] = g
    windows = _windows(gp, (ho, wo, n, n, c_out), 1)
    phases = windows.reshape(ho * wo, n * n * c_out) @ packed
    dense = phases.reshape(ho, wo, stride, stride, c_in).transpose(0, 2, 1, 3, 4)
    dense = dense.reshape(ho * stride, wo * stride, c_in)
    return np.ascontiguousarray(dense[:shape[0], :shape[1]])


def conv2d(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, relu: bool = False) -> Tensor:
    """One conv layer as one graph node: same-padded cross-correlation,
    sampled every `stride` pixels, plus `bias`, then ReLU if `relu`.

    x: (H, W, C_in); kernel: (k, k, C_in, C_out) with k in {1, 3};
    bias: (C_out,) or None; stride >= 1.  Output (ceil(H/stride),
    ceil(W/stride), C_out): the stride-1 output at rows and columns 0,
    stride, 2*stride, ..., computed only there.  Bias and ReLU run in
    place on the GEMM output, with the ufuncs of the composed
    ``relu(conv2d(x, kernel) + bias)``.

    The node keeps only its parents and its output, no im2col: the
    backward masks the gradient by ``out > 0`` (true exactly where the
    pre-activation is > 0) and rebuilds the im2col from ``x.data`` for
    the kernel gradient.  At stride 1 the input gradient is the output
    gradient correlated with the kernel flipped in both spatial axes
    and with its channel axes swapped; at larger strides it is the
    polyphase form of the same sum, :func:`_strided_input_grad`.
    """
    if x.ndim != 3 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects HWC input and kkIO kernel, got {x.shape}, {kernel.shape}")
    k, _, _, c_out = kernel.shape
    if kernel.shape[1] != k or k not in (1, 3):
        raise ShapeError(f"conv2d kernel must be 1x1 or 3x3, got {kernel.shape[:2]}")
    if kernel.shape[2] != x.shape[2]:
        raise ShapeError(
            f"conv2d channel mismatch: input has {x.shape[2]}, kernel expects {kernel.shape[2]}"
        )
    parents = (x, kernel)
    out_data = _same_correlate(x.data, kernel.data, stride)
    if bias is not None:
        if bias.shape != (c_out,):
            raise ShapeError(f"conv2d bias must have shape ({c_out},), got {bias.shape}")
        parents += (bias,)
        out_data += bias.data
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def grad_fn(g):
        if relu:
            g = g * (out_data > 0)
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(0, 1)), owned=True)
        if kernel.requires_grad:
            flat = _im2col(x.data, k, stride)
            kernel._accum((flat.T @ g.reshape(-1, c_out)).reshape(kernel.shape), owned=True)
        if x.requires_grad:
            if stride > 1:
                dx = _strided_input_grad(g, kernel.data, stride, x.shape)
            else:
                flipped = kernel.data[::-1, ::-1].transpose(0, 1, 3, 2)
                dx = _same_correlate(g, flipped)
            x._accum(dx, owned=True)

    return make_node(out_data, parents, grad_fn)


# -- parameters and optimization ---------------------------------------------------


def init_parameter(shape, fan_in: int, rng: SplitMix64) -> Tensor:
    """Centered uniform init scaled by 1/sqrt(fan_in), gradient-tracked."""
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return Tensor(rng.uniform_array(shape, -bound, bound), requires_grad=True)


def zeros_parameter(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class SGD:
    """SGD with momentum and decoupled-from-nothing classic weight decay.

    update: buf = momentum*buf + grad + weight_decay*w;  w -= lr*buf
    """

    def __init__(self, params: dict, lr: float, momentum: float, weight_decay: float):
        self.params = dict(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._buffers = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                continue
            buf = self._buffers[name]
            buf *= self.momentum
            buf += p.grad + self.weight_decay * p.data
            p.data -= self.lr * buf
