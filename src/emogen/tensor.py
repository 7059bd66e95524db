"""Dense tensors with reverse-mode automatic differentiation.

Every operation records its parents and a backward closure; calling
``backward()`` on a scalar walks the graph in reverse topological order,
passing each node's gradient on to its parents, and accumulates gradients
into the ``.grad`` buffers of the leaves (parameters and inputs). Gradients
add up across repeated backward calls until explicitly zeroed.

Every tensor holds the compute dtype in force when it is made: float64 by
default, which finite-difference checks need for headroom, and whatever
``compute_dtype`` sets inside its block. Every array that enters the graph is
wrapped as a Tensor, so inside the block the whole graph, gradients included,
stays in that dtype.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float64 erf, Cephes ndtr.c (the algorithm of scipy.special.erf): x T(x²)/U(x²)
# for |x| <= 1, else 1 - exp(-x²) P(|x|)/Q(|x|), where erf(8) already rounds to 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# float32 erf, the Eigen/XLA single-precision form: x p(x²)/q(x²) on [-4, 4],
# where erf already rounds to ±1; under 5e-7 absolute error.
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)

_grad_enabled = True
_dtype = np.float64


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation, decoding)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def compute_dtype(dtype):
    """Make every tensor created inside the block hold ``dtype`` (training uses float32)."""
    global _dtype
    prev = _dtype
    _dtype = dtype
    try:
        yield
    finally:
        _dtype = prev


class Tensor:
    """A numpy array in the compute dtype plus an optional gradient record.

    Only leaves (tensors not produced by an operation, such as parameters)
    hold a ``.grad`` buffer, kept across backward calls; intermediate nodes
    are created fresh on every forward pass and their ``.grad`` stays None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph ----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every leaf of the graph.

        ``self`` must be a scalar. Interior nodes only pass their gradient on
        to their parents. Repeated calls without zeroing add their
        contributions on top of the leaves' existing ``.grad`` buffers.
        """
        if self.data.size != 1:
            raise NumericError(
                f"backward() requires a scalar, got shape {self.shape}"
            )
        topo = _toposort(self)
        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                acc = flowing.get(id(parent))
                flowing[id(parent)] = pg if acc is None else acc + pg

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, 1.0 / other)
        raise TypeError("tensor division only supports python scalars")

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS: graphs of long training steps overflow recursion limits.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = parents
        out._backward = backward
        return out
    return Tensor(data)


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo numpy broadcasting: sum ``grad`` down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- primitive operations --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _node(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b)
    data = a.data * b.data

    def backward(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return _node(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim != 2:
        raise NumericError("matmul takes an operand of at least 2 dimensions and a 2-D one")
    return linear(a, b)


def linear(a: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``a @ w (+ b)`` as one node: a's rows folded to 2-D, the bias added in place."""
    a2 = a.data.reshape(-1, a.shape[-1])
    out = a2 @ w.data
    if b is not None:
        out += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        grads = (g2 @ w.data.T).reshape(a.shape), a2.T @ g2
        return grads if b is None else (*grads, g2.sum(axis=0))

    return _node(out.reshape(a.shape[:-1] + w.shape[-1:]),
                 (a, w) if b is None else (a, w, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    return _node(
        np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, np.argsort(axes)),)
    )


def getitem(a: Tensor, idx) -> Tensor:
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _node(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    data = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return _node(data, (a,), backward)


def _horner(x: np.ndarray, coefs) -> np.ndarray:
    """The polynomial with coefficients ``coefs``, highest degree first, at ``x``."""
    out = x * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function in the dtype of ``x``: ±inf gives ±1 and NaN gives NaN."""
    shape = x.shape
    # A flat view: ufuncs turn 0-d arrays into scalars, which the in-place steps cannot update.
    x = x.reshape(-1)
    if x.dtype == np.float32:
        x = np.clip(x, -4.0, 4.0)
        x2 = x * x
        out = _horner(x2, _ERF32_P)
        out *= x
        out /= _horner(x2, _ERF32_Q)
        # The rational alone overshoots 1 by up to 3.6e-7.
        return np.clip(out, -1.0, 1.0, out=out).reshape(shape)
    # The |x| <= 1 branch runs on x clipped to [-1, 1], so it stays finite where
    # the tail branch, run on the elements it covers only, takes over.
    out = np.clip(x, -1.0, 1.0)
    z = out * out
    out *= _horner(z, _ERF_T)
    out /= _horner(z, _ERF_U)
    a = np.abs(x)
    tails = np.flatnonzero(a > 1.0)
    if tails.size:
        a = np.minimum(a.take(tails), 8.0)
        tail = np.exp(-(a * a))
        tail *= _horner(a, _ERFC_P)
        tail /= _horner(a, _ERFC_Q)
        np.subtract(1.0, tail, out=tail)
        out.put(tails, np.copysign(tail, x.take(tails)))
    return out.reshape(shape)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit: x * Phi(x)."""
    x = a.data
    phi_cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    data = x * phi_cdf

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (phi_cdf + x * pdf),)

    return _node(data, (a,), backward)


def _log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    out = _log_softmax(a.data, axis)

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _node(out, (a,), backward)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    # A NaN or Inf in the input is an upstream bug that would poison every probability.
    if not np.isfinite(x).all():
        raise NumericError("softmax input contains non-finite values")
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``."""
    p = _softmax(a.data, axis)

    def backward(g):
        return (p * (g - (g * p).sum(axis=axis, keepdims=True)),)

    return _node(p, (a,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head attention of (B, Tq, D) queries over (B or 1, Tk, D) keys and values.

    Heads are split and merged inside. ``bias`` is additive, broadcastable to (B, H, Tq, Tk);
    backward keeps only the probabilities. Both passes replay the numpy calls of the nodes
    this one replaces, on the same layouts.
    """
    d = q.shape[-1]
    dh = d // n_heads

    def split(x):  # (·, T, D) -> (·, H, T, D/H), a view
        return x.reshape(x.shape[0], x.shape[1], n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x):  # (·, H, T, D/H) -> (·, T, D)
        return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], d)

    q4, k4, v4 = split(q.data), split(k.data), split(v.data)
    kt = k4.transpose(0, 1, 3, 2)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=_dtype)
    scores = q4 @ kt
    scores *= scale
    scores += np.asarray(bias, dtype=_dtype)
    p = _softmax(scores, -1)
    ctx = p @ v4

    def backward(g):
        gc = split(g)
        gv = _reduce_to(np.swapaxes(p, -1, -2) @ gc, v4.shape)
        gp = gc @ np.swapaxes(v4, -1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        gs *= scale
        gq = merge(gs @ np.swapaxes(kt, -1, -2))
        gk = _reduce_to(np.swapaxes(q4, -1, -2) @ gs, kt.shape).transpose(0, 1, 3, 2)
        return gq, merge(gk), merge(gv)

    return _node(merge(ctx), (q, k, v), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    # ndarray.mean and ndarray.var's own arithmetic, centring the input once for both.
    count = np.intp(x.shape[-1])
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    np.true_divide(mu, count, out=mu, casting="unsafe")
    centred = x.data - mu
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    data = xhat * weight.data + bias.data

    def backward(g):
        gw_sum_axes = tuple(range(g.ndim - 1))
        gweight = (g * xhat).sum(axis=gw_sum_axes)
        gbias = g.sum(axis=gw_sum_axes)
        gx_hat = g * weight.data
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, gweight, gbias

    return _node(data, (x, weight, bias), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; the caller decides whether training is active."""
    if rate <= 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    # keep * scale is the float64 keep / (1 - rate) cast to the compute dtype.
    scale = np.asarray(1.0 / (1.0 - rate), dtype=_dtype)
    return _node(x.data * (keep * scale), (x,), lambda g: (g * (keep * scale),))
