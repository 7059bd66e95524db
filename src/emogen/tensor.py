"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its parents and a backward closure; calling
``backward()`` on a scalar walks the graph in reverse topological order,
passing each node's gradient on to its parents, and accumulates gradients
into the ``.grad`` buffers of the leaves (parameters and inputs). Gradients
add up across repeated backward calls until explicitly zeroed, which is what
per-mini-batch training relies on.

All storage is float64: finite difference checks need the headroom.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_grad_enabled = True


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


class Tensor:
    """A numpy float64 array plus an optional gradient record.

    Only leaves (tensors not produced by an operation, such as parameters)
    hold a ``.grad`` buffer, kept across backward calls; intermediate nodes
    are created fresh on every forward pass and their ``.grad`` stays None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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
    if a.ndim < 2 or b.ndim < 2:
        raise NumericError("matmul operands must have at least 2 dimensions")
    if b.ndim == 2:
        # Fold a's leading axes into rows: one 2-D GEMM for the output and
        # one for each gradient, with no per-batch weight gradients to sum.
        a2 = a.data.reshape(-1, a.shape[-1])
        data = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[-1:])

        def backward_2d(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

        return _node(data, (a, b), backward_2d)
    data = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _reduce_to(ga, a.shape), _reduce_to(gb, b.shape)

    return _node(data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(
        np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),)
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


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _node(a.data * mask, (a,), lambda g: (g * mask,))


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit: x * Phi(x)."""
    x = a.data
    phi_cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * phi_cdf

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (phi_cdf + x * pdf),)

    return _node(data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _node(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``.

    Rejects non-finite input outright: a NaN or Inf in logits is always an
    upstream bug and would silently poison every downstream probability.
    """
    x = a.data
    if not np.isfinite(x).all():
        raise NumericError("softmax input contains non-finite values")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        return (p * (g - (g * p).sum(axis=axis, keepdims=True)),)

    return _node(p, (a,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * weight.data + bias.data
    n = x.shape[-1]

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
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(mask))
