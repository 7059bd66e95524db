import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emogen
from emogen import tensor as T
from emogen.errors import NumericError
from emogen.tensor import Tensor

# A fixed non-uniform upstream gradient for the (2, 3, 4) @ (4, 5) product.
_UPSTREAM = np.random.default_rng(17).normal(size=(2, 3, 5))


class TestBackwardContracts:
    def test_sum_gradient_is_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w.sum().backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_elementwise_square_gradient(self):
        w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        T.mul(w, w).sum().backward()
        np.testing.assert_allclose(w.grad, 2.0 * w.data, rtol=0, atol=0)

    def test_backward_rejects_non_scalar(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(NumericError):
            (w + w).backward()

    def test_repeated_backward_accumulates(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = w.sum()
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(w.grad, np.full(2, 2.0))
        assert loss.grad is None

    def test_shared_operand_accumulates_both_paths(self):
        w = Tensor(np.array([3.0]), requires_grad=True)
        (w * w + w).sum().backward()  # d/dw (w^2 + w) = 2w + 1
        np.testing.assert_allclose(w.grad, [7.0])

    def test_no_grad_blocks_graph(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            out = (w * 2.0).sum()
        assert not out.requires_grad
        assert out._backward is None

    def test_compute_dtype_covers_ops_grads_and_scalars_and_restores_on_error(self):
        with pytest.raises(RuntimeError, match="inside"), T.compute_dtype(np.float32):
            w = Tensor(np.ones(3), requires_grad=True)
            out = T.gelu(w * 2.0 + 1).sum()
            out.backward()
            assert w.data.dtype == out.data.dtype == w.grad.dtype == np.float32
            assert T._wrap(0.5).data.dtype == np.float32
            raise RuntimeError("inside")
        assert Tensor(1.0).data.dtype == np.float64
        assert (Tensor(np.ones(2, np.float32)) * 0.5).data.dtype == np.float64

    def test_grads_finite_after_composite(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = T.tmean(T.gelu(T.matmul(a, b)))
        out.backward()
        assert np.isfinite(a.grad).all() and np.isfinite(b.grad).all()


class TestOpGradients:
    """Central finite differences on each primitive, h=1e-4, rel err 1e-3."""

    cases = {
        "matmul": (lambda a, b: T.matmul(a, b).sum(), (3, 4), (4, 2)),
        "batched_matmul": (lambda a, b: T.matmul(a, b).sum(), (2, 3, 4), (4, 5)),
        "batched_matmul_weighted": (
            lambda a, b: T.mul(T.matmul(a, b), Tensor(_UPSTREAM)).sum(), (2, 3, 4), (4, 5)),
        "add_broadcast": (lambda a, b: (a + b).sum(), (3, 4), (4,)),
        "mul_broadcast": (lambda a, b: T.mul(a, b).sum(), (2, 3, 4), (3, 4)),
    }

    @pytest.mark.parametrize("name", sorted(cases))
    def test_two_arg_op(self, name):
        fn, sa, sb = self.cases[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        a = Tensor(rng.normal(size=sa), requires_grad=True)
        b = Tensor(rng.normal(size=sb), requires_grad=True)
        fn(a, b).backward()
        for p in (a, b):
            self._check_fd(lambda: fn(Tensor(a.data), Tensor(b.data)).item(), p)

    unary = {
        "gelu": T.gelu,
        "log_softmax": lambda x: T.log_softmax(x, axis=-1),
        "softmax": lambda x: T.softmax(x, axis=-1),
        "mean_axis": lambda x: T.tmean(x, axis=1),
        "transpose": lambda x: T.transpose(x, (1, 0)),
        "reshape": lambda x: T.reshape(x, (12,)),
        "getitem": lambda x: T.getitem(x, (np.array([0, 2, 2]), np.array([1, 0, 3]))),
    }

    @pytest.mark.parametrize("name", sorted(unary))
    def test_unary_op(self, name):
        fn = self.unary[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        # Weight the output so the upstream gradient is non-uniform.
        w = rng.normal(size=fn(Tensor(x.data)).shape)
        T.mul(fn(x), Tensor(w)).sum().backward()
        self._check_fd(lambda: float((fn(Tensor(x.data)).data * w).sum()), x)

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=8), requires_grad=True)
        b = Tensor(rng.normal(size=8), requires_grad=True)
        up = rng.normal(size=(2, 3, 8))
        T.mul(T.layer_norm(x, w, b), Tensor(up)).sum().backward()
        for p in (x, w, b):
            self._check_fd(
                lambda: float((T.layer_norm(Tensor(x.data), Tensor(w.data), Tensor(b.data)).data * up).sum()),
                p,
            )

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_linear_gradients(self, lead, with_bias):
        rng = np.random.default_rng(11)
        shapes = [(*lead, 4), (4, 5)] + [(5,)] * with_bias
        params = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        up = rng.normal(size=(*lead, 5))
        T.mul(T.linear(*params), Tensor(up)).sum().backward()
        for p in params:
            self._check_fd(
                lambda: float((T.linear(*(Tensor(q.data) for q in params)).data * up).sum()), p)

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("kv_batch", [1, 2])
    def test_attention_gradients(self, n_heads, kv_batch):
        rng = np.random.default_rng(13)
        q = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(kv_batch, 5, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(kv_batch, 5, 4)), requires_grad=True)
        bias = np.where(rng.random((2, 1, 1, 5)) < 0.3, -1e9, 0.0)
        bias[:, ..., 0] = 0.0
        up = rng.normal(size=(2, 3, 4))
        T.mul(T.attention(q, k, v, bias, n_heads), Tensor(up)).sum().backward()
        for p in (q, k, v):
            self._check_fd(lambda: float((T.attention(Tensor(q.data), Tensor(k.data),
                                                      Tensor(v.data), bias, n_heads).data
                                          * up).sum()), p)

    @staticmethod
    def _check_fd(loss_fn, p, h=1e-4, tol=1e-3):
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = loss_fn()
            flat[i] = old - h
            down = loss_fn()
            flat[i] = old
            fd = (up - down) / (2 * h)
            an = gflat[i]
            rel = abs(fd - an) / max(1e-6, abs(fd), abs(an))
            assert rel < tol, f"entry {i}: analytic {an} vs numeric {fd}"


class TestLayerNorm:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.lists(st.integers(1, 4), min_size=0, max_size=2),
        st.integers(1, 70),
        st.floats(-1e3, 1e3),
        st.floats(1e-3, 1e3),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_ndarray_mean_and_var_bit_for_bit(self, dtype, lead, n, shift, scale, seed):
        rng = np.random.default_rng(seed)
        with T.compute_dtype(dtype):
            x = Tensor(rng.normal(size=(*lead, n)) * scale + shift)
            w = Tensor(rng.normal(size=n))
            b = Tensor(rng.normal(size=n))
            out = T.layer_norm(x, w, b).data
        mu = x.data.mean(axis=-1, keepdims=True)
        var = x.data.var(axis=-1, keepdims=True)
        want = (x.data - mu) * (1.0 / np.sqrt(var + 1e-5)) * w.data + b.data
        assert out.dtype == want.dtype == dtype
        assert out.tobytes() == want.tobytes()


class TestErf:
    """``_erf`` against mpmath: float64 in relative error, float32 in absolute error."""

    @staticmethod
    def _exact(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # erf(x) as a float64 head plus the float64 rounding of what the head misses.
        with mp.workdps(40):
            exact = [mp.erf(v) for v in x.tolist()]
            head = np.array([float(e) for e in exact])
            tail = np.array([float(e - h) for e, h in zip(exact, head.tolist())])
        return head, tail

    def test_float64_relative_error(self):
        tails = np.linspace(1.0, 8.0, 7001)
        x = np.concatenate([np.linspace(-10.0, 10.0, 2001), tails, -tails])
        y = T._erf(x)
        assert y.dtype == np.float64
        head, tail = self._exact(x)
        zero = head == 0.0
        assert (y[zero] == 0.0).all()
        # y and head are a few ulps apart, so y - head is exact.
        rel = np.abs((y[~zero] - head[~zero]) - tail[~zero]) / np.abs(head[~zero])
        assert rel.max() <= 5e-16, x[~zero][rel.argmax()]

    def test_float32_absolute_error(self):
        x = np.linspace(-6.0, 6.0, 60001, dtype=np.float32)
        y = T._erf(x)
        assert y.dtype == np.float32
        err = np.abs(y.astype(np.float64) - self._exact(x)[0])
        assert err.max() <= 5e-7, x[err.argmax()]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_values_bound_and_oddness(self, dtype):
        x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], dtype=dtype)
        grid = np.linspace(-12.0, 12.0, 24001, dtype=dtype)
        with np.errstate(all="raise"):
            y = T._erf(x)
            on_grid = T._erf(grid)
            mirrored = T._erf(-grid)
        assert y.dtype == on_grid.dtype == dtype
        assert y[0] == 1.0 and y[1] == -1.0 and np.isnan(y[2])
        assert y[3] == 0.0 and not np.signbit(y[3])
        assert y[4] == 0.0 and np.signbit(y[4])
        assert (np.abs(on_grid) <= 1.0).all()
        assert (mirrored == -on_grid).all()
        scalar = T._erf(np.array(2.0, dtype=dtype))
        assert scalar.shape == () and scalar.dtype == dtype and scalar == on_grid[14000]


def test_importing_every_emogen_module_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(emogen.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    code = ("import importlib, pkgutil, sys, emogen, emogen.cli\n"
            "for m in pkgutil.iter_modules(emogen.__path__):\n"
            "    importlib.import_module('emogen.' + m.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


class TestFlatMatmul:
    """Products with a 2-D right operand run as flat 2-D GEMMs."""

    @staticmethod
    def _batched_reference(a, w, up):
        # The batched path: per-batch weight gradients, then summed.
        ga = up @ w.T
        gw = (np.swapaxes(a, -1, -2) @ up).sum(axis=tuple(range(a.ndim - 2)))
        return a @ w, ga, gw

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=2),
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_batched_then_summed(self, lead, t, d, f, seed):
        # Shapes (B, T, D) @ (D, F) and (B, H, T, D) @ (D, F).
        rng = np.random.default_rng(seed)
        shape = (*lead, t, d)
        a = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=(d, f)), requires_grad=True)
        up = rng.normal(size=(*lead, t, f))
        out = T.matmul(a, w)
        T.mul(out, Tensor(up)).sum().backward()
        want_out, want_ga, want_gw = self._batched_reference(a.data, w.data, up)
        assert out.shape == want_out.shape
        np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.grad, want_ga, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, want_gw, rtol=0, atol=1e-12)


class TestLeafGradients:
    def test_interior_nodes_hold_no_grad(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        h = T.matmul(x, w)
        y = T.gelu(h)
        loss = T.tmean(y)
        loss.backward()
        for node in (h, y, loss):
            assert node.grad is None
        assert x.grad is not None and w.grad is not None

    def test_leaf_used_twice_accumulates_both_contributions(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 4))
        up = rng.normal(size=(2, 3, 4))

        def loss(first, second):
            return T.mul(T.matmul(T.gelu(T.matmul(Tensor(x), first)), second), Tensor(up)).sum()

        shared = Tensor(w.copy(), requires_grad=True)
        loss(shared, shared).backward()
        w1 = Tensor(w.copy(), requires_grad=True)
        w2 = Tensor(w.copy(), requires_grad=True)
        loss(w1, w2).backward()
        np.testing.assert_allclose(shared.grad, w1.grad + w2.grad, rtol=0, atol=1e-12)


class TestSoftmaxKernel:
    def test_symmetric_pair(self):
        out = T.softmax(Tensor([0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=0)

    def test_equal_logits_uniform(self):
        out = T.softmax(Tensor([10.0, 10.0, 10.0]), axis=-1)
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_against_high_precision_oracle(self):
        # exp(z - max) / sum at 50 decimal digits, frozen here.
        out = T.softmax(Tensor([1.0, 2.0, 3.0]), axis=-1)
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            T.softmax(Tensor([0.0, np.nan]), axis=-1)
        with pytest.raises(NumericError):
            T.softmax(Tensor([0.0, np.inf]), axis=-1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-60, 60), min_size=2, max_size=16),
        st.floats(-30, 30),
    )
    def test_rows_sum_to_one_and_shift_invariant(self, logits, shift):
        x = np.array(logits)
        p = T.softmax(Tensor(x), axis=-1).data
        assert abs(p.sum() - 1.0) <= 1e-9
        assert (p > 0).all() and (p < 1).all() or np.isclose(p.max(), 1.0)
        shifted = T.softmax(Tensor(x + shift), axis=-1).data
        np.testing.assert_allclose(p, shifted, atol=1e-12)

    def test_deterministic(self):
        x = np.random.default_rng(5).normal(size=(4, 9))
        a = T.softmax(Tensor(x), axis=-1).data
        b = T.softmax(Tensor(x.copy()), axis=-1).data
        assert (a == b).all()


# -- the composed graphs that linear, attention and dropout replace -------------


def _matmul_2d(a, w):
    # A product with a 2-D right operand, folded to one 2-D GEMM.
    a2 = a.data.reshape(-1, a.shape[-1])

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ w.data.T).reshape(a.shape), a2.T @ g2

    return T._node((a2 @ w.data).reshape(a.shape[:-1] + w.shape[-1:]), (a, w), backward)


def _batched_matmul(a, b):
    def backward(g):
        return (T._reduce_to(g @ np.swapaxes(b.data, -1, -2), a.shape),
                T._reduce_to(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return T._node(a.data @ b.data, (a, b), backward)


def _softmax_last_axis(a):
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return T._node(p, (a,), backward)


def _composed_linear(a, w, b=None):
    out = _matmul_2d(a, w)
    return out if b is None else out + b


def _split_heads(x, h):
    b, t, d = x.shape
    return T.transpose(T.reshape(x, (b, t, h, d // h)), (0, 2, 1, 3))


def _composed_attention(q, k, v, bias, n_heads):
    q, k, v = (_split_heads(x, n_heads) for x in (q, k, v))
    b, h, tq, dh = q.shape
    scores = _batched_matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    probs = _softmax_last_axis(scores + Tensor(bias))
    ctx = _batched_matmul(probs, v)
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, tq, h * dh))


def _composed_dropout(x, rate, rng):
    return T.mul(x, Tensor((rng.random(x.shape) >= rate) / (1.0 - rate)))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFusedNodes:
    """``linear``, ``attention`` and ``dropout`` match the composed graphs bit for bit."""

    @staticmethod
    def _run(build, leaves, up):
        # Forward, then backward of sum(out * up); returns the output and every leaf's grad.
        leaves = [Tensor(x.copy(), requires_grad=True) for x in leaves]
        out = build(*leaves)
        T.mul(out, Tensor(up)).sum().backward()
        return [out.data] + [p.grad for p in leaves]

    def _check(self, dtype, build, reference, leaves, out_shape, seed):
        up = np.random.default_rng(seed).normal(size=out_shape)
        with T.compute_dtype(dtype):
            got = self._run(build, leaves, up)
            want = self._run(reference, leaves, up)
        assert got[0].dtype == dtype
        for i, (g, w) in enumerate(zip(got, want)):
            assert _same_bits(g, w), f"array {i} differs"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(7,), (3, 5), (2, 2, 3)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_linear(self, dtype, lead, with_bias):
        rng = np.random.default_rng(len(lead))
        leaves = [rng.normal(size=(*lead, 16)), rng.normal(size=(16, 24))]
        if with_bias:
            leaves.append(rng.normal(size=24))
        self._check(dtype, T.linear, _composed_linear, leaves, (*lead, 24), 1)
        if not with_bias:
            self._check(dtype, T.matmul, _composed_linear, leaves, (*lead, 24), 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("mask", ["padding", "causal"])
    @pytest.mark.parametrize("kv_batch", ["full", "one"])
    def test_attention(self, dtype, n_heads, mask, kv_batch):
        b, tq, tk, d = 3, 5, 7, 16
        rng = np.random.default_rng(n_heads)
        if mask == "padding":
            keep = np.ones((b, tk), dtype=bool)
            keep[1, 4:] = keep[2, 6:] = False
            bias = np.where(keep, 0.0, -1e9)[:, None, None, :]
        else:
            bias = np.triu(np.full((tq, tk), -1e9), k=tk - tq + 1)[None, None]
        bk = b if kv_batch == "full" else 1
        # K and V enter as (B, Tk, D) projections, as the model makes them.
        leaves = [rng.normal(size=(b, tq, d)), rng.normal(size=(bk, tk, d)),
                  rng.normal(size=(bk, tk, d))]

        def build(attend):
            return lambda q, k, v: attend(q, k, v, bias, n_heads)

        self._check(dtype, build(T.attention), build(_composed_attention), leaves, (b, tq, d), 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.1, 0.3])
    def test_dropout(self, dtype, rate):
        x = np.random.default_rng(3).normal(size=(4, 6, 8))
        rngs = [np.random.default_rng(5), np.random.default_rng(5)]
        self._check(dtype, lambda t: T.dropout(t, rate, rngs[0]),
                    lambda t: _composed_dropout(t, rate, rngs[1]), [x], x.shape, 3)
        # The same draws: the streams stay in step.
        assert rngs[0].random() == rngs[1].random()

    def test_attention_rejects_non_finite_scores(self):
        q = Tensor(np.full((1, 2, 4), np.nan))
        kv = Tensor(np.zeros((1, 3, 4)))
        with pytest.raises(NumericError, match="non-finite"):
            T.attention(q, kv, kv, np.zeros((1, 1, 1, 3)), 2)
