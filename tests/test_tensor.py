import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        "relu": T.relu,
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
