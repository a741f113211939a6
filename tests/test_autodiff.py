"""Tensor core: op semantics, backward rules, Adam, FD checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstgnn import autodiff as ad


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.constant(np.eye(2)), ad.constant(a))
        np.testing.assert_array_equal(out.data, a)

    def test_projector(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        v = np.array([[5.0], [7.0]])
        out = ad.matmul(ad.constant(p), ad.constant(v))
        np.testing.assert_array_equal(out.data, [[5.0], [0.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        out = ad.matmul(ad.constant(a), ad.constant(b))
        np.testing.assert_allclose(out.data, naive_matmul(a, b), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_backward_rules(self):
        rng = np.random.default_rng(1)
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=(4, 2)))
        out = ad.mean(ad.matmul(a, b))
        grads = out.backward()
        g = np.full((3, 2), 1.0 / 6)
        np.testing.assert_allclose(grads[a], g @ b.data.T, rtol=1e-12)
        np.testing.assert_allclose(grads[b], a.data.T @ g, rtol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        c = rng.normal(size=(5, 2))
        left = ad.matmul(ad.matmul(ad.constant(a), ad.constant(b)), ad.constant(c))
        right = ad.matmul(ad.constant(a), ad.matmul(ad.constant(b), ad.constant(c)))
        np.testing.assert_allclose(left.data, right.data, rtol=1e-10, atol=1e-12)


class TestMaskedSoftmax:
    def test_symmetric_row(self):
        out = ad.masked_softmax(ad.constant([[1.0, 1.0]]),
                                np.array([[True, True]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_single_neighbor(self):
        out = ad.masked_softmax(ad.constant([[3.0, -2.0]]),
                                np.array([[True, False]]))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_partial_support(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        mask = np.array([[True, False, True]])
        out = ad.masked_softmax(ad.constant(scores), mask)
        z = math.exp(1.0) + math.exp(3.0)
        np.testing.assert_allclose(
            out.data, [[math.exp(1.0) / z, 0.0, math.exp(3.0) / z]], rtol=1e-14)

    def test_empty_row_warns_and_zeroes(self):
        mask = np.array([[True, True], [False, False]])
        with pytest.warns(RuntimeWarning, match="empty support"):
            out = ad.masked_softmax(ad.constant(np.ones((2, 2))), mask)
        np.testing.assert_array_equal(out.data[1], [0.0, 0.0])
        np.testing.assert_allclose(out.data[0].sum(), 1.0, atol=1e-12)

    def test_stability_at_large_scores(self):
        out = ad.masked_softmax(ad.constant([[1000.0, 999.0]]),
                                np.array([[True, True]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(5, 5))
        mask = rng.random((5, 5)) < 0.6
        mask[np.arange(5), np.arange(5)] = True  # keep rows non-empty
        out = ad.masked_softmax(ad.constant(scores), mask)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)
        assert np.all(out.data[~mask] == 0.0)

    def test_backward_fd(self):
        rng = np.random.default_rng(2)
        scores = ad.parameter(rng.normal(size=(3, 3)))
        mask = np.array([[True, True, False],
                         [True, True, True],
                         [False, True, True]])
        w = ad.constant(rng.normal(size=(3, 1)))

        def f():
            return ad.mean(ad.matmul(ad.masked_softmax(scores, mask), w))

        assert ad.finite_diff_check(f, {"s": scores}) < 1e-7


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = ad.cross_entropy(ad.constant([[0.0, 0.0]]), [0])
        assert out.item() == pytest.approx(math.log(2), abs=1e-15)

    def test_confident_correct(self):
        out = ad.cross_entropy(ad.constant([[50.0, -50.0]]), [0])
        assert out.item() == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 2))
        labels = [0, 1, 1]
        expected = np.mean([
            -math.log(math.exp(logits[i, y]) /
                      (math.exp(logits[i, 0]) + math.exp(logits[i, 1])))
            for i, y in enumerate(labels)])
        out = ad.cross_entropy(ad.constant(logits), labels)
        assert out.item() == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logits = rng.normal(size=(2, 2)) * 5
            assert ad.cross_entropy(ad.constant(logits), [0, 1]).item() >= 0.0

    def test_bad_label(self):
        with pytest.raises(ValueError, match="labels must be"):
            ad.cross_entropy(ad.constant([[0.0, 0.0]]), [2])

    def test_gradient_is_softmax_minus_onehot(self):
        logits = ad.parameter([[1.0, -1.0], [0.5, 2.0]])
        grads = ad.cross_entropy(logits, [0, 1]).backward()
        soft = ad.softmax_probs(logits.data)
        soft[[0, 1], [0, 1]] -= 1.0
        np.testing.assert_allclose(grads[logits], soft / 2, rtol=1e-12)


class TestElementwiseOps:
    def test_leaky_relu_values(self):
        out = ad.leaky_relu(ad.constant([-1.0, 0.0, 2.0]), 0.2)
        np.testing.assert_allclose(out.data, [-0.2, 0.0, 2.0])

    def test_broadcast_add_backward(self):
        a = ad.parameter(np.ones((3, 2)))
        b = ad.parameter(np.array([1.0, 2.0]))
        grads = ad.mean(ad.add(a, b)).backward()
        np.testing.assert_allclose(grads[b], [0.5, 0.5])
        np.testing.assert_allclose(grads[a], np.full((3, 2), 1 / 6))

    def test_concat_slice_roundtrip_gradients(self):
        rng = np.random.default_rng(5)
        a = ad.parameter(rng.normal(size=(2, 3)))
        b = ad.parameter(rng.normal(size=(2, 3)))

        def f():
            joined = ad.concat([a, b], axis=1)
            return ad.mean(ad.mul(joined[:, 1:4], joined[:, 2:5]))

        assert ad.finite_diff_check(f, {"a": a, "b": b}) < 1e-8

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ad.constant([np.nan, 1.0])

    def test_shared_subexpression_gradient(self):
        # x used twice: gradient contributions must accumulate once each
        x = ad.parameter(np.array([[2.0]]))
        y = ad.mean(ad.mul(x, x))
        grads = y.backward()
        np.testing.assert_allclose(grads[x], [[4.0]])


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        state = ad.AdamState(lr=1e-2)
        before = p.data.copy()
        for _ in range(3):
            ad.adam_step({"p": p}, {"p": np.zeros(2)}, state)
        np.testing.assert_array_equal(p.data, before)
        np.testing.assert_array_equal(state.m["p"], np.zeros(2))

    def test_first_step_closed_form(self):
        # with m_hat = g and v_hat = g^2 the first update is
        # lr * g / (|g| + eps), i.e. almost exactly lr in magnitude
        g = 0.37
        p = ad.parameter(np.array([1.0]))
        state = ad.AdamState(lr=1e-4)
        ad.adam_step({"p": p}, {"p": np.array([g])}, state)
        expected = 1.0 - 1e-4 * g / (abs(g) + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_two_steps_match_unrolled_recurrence(self):
        g = np.array([0.5])
        p = ad.parameter(np.array([2.0]))
        state = ad.AdamState(lr=1e-3)
        ad.adam_step({"p": p}, {"p": g}, state)
        ad.adam_step({"p": p}, {"p": g}, state)

        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-3
        m = v = 0.0
        x = 2.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g[0]
            v = b2 * v + (1 - b2) * g[0] ** 2
            x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        assert p.data[0] == pytest.approx(x, rel=1e-14)

    def test_nan_gradient_rejected(self):
        p = ad.parameter(np.array([1.0]))
        state = ad.AdamState()
        with pytest.raises(ValueError, match="non-finite gradient"):
            ad.adam_step({"p": p}, {"p": np.array([np.nan])}, state)
        assert state.t == 0 and p.data[0] == 1.0


class TestFiniteDiff:
    def test_quadratic_exact(self):
        x = ad.parameter(np.array([[3.0]]))

        def f():
            return ad.mean(ad.mul(x, x))

        assert ad.finite_diff_check(f, {"x": x}) < 1e-10

    def test_cross_entropy_through_linear_layer(self):
        rng = np.random.default_rng(6)
        w = ad.parameter(rng.normal(size=(4, 2)))
        b = ad.parameter(rng.normal(size=(2,)))
        feats = ad.constant(rng.normal(size=(3, 4)))

        def f():
            return ad.cross_entropy(ad.add(ad.matmul(feats, w), b), [0, 1, 0])

        assert ad.finite_diff_check(f, {"w": w, "b": b}) < 1e-6

    def test_step_size_bounds(self):
        x = ad.parameter(np.array([1.0]))
        with pytest.raises(ValueError, match="step h"):
            ad.finite_diff_check(lambda: ad.mean(x), {"x": x}, h=1e-2)
