"""Tensor core: op semantics, backward rules, Adam, FD checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstgnn import autodiff as ad
from sstgnn import graphs

from layouts import dense_columns


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


def attention_weights(support, peer_scores, sign=None):
    """The (M, M) weights `frame_attention` gives over a (T, N, N + 2)
    layout when the score of every edge into node j is
    LeakyReLU(peer_scores[j]), which is peer_scores[j] where it is
    positive. Column 0 of h carries the scores; one-hot columns, which
    the scores ignore, read row i's weight on node j."""
    frames, n, _ = support.shape
    m = frames * n
    sign = support.astype(float) if sign is None else sign
    h = np.hstack([np.asarray(peer_scores, dtype=float)[:, None], np.eye(m)])
    a = np.zeros(2 * (m + 1))
    a[m + 1] = 1.0
    out = ad.frame_attention(ad.constant(h), ad.constant(a), sign, dense_columns(n))
    return out.data[:, 1:]


def one_frame(support):
    """A single frame's (N, N) support as a layout with empty twins."""
    support = np.asarray(support, dtype=bool)
    return np.pad(support, ((0, 0), (0, 2)))[None]


def random_layout(rng, frames=3, n=4, density=0.6):
    support = rng.random((frames, n, n + 2)) < density
    support[:, np.arange(n), np.arange(n)] = True  # keep rows non-empty
    support[0, :, n] = support[-1, :, n + 1] = False
    return support


class TestMaskedSoftmax:
    """The masked row softmax inside `autodiff.frame_attention`, the
    attention the model runs; weights read through `attention_weights`."""

    def test_symmetric_row(self):
        alpha = attention_weights(one_frame(np.ones((2, 2))), [1.0, 1.0])
        np.testing.assert_allclose(alpha, np.full((2, 2), 0.5), atol=1e-15)

    def test_single_neighbor(self):
        alpha = attention_weights(one_frame([[1, 0], [1, 1]]), [3.0, -2.0])
        np.testing.assert_array_equal(alpha[0], [1.0, 0.0])

    def test_partial_support(self):
        alpha = attention_weights(one_frame([[1, 0, 1], [1, 1, 1], [1, 1, 1]]),
                                  [1.0, 2.0, 3.0])
        z = math.exp(1.0) + math.exp(3.0)
        np.testing.assert_allclose(
            alpha[0], [math.exp(1.0) / z, 0.0, math.exp(3.0) / z], rtol=1e-14)

    def test_empty_row_rejected(self):
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            attention_weights(one_frame([[1, 1], [0, 0]]), [1.0, 1.0])

    def test_stability_at_large_scores(self):
        alpha = attention_weights(one_frame(np.ones((2, 2))), [1000.0, 999.0])
        assert np.all(np.isfinite(alpha))
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        support = random_layout(rng)
        alpha = attention_weights(support, rng.normal(size=12))
        dense = graphs.dense_from_layout(support)
        np.testing.assert_allclose(alpha.sum(axis=1), np.ones(12), atol=1e-12)
        assert np.all(alpha[~dense] == 0.0)

    def test_backward_fd(self):
        rng = np.random.default_rng(2)
        support = random_layout(rng, frames=2, n=3)
        sign = np.where(rng.random(support.shape) < 0.3, -1.0, 1.0) * support
        h = ad.parameter(rng.normal(size=(6, 3)))
        a = ad.parameter(rng.normal(size=6))
        w = ad.constant(rng.normal(size=(3, 1)))

        def f():
            return ad.mean(ad.matmul(
                ad.frame_attention(h, a, sign, dense_columns(3)), w))

        assert ad.finite_diff_check(f, {"h": h, "a": a}) < 1e-7


def signed(rng, support):
    return np.where(rng.random(support.shape) < 0.4, -1.0, 1.0) * support


class TestAttentionPasses:
    """P passes in one `frame_attention` call over their signs side by
    side: one softmax per pass, the outputs side by side."""

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_two_passes_equal_two_single_passes(self, seed):
        rng = np.random.default_rng(seed)
        frames, n, d = (int(rng.integers(2, 5)), int(rng.integers(1, 6)),
                        int(rng.integers(1, 5)))
        # a dense and a sparse pass, both with twin slots and -1 signs
        support = [random_layout(rng, frames, n, density)
                   for density in (0.8, 0.15)]
        sign = [signed(rng, s) for s in support]
        h = ad.parameter(rng.normal(size=(frames * n, d)) * 2.0)
        a = ad.parameter(rng.normal(size=2 * d))
        probe = ad.constant(rng.normal(size=(frames * n, 2 * d)))
        both = ad.frame_attention(h, a, np.concatenate(sign, axis=2),
                                  dense_columns(n, passes=2))
        single = [ad.frame_attention(h, a, g, dense_columns(n)) for g in sign]
        joined = np.hstack([out.data for out in single])
        assert both.data.tobytes() == joined.tobytes()
        fused = ad.mean(ad.mul(both, probe)).backward()
        apart = ad.mean(ad.mul(ad.concat(single, axis=1), probe)).backward()
        for t in (h, a):
            scale = max(1.0, np.abs(apart[t]).max())
            np.testing.assert_allclose(fused[t], apart[t], rtol=0,
                                       atol=1e-12 * scale)

    def test_two_pass_backward_fd(self):
        rng = np.random.default_rng(5)
        support = [random_layout(rng, frames=3, n=3, density=density)
                   for density in (0.7, 0.2)]
        sign = [signed(rng, s) for s in support]
        h = ad.parameter(rng.normal(size=(9, 3)) * 2.0)
        a = ad.parameter(rng.normal(size=6))
        w = ad.constant(rng.normal(size=(6, 1)))

        def f():
            return ad.mean(ad.matmul(ad.frame_attention(
                h, a, np.concatenate(sign, axis=2), dense_columns(3, passes=2)), w))

        grads = f().backward()
        assert min(np.abs(grads[t]).min() for t in (h, a)) > 1e-6
        assert ad.finite_diff_check(f, {"h": h, "a": a}) < 1e-7

    def test_empty_row_names_pass_frame_and_node(self):
        rng = np.random.default_rng(6)
        support = [random_layout(rng, frames=3, n=4) for _ in range(2)]
        support[1][1, 2] = False
        sign = np.concatenate(support, axis=2).astype(float)
        with pytest.raises(ValueError, match="pass 1, frame 1, node 2 has no support"):
            ad.frame_attention(ad.constant(np.ones((12, 2))),
                               ad.constant(np.ones(4)), sign,
                               dense_columns(4, passes=2))

    def test_layout_without_pass_axis_rejected(self):
        # one pass's layout where the table holds two
        support = random_layout(np.random.default_rng(7), frames=3, n=4)
        with pytest.raises(ValueError, match="do not fit"):
            ad.frame_attention(ad.constant(np.ones((12, 2))),
                               ad.constant(np.ones(4)), support.astype(float),
                               dense_columns(4, passes=2))


def dense_blocks(blocks):
    b, n, k = blocks.shape
    out = np.zeros((b * n, b * k))
    for i in range(b):
        out[i * n:(i + 1) * n, i * k:(i + 1) * k] = blocks[i]
    return out


class TestBlockMatmul:
    def test_matches_dense_block_diagonal(self):
        rng = np.random.default_rng(3)
        blocks, x = rng.normal(size=(3, 2, 4)), rng.normal(size=(12, 5))
        out = ad.block_matmul(blocks, ad.constant(x))
        assert out.shape == (6, 5)
        np.testing.assert_allclose(out.data, dense_blocks(blocks) @ x,
                                   rtol=1e-14, atol=1e-14)

    def test_backward_fd(self):
        rng = np.random.default_rng(4)
        blocks = rng.normal(size=(2, 3, 3))
        x = ad.parameter(rng.normal(size=(6, 2)))
        w = ad.constant(rng.normal(size=(6, 2)))

        def f():
            return ad.mean(ad.mul(ad.block_matmul(blocks, x), w))

        grads = f().backward()
        np.testing.assert_allclose(
            grads[x], dense_blocks(blocks).T @ w.data / 12, rtol=1e-14)
        assert ad.finite_diff_check(f, {"x": x}) < 1e-8

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="block_matmul"):
            ad.block_matmul(np.ones((2, 3, 3)), ad.constant(np.ones((5, 1))))


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
        out = ad.leaky_relu(ad.constant([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [-0.2, 0.0, 2.0])

    @pytest.mark.parametrize("slope", [0.2, 0.0, -0.5, 1.0])
    def test_leaky_relu_matches_gate_product_bitwise(self, slope, monkeypatch):
        # the forward is max(x, slope * x), which needs a slope of at most
        # 1; for any such LEAKY_SLOPE its values and gradient gate equal
        # x * where(x > 0, 1, slope) bit for bit, signed zeros included
        assert ad.LEAKY_SLOPE <= 1
        monkeypatch.setattr(ad, "LEAKY_SLOPE", slope)
        rng = np.random.default_rng(3)
        x_value = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(
            -300, 300, size=40), [0.0, -0.0, 1e-310, -1e-310]])
        gate = np.where(x_value > 0, 1.0, slope)
        x = ad.parameter(x_value.copy())
        out = ad.leaky_relu(x)
        assert out.data.tobytes() == (x_value * gate).tobytes()
        weights = rng.normal(size=x_value.shape)
        # the upstream gradient of a dot product is ``weights`` exactly
        loss = ad.matmul(ad.reshape(out, (1, -1)), ad.constant(weights[:, None]))
        grad = loss.backward()[x]
        assert grad.tobytes() == (weights * gate).tobytes()

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

    @pytest.mark.parametrize("key", [
        [0, 0, 2], np.array([0, 0, 2]), np.array([True, False, True]),
        (slice(None), [0, 1]), True], ids=["list", "array", "mask", "tuple", "bool"])
    def test_advanced_index_rejected(self, key):
        # a repeated index must not drop gradient: x[[0, 0, 2]] once gave
        # x[0] a gradient of 1/3 from mean() instead of 2/3
        x = ad.parameter(np.arange(6.0).reshape(3, 2))
        with pytest.raises(ValueError, match="basic slicing only"):
            x[key]

    def test_basic_slices_keep_gradients(self):
        x = ad.parameter(np.arange(6.0).reshape(3, 2))
        for key in (1, np.int64(-1), slice(0, 2), (slice(None), 1),
                    (Ellipsis, None), (1, slice(None, None, -1))):
            want = np.zeros((3, 2))
            want[key] = 1.0 / np.size(x.data[key])
            np.testing.assert_array_equal(ad.mean(x[key]).backward()[x], want)

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
            ad.adam_step({"p": p}, {p: np.zeros(2)}, state)
        np.testing.assert_array_equal(p.data, before)
        np.testing.assert_array_equal(state.m["p"], np.zeros(2))

    def test_first_step_closed_form(self):
        # with m_hat = g and v_hat = g^2 the first update is
        # lr * g / (|g| + eps), i.e. almost exactly lr in magnitude
        g = 0.37
        p = ad.parameter(np.array([1.0]))
        state = ad.AdamState(lr=1e-4)
        ad.adam_step({"p": p}, {p: np.array([g])}, state)
        expected = 1.0 - 1e-4 * g / (abs(g) + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_two_steps_match_unrolled_recurrence(self):
        g = np.array([0.5])
        p = ad.parameter(np.array([2.0]))
        state = ad.AdamState(lr=1e-3)
        ad.adam_step({"p": p}, {p: g}, state)
        ad.adam_step({"p": p}, {p: g}, state)

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
            ad.adam_step({"p": p}, {p: np.array([np.nan])}, state)
        assert state.t == 0 and p.data[0] == 1.0

    def test_overflowing_update_rejected_whole(self):
        # both gradients are finite, but g * g overflows v for q; p,
        # listed first, must not move either
        p = ad.parameter(np.array([1.0]))
        q = ad.parameter(np.array([2.0]))
        state = ad.AdamState()
        with pytest.raises(ValueError, match="parameter 'q'"):
            ad.adam_step({"p": p, "q": q},
                         {p: np.array([0.5]), q: np.array([1e300])}, state)
        assert state.t == 0 and state.m == {} and state.v == {}
        assert p.data[0] == 1.0 and q.data[0] == 2.0


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

    def test_one_percent_error_above_the_floor_fails(self):
        h = 1e-5
        x = ad.parameter(np.full(8, 0.5))
        scales = np.array([1.0, 1e-2, 1e-4, 1e-6, 0.0, 0.0, 0.0, 0.0])
        loss = float(np.mean(scales * 0.25))
        floor = (ad.FD_ROUNDING_ULPS * np.spacing(loss) / (2 * h)
                 / ad.FD_TOLERANCE)
        # gradients s / 8 (x = 0.5) just above and below the floor
        scales[4:] = 8 * floor * np.array([1.2, 3.0, 0.5, 1e-3])
        grads = scales / 8

        def check(wrong):
            def f():
                y = ad.Tensor(x.data, requires_grad=True, parents=(x,))

                def _backward(g, acc):
                    g = g.copy()
                    if wrong is not None:
                        g[wrong] *= 1.01
                    ad._accum(acc, x, g)

                y._backward = _backward
                return ad.mean(ad.mul(ad.mul(y, y), ad.constant(scales)))
            return ad.finite_diff_check(f, {"x": x}, h=h)

        assert check(None) <= ad.FD_TOLERANCE
        above = np.nonzero(grads > floor)[0]
        assert len(above) == 6
        for k in above:
            assert check(k) > 50 * ad.FD_TOLERANCE, k

    def test_step_size_bounds(self):
        x = ad.parameter(np.array([1.0]))
        with pytest.raises(ValueError, match="step h"):
            ad.finite_diff_check(lambda: ad.mean(x), {"x": x}, h=1e-2)
