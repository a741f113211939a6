"""Tensor core: op semantics, backward rules, Adam, FD checker."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstgnn import autodiff as ad

from layouts import dense_from_layout, whole_frames


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

    def test_stacked_left_operand_is_each_product_alone(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 1, 6)), ad.constant(rng.normal(size=(6, 3)))
        out = ad.matmul(ad.constant(a), b)
        assert out.shape == (4, 1, 3)
        for k in range(4):
            np.testing.assert_array_equal(out.data[k],
                                          ad.matmul(ad.constant(a[k]), b).data)

    @pytest.mark.parametrize("left, right, message", [
        ((2, 1, 3), (2, 3), "mismatch"),
        ((2, 2, 1, 3), (3, 2), "2-D or stacked 3-D left operand"),
        ((3,), (3, 2), "2-D or stacked 3-D left operand"),
        ((2, 1, 3), (3, 3, 2), "equal stack"),
    ])
    def test_stacked_shape_errors(self, left, right, message):
        with pytest.raises(ValueError, match=message):
            ad.matmul(ad.constant(np.ones(left)), ad.constant(np.ones(right)))

    def test_stacked_right_operand_is_each_product_alone(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
        out = ad.matmul(ad.constant(a), ad.constant(b))
        assert out.shape == (3, 2, 5)
        for k in range(3):
            np.testing.assert_array_equal(
                out.data[k], ad.matmul(ad.constant(a[k]), ad.constant(b[k])).data)

    def test_stacked_right_operand_gradients(self):
        # a constant stack of blocks times a parameter stack: the
        # gradient is each block's transpose times its probe block
        rng = np.random.default_rng(4)
        blocks = ad.constant(rng.normal(size=(2, 3, 3)))
        x = ad.parameter(rng.normal(size=(2, 3, 2)))
        w = ad.constant(rng.normal(size=(2, 3, 2)))

        def f():
            return ad.mean(ad.mul(ad.matmul(blocks, x), w))

        grads = f().backward()
        np.testing.assert_allclose(
            grads[x], blocks.data.swapaxes(1, 2) @ w.data / 12, rtol=1e-14)
        assert ad.finite_diff_check(f, {"x": x}) < 1e-8

    def test_stacked_left_operand_gradients(self):
        rng = np.random.default_rng(4)
        a = ad.parameter(rng.normal(size=(3, 2, 4)))
        b = ad.parameter(rng.normal(size=(4, 2)))
        probe = rng.normal(size=(3, 2, 2))

        def f():
            return ad.mean(ad.mul(ad.matmul(a, b), probe))

        assert ad.finite_diff_check(f, {"a": a, "b": b}) < 1e-7

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
    out = ad.frame_attention(ad.constant(h), ad.constant(a), whole_frames(sign))
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
        # `whole_frames` would write the missing loop
        sign = one_frame([[1, 1], [0, 0]]).astype(np.int8)[:, None, :, None]
        with pytest.raises(ValueError, match="has no self-loop"):
            ad.frame_attention(ad.constant(np.ones((2, 2))), ad.constant(np.ones(4)),
                               [ad.BlockLayout(None, sign)])

    def test_support_far_below_its_row(self):
        # node 2 scores 2000 above nodes 0 and 1 but lies off row 0's
        # support: shifted by the whole row's max, row 0's exps would all
        # underflow, and it still splits evenly over its own two cells
        alpha = attention_weights(one_frame([[1, 1, 0], [1, 1, 1], [0, 1, 1]]),
                                  [0.0, 0.0, 2000.0])
        np.testing.assert_array_equal(alpha[0], [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(alpha[1:, 2], [1.0, 1.0])

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
        dense = dense_from_layout(support)
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
                ad.frame_attention(h, a, whole_frames(sign)), w))

        assert ad.finite_diff_check(f, {"h": h, "a": a}) < 1e-7


def signed(rng, support):
    return np.where(rng.random(support.shape) < 0.4, -1.0, 1.0) * support


class TestAttentionPasses:
    """P passes in one `frame_attention` call over their signs stacked:
    one softmax per pass, the outputs side by side."""

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
        both = ad.frame_attention(h, a, whole_frames(*sign))
        single = [ad.frame_attention(h, a, whole_frames(g)) for g in sign]
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
                h, a, whole_frames(*sign)), w))

        grads = f().backward()
        assert min(np.abs(grads[t]).min() for t in (h, a)) > 1e-6
        assert ad.finite_diff_check(f, {"h": h, "a": a}) < 1e-7

    def test_empty_row_names_pass_frame_and_node(self):
        rng = np.random.default_rng(6)
        support = [random_layout(rng, frames=3, n=4) for _ in range(2)]
        support[1][1, 2] = False
        # `whole_frames` would write the missing loop
        sign = np.stack(support, axis=2)[:, None].astype(np.int8)
        with pytest.raises(ValueError, match="pass 1, frame 1, node 2 has no self-loop"):
            ad.frame_attention(ad.constant(np.ones((12, 2))), ad.constant(np.ones(4)),
                               [ad.BlockLayout(None, sign, (0, 1))])

    def test_layout_without_pass_axis_rejected(self):
        # one pass's signs where the layout stacks two
        sign = random_layout(np.random.default_rng(7), frames=3, n=4).astype(float)
        (layout,) = whole_frames(sign)
        with pytest.raises(ValueError, match="do not fit"):
            ad.frame_attention(ad.constant(np.ones((12, 2))), ad.constant(np.ones(4)),
                               [layout._replace(passes=(0, 1))])


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
        # a Tensor has no slicing, so columns are picked by a constant
        # selector product, as temporal_concat and the GAT helpers do
        rng = np.random.default_rng(5)
        a = ad.parameter(rng.normal(size=(2, 3)))
        b = ad.parameter(rng.normal(size=(2, 3)))
        eye = np.eye(6)

        def f():
            joined = ad.concat([a, b], axis=1)
            left = ad.matmul(joined, ad.constant(eye[:, 1:4]))
            right = ad.matmul(joined, ad.constant(eye[:, 2:5]))
            return ad.mean(ad.mul(left, right))

        assert ad.finite_diff_check(f, {"a": a, "b": b}) < 1e-8

    @pytest.mark.parametrize("key", [
        [0, 0, 2], np.array([0, 0, 2]), np.array([True, False, True]),
        (slice(None), [0, 1]), True], ids=["list", "array", "mask", "tuple", "bool"])
    def test_advanced_index_rejected(self, key):
        # a repeated index must not drop gradient: x[[0, 0, 2]] once gave
        # x[0] a gradient of 1/3 from mean() instead of 2/3; a Tensor now
        # cannot be subscripted at all, so no index can reach the tape
        x = ad.parameter(np.arange(6.0).reshape(3, 2))
        with pytest.raises(TypeError, match="not subscriptable"):
            x[key]

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


def _attention_sign():
    """Two passes over 2 frames of 3 nodes: all +1, and random signs."""
    signs = np.ones((2, 3, 5)), np.random.default_rng(9).integers(-1, 2, (2, 3, 5))
    for sign in signs:
        sign[0, :, 3] = sign[-1, :, 4] = 0
    return whole_frames(*signs)


# each op the tape knows, as a function of its tensor operands and their shapes
OPS = {
    "add": (ad.add, [(3, 2), (2,)]),
    "mul": (ad.mul, [(3, 2), (3, 2)]),
    "matmul": (ad.matmul, [(2, 3, 4), (4, 2)]),
    "batched_matmul": (ad.matmul, [(2, 3, 4), (2, 4, 2)]),
    "concat": (lambda a, b: ad.concat([a, b], axis=1), [(3, 2), (3, 1)]),
    "reshape": (lambda a: ad.reshape(a, (6, 2)), [(3, 4)]),
    "leaky_relu": (ad.leaky_relu, [(3, 4)]),
    "frame_attention": (lambda h, att: ad.frame_attention(h, att, _attention_sign()),
                        [(6, 2), (4,)]),
    "mean": (lambda a: ad.mean(a, axis=0), [(3, 4)]),
    "cross_entropy": (lambda z: ad.cross_entropy(z, [0, 1, 1]), [(3, 2)]),
}


def operands(name, trainable=None):
    """Random operands of op ``name``; the one at index ``trainable``, if
    any, requires a gradient."""
    rng = np.random.default_rng(sorted(OPS).index(name))
    return [ad.parameter(rng.normal(size=shape)) if k == trainable
            else ad.constant(rng.normal(size=shape))
            for k, shape in enumerate(OPS[name][1])]


class TestTapeOnlyWhereGradientFlows:
    """An op records its parents and backward rule only when its output
    requires a gradient: a forward over constants keeps nothing alive."""

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_over_constants_records_nothing(self, name):
        out = OPS[name][0](*operands(name))
        assert not out.requires_grad
        assert out.parents == () and out._backward is None

    @pytest.mark.parametrize("name, trainable", [
        (name, k) for name in sorted(OPS) for k in range(len(OPS[name][1]))])
    def test_one_parameter_operand_records_every_parent(self, name, trainable):
        args = operands(name, trainable)
        out = OPS[name][0](*args)
        assert out.requires_grad and out._backward is not None
        assert len(out.parents) == len(args)
        assert all(p is a for p, a in zip(out.parents, args))
        probe = np.random.default_rng(1).normal(size=out.shape)

        def f():
            return ad.mean(ad.mul(OPS[name][0](*args), probe))

        grads = f().backward()
        assert list(grads) == [args[trainable]]
        assert ad.finite_diff_check(f, {"x": args[trainable]}) < 1e-6

    def test_chain_over_constants_frees_its_intermediates(self):
        x = ad.constant(np.random.default_rng(2).normal(size=(4, 4)))
        mid = ad.leaky_relu(ad.matmul(x, x))
        alive = weakref.ref(mid.data)
        out = ad.mean(mid)
        del mid
        assert alive() is None and out.parents == ()
