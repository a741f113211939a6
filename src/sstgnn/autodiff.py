"""Minimal reverse-mode autodiff over dense float64 arrays.

A deliberately small, closed op set: matmul, block_matmul (a constant
block-diagonal matrix: the spectral pool w^T x applies it to one column
w and never forms the filtered signal), add, mul (both broadcasting),
scale, concat, basic slicing, reshape, leaky_relu, mean, cross_entropy,
plus frame_attention, one fused op for graph attention over a clip's
frame layout. Each op records a backward rule on a per-forward tape;
`backward()` walks the tape once in reverse topological order and
returns the gradient of every leaf parameter, the dict the optimizer
consumes. A minibatch is one tape: its clips share one graph, so the
batch mean of the loss is the only gradient reduction.

Float64 throughout: the finite-difference checker needs the headroom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "constant",
    "parameter",
    "as_tensor",
    "add",
    "mul",
    "scale",
    "matmul",
    "block_matmul",
    "concat",
    "reshape",
    "leaky_relu",
    "frame_attention",
    "mean",
    "cross_entropy",
    "AdamState",
    "adam_step",
    "finite_diff_check",
]


class Tensor:
    """A value plus its tape node: data and parent links.

    Tensors are immutable after construction (the optimizer mutates
    parameter `.data` in place between tapes, never during one).
    """

    __slots__ = ("data", "requires_grad", "parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=()):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor holds non-finite values (NaN/Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.parents = tuple(parents)
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return _getitem(self, key)

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Reverse-mode pass from this scalar tensor.

        Returns a dict mapping every reachable leaf with requires_grad to
        its gradient array.
        """
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar tensor")
        order = _toposort(self)
        acc = {id(self): np.ones_like(self.data)}
        leaves = {}
        for node in order:  # reverse topological: outputs before inputs
            g = acc.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                node._backward(g, acc)
            elif node.requires_grad:
                leaves[node] = g
        return leaves


def _toposort(root):
    """Iterative DFS postorder, reversed: each node visited exactly once."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    order.reverse()
    return order


def _accum(acc, node, g):
    key = id(node)
    if key in acc:
        acc[key] = acc[key] + g
    else:
        acc[key] = g


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad,
                 parents=(a, b))

    def _backward(g, acc):
        if a.requires_grad:
            _accum(acc, a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(acc, b, _unbroadcast(g, b.data.shape))

    out._backward = _backward
    return out


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product; either side may be a constant."""
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad,
                 parents=(a, b))

    def _backward(g, acc):
        if a.requires_grad:
            _accum(acc, a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(acc, b, _unbroadcast(g * a.data, b.data.shape))

    out._backward = _backward
    return out


def scale(t, s: float) -> Tensor:
    t = as_tensor(t)
    s = float(s)
    out = Tensor(t.data * s, requires_grad=t.requires_grad, parents=(t,))

    def _backward(g, acc):
        if t.requires_grad:
            _accum(acc, t, g * s)

    out._backward = _backward
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad,
                 parents=(a, b))

    def _backward(g, acc):
        if a.requires_grad:
            _accum(acc, a, g @ b.data.T)
        if b.requires_grad:
            _accum(acc, b, a.data.T @ g)

    out._backward = _backward
    return out


def concat(parts, axis=0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis),
                 requires_grad=any(p.requires_grad for p in parts),
                 parents=tuple(parts))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def _backward(g, acc):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(acc, p, g[tuple(idx)])

    out._backward = _backward
    return out


_BASIC_KEYS = (int, np.integer, slice, type(Ellipsis), type(None))


def _getitem(t, key) -> Tensor:
    """Basic slicing only (array and bool keys raise), so no element is
    read twice and the backward can write its gradient in place."""
    t = as_tensor(t)
    if any(isinstance(k, (bool, np.bool_)) or not isinstance(k, _BASIC_KEYS)
           for k in (key if isinstance(key, tuple) else (key,))):
        raise ValueError(f"Tensor indexing supports basic slicing only, got {key!r}")
    out = Tensor(t.data[key], requires_grad=t.requires_grad, parents=(t,))

    def _backward(g, acc):
        if t.requires_grad:
            gi = np.zeros_like(t.data)
            gi[key] = g
            _accum(acc, t, gi)

    out._backward = _backward
    return out


def reshape(t, shape) -> Tensor:
    t = as_tensor(t)
    out = Tensor(t.data.reshape(shape), requires_grad=t.requires_grad, parents=(t,))

    def _backward(g, acc):
        if t.requires_grad:
            _accum(acc, t, g.reshape(t.data.shape))

    out._backward = _backward
    return out


def leaky_relu(t, slope=0.2) -> Tensor:
    t = as_tensor(t)
    gate = np.where(t.data > 0, 1.0, slope)
    out = Tensor(t.data * gate, requires_grad=t.requires_grad, parents=(t,))

    def _backward(g, acc):
        if t.requires_grad:
            _accum(acc, t, g * gate)

    out._backward = _backward
    return out


def block_matmul(blocks, x) -> Tensor:
    """Constant block-diagonal matrix times ``x``, one block at a time.

    ``blocks`` is a (B, n, k) array, the diagonal blocks of a (B n, B k)
    matrix; ``x`` is (B k, d). Only ``x`` gets a gradient.
    """
    x = as_tensor(x)
    b, n, k = blocks.shape
    if x.data.shape[0] != b * k:
        raise ValueError(f"block_matmul: {blocks.shape} blocks cannot "
                         f"multiply {x.data.shape[0]} rows")
    d = x.data.shape[1]
    out = Tensor((blocks @ x.data.reshape(b, k, d)).reshape(b * n, d),
                 requires_grad=x.requires_grad, parents=(x,))

    def _backward(g, acc):
        if x.requires_grad:
            _accum(acc, x, (blocks.swapaxes(1, 2) @ g.reshape(b, n, d))
                   .reshape(b * k, d))

    out._backward = _backward
    return out


def frame_attention(h, attention, support, sign, slope=0.2) -> Tensor:
    """Signed attention aggregation over a (T, N, N + 2) frame layout.

    ``h`` is (M, d) with M = T * N, ``attention`` is (2d,). Row (t, i)
    of ``support`` / ``sign`` covers frame t's nodes, then the twins
    (t - 1, i) and (t + 1, i). Scores e = LeakyReLU(a_self . h_i +
    a_peer . h_j), softmax over each row's support, times the sign;
    the output row is the signed, attention-weighted sum of neighbour
    rows of h. Every row must have support. One tape node with a
    hand-written backward replaces the scores, softmax, sign and
    aggregation ops a dense composition would record.
    """
    h, attention = as_tensor(h), as_tensor(attention)
    frames, n, _ = support.shape
    m, d = h.data.shape
    if m != frames * n or attention.data.shape != (2 * d,):
        raise ValueError(f"frame_attention: h {h.data.shape} and attention "
                         f"{attention.data.shape} do not fit a "
                         f"{support.shape} layout")
    a_self, a_peer = attention.data[:d, None], attention.data[d:, None]
    hf = h.data.reshape(frames, n, d)
    s_self = (h.data @ a_self).reshape(frames, n, 1)
    s_peer = (h.data @ a_peer).reshape(frames, n)
    raw = np.zeros(support.shape)
    raw[:, :, :n] = s_peer[:, None, :]
    raw[1:, :, n] = s_peer[:-1]
    raw[:-1, :, n + 1] = s_peer[1:]
    raw += s_self
    gate = np.where(raw > 0, 1.0, slope)
    scores = np.where(support, raw * gate, -np.inf)
    expd = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha = expd / expd.sum(axis=-1, keepdims=True)
    weights = alpha * sign
    out = weights[:, :, :n] @ hf
    out[1:] += weights[1:, :, n, None] * hf[:-1]
    out[:-1] += weights[:-1, :, n + 1, None] * hf[1:]
    out = Tensor(out.reshape(m, d),
                 requires_grad=h.requires_grad or attention.requires_grad,
                 parents=(h, attention))

    def _backward(g, acc):
        gf = g.reshape(frames, n, d)
        dw = np.zeros(support.shape)
        dw[:, :, :n] = gf @ hf.transpose(0, 2, 1)
        dw[1:, :, n] = (gf[1:] * hf[:-1]).sum(axis=-1)
        dw[:-1, :, n + 1] = (gf[:-1] * hf[1:]).sum(axis=-1)
        dalpha = dw * sign
        de = alpha * (dalpha - (dalpha * alpha).sum(axis=-1, keepdims=True))
        de *= gate
        ds_self = de.sum(axis=-1)
        ds_peer = de[:, :, :n].sum(axis=1)
        ds_peer[:-1] += de[1:, :, n]
        ds_peer[1:] += de[:-1, :, n + 1]
        ds_self, ds_peer = ds_self.reshape(m, 1), ds_peer.reshape(m, 1)
        if h.requires_grad:
            dh = weights[:, :, :n].transpose(0, 2, 1) @ gf
            dh[:-1] += weights[1:, :, n, None] * gf[1:]
            dh[1:] += weights[:-1, :, n + 1, None] * gf[:-1]
            dh = dh.reshape(m, d) + ds_self @ a_self.T + ds_peer @ a_peer.T
            _accum(acc, h, dh)
        if attention.requires_grad:
            _accum(acc, attention, np.concatenate(
                [(h.data.T @ ds_self)[:, 0], (h.data.T @ ds_peer)[:, 0]]))

    out._backward = _backward
    return out


def mean(t, axis=None, keepdims=False) -> Tensor:
    t = as_tensor(t)
    out_data = t.data.mean(axis=axis, keepdims=keepdims)
    out = Tensor(out_data, requires_grad=t.requires_grad, parents=(t,))
    count = t.data.size if axis is None else t.data.shape[axis]

    def _backward(g, acc):
        if t.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(acc, t, np.broadcast_to(g, t.data.shape) / count)

    out._backward = _backward
    return out


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-softmax of the true class over a batch.

    ``logits`` is (B, 2); ``labels`` an int sequence of 0/1. The gradient
    is (softmax - onehot) / B.
    """
    logits = as_tensor(logits)
    y = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2 or logits.data.shape[1] != 2:
        raise ValueError("cross_entropy expects (B, 2) logits")
    if y.shape != (logits.data.shape[0],):
        raise ValueError("labels length must match the batch")
    if np.any((y != 0) & (y != 1)):
        raise ValueError("labels must be 0 or 1")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    losses = lse - z[np.arange(len(y)), y]
    out = Tensor(losses.mean(), requires_grad=logits.requires_grad, parents=(logits,))

    def _backward(g, acc):
        if logits.requires_grad:
            soft = np.exp(z - zmax)
            soft /= soft.sum(axis=1, keepdims=True)
            soft[np.arange(len(y)), y] -= 1.0
            _accum(acc, logits, float(g) * soft / len(y))

    out._backward = _backward
    return out


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Plain (non-differentiable) row softmax for inference-side scoring."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update with bias correction, in place on ``params`` data.

    ``params`` maps name -> Tensor, ``grads`` Tensor -> array as
    `Tensor.backward` returns it (a parameter it lacks has zero gradient).
    Any NaN/Inf gradient rejects the whole step before touching state.
    """
    for name, p in params.items():
        if p in grads and not np.all(np.isfinite(grads[p])):
            raise ValueError(f"non-finite gradient for parameter {name!r}; step rejected")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads.get(p)
        if g is None:
            g = np.zeros_like(p.data)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


# ---------------------------------------------------------------------------
# Gradient verification


# the tolerance A4 and `sstgnn gradcheck` apply, and the rounding, in
# ulps of the loss, that a central difference is assumed to carry (the
# toy model's differences sit within about 2 ulps of its gradients)
FD_TOLERANCE = 1e-4
FD_ROUNDING_ULPS = 4


def finite_diff_check(f, params, h=1e-5):
    """Max relative error between reverse-mode and central-difference grads.

    ``f`` is a deterministic zero-argument callable returning a scalar
    Tensor computed from ``params`` (dict name -> Tensor). Relative error
    per coordinate is |a - b| / max(|a|, |b|, floor). The floor is the
    smallest gradient the difference resolves to FD_TOLERANCE: the probed
    losses f+ and f- carry rounding, so (f+ - f-) / 2h is uncertain by
    about FD_ROUNDING_ULPS * ulp(max(|f+|, |f-|)) / 2h, and the floor is
    that over FD_TOLERANCE. Smaller gradients are compared on that
    absolute scale.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError("step h must lie in [1e-7, 1e-3] for float64")
    out = f()
    if not np.all(np.isfinite(out.data)):
        raise ValueError("objective returned a non-finite value")
    grads = out.backward()
    by_name = {name: grads.get(p, np.zeros_like(p.data)) for name, p in params.items()}
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = by_name[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            floor = (FD_ROUNDING_ULPS * np.spacing(max(abs(fp), abs(fm)))
                     / (2 * h) / FD_TOLERANCE)
            a, b = gflat[i], fd
            err = abs(a - b) / max(abs(a), abs(b), floor)
            if err > worst:
                worst = err
    return worst
