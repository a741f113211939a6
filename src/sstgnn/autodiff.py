"""Minimal reverse-mode autodiff over dense float64 arrays.

A deliberately small, closed op set: matmul (its left operand may be a
stack of matrices), block_matmul (a constant block-diagonal matrix: the
spectral pool w^T x applies it to one column w and never forms the
filtered signal), add, mul (both broadcasting),
concat, basic slicing, reshape, leaky_relu, mean, cross_entropy, plus
frame_attention, one fused op for every pass of graph attention over a
clip's joined signed slot table. Each op records a backward rule on a
per-forward tape; `backward()` walks the tape once in reverse
topological order and returns the gradient of every leaf parameter, the
dict the optimizer consumes. A minibatch is one tape: its clips share
one graph, so the batch mean of the loss is the only gradient
reduction.

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
    "matmul",
    "block_matmul",
    "concat",
    "reshape",
    "leaky_relu",
    "frame_attention",
    "SlotTable",
    "mean",
    "cross_entropy",
    "AdamState",
    "adam_step",
    "finite_diff_check",
]


class Tensor:
    """A value plus its tape node: data and parent links.

    Tensors are immutable after construction (the optimizer mutates
    parameter `.data` in place between tapes, never during one). Data is
    not scanned for NaN/Inf: `model.train_clips` checks each step's loss.
    """

    __slots__ = ("data", "requires_grad", "parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
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


def matmul(a, b) -> Tensor:
    """``a`` (n, k) or a stack (B, n, k) times ``b`` (k, m). A stack is B
    products of (n, k) by (k, m), each with the bits it has alone."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim not in (2, 3) or b.data.ndim != 2:
        raise ValueError(f"matmul expects a 2-D or stacked 3-D left operand and "
                         f"a 2-D right one, got {a.data.shape} @ {b.data.shape}")
    k, m = b.data.shape
    if a.data.shape[-1] != k:
        raise ValueError(
            f"matmul dimension mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad,
                 parents=(a, b))

    def _backward(g, acc):
        if a.requires_grad:
            _accum(acc, a, g @ b.data.T)
        if b.requires_grad:
            # every stacked product's share, summed by one product
            _accum(acc, b, a.data.reshape(-1, k).T @ g.reshape(-1, m))

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


# the negative-side slope of every LeakyReLU in the detector
LEAKY_SLOPE = 0.2


def leaky_relu(t) -> Tensor:
    t = as_tensor(t)
    # the max of x and LEAKY_SLOPE * x: the same values as x * gate, and
    # the gate is formed only for a backward pass
    value = np.multiply(t.data, LEAKY_SLOPE)
    np.maximum(t.data, value, out=value)
    out = Tensor(value, requires_grad=t.requires_grad, parents=(t,))

    def _backward(g, acc):
        if t.requires_grad:
            _accum(acc, t, g * np.where(t.data > 0, 1.0, LEAKY_SLOPE))

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


@dataclass(frozen=True, eq=False)
class SlotTable:
    """An (N, ΣK) column table of P attention passes, checked once.

    Slot k of row i names column ``index[i, k]`` of a frame's (N, N + 2)
    layout: a node of the frame, or the previous or next twin, N and
    N + 1. Pass p owns the slots from ``starts[p]`` to the next start; its
    columns in a row must be distinct, hold the row's node and end on the
    twins, ValueError otherwise. Holds read-only copies of ``index`` and
    of what `frame_attention` derives from it: each slot's pass
    ``segment`` (ΣK,), its place ``scatter`` (N ΣK,) in a frame's
    flattened (N, P, N + 2) layouts, its peer score's ``peer`` (N, ΣK) in
    a frame's (3N,) row of node, previous and next twin scores, and each
    row's self slot ``loops`` (N, P) in each pass.
    """

    index: np.ndarray
    starts: tuple = (0,)
    segment: np.ndarray = field(init=False, repr=False)
    scatter: np.ndarray = field(init=False, repr=False)
    peer: np.ndarray = field(init=False, repr=False)
    loops: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        table, starts = np.array(self.index), tuple(map(int, self.starts))
        n, width = table.shape if table.ndim == 2 else (0, 0)
        passes, ends = len(starts), np.array([*starts[1:], width])
        error = ValueError(f"slot table: index {table.dtype} {table.shape} from starts "
                           f"{starts} must hold passes of distinct columns per row, "
                           f"its own node and last the twins {n} and {n + 1}")
        if (not n or not starts or starts[0] != 0 or table.dtype.kind not in "iu"
                or min(ends - starts) < 3):
            raise error
        rows = np.arange(n)[:, None]
        segment = np.repeat(np.arange(passes), ends - starts)
        layout = table + segment * (n + 2)    # the column in a row's P layouts
        ordered = np.sort(layout, axis=1)
        loops = np.nonzero(table == rows)[1]
        # one own node per pass, and no twin but the last two slots of each
        if (table.min() < 0 or len(loops) != n * passes
                or np.count_nonzero(table >= n) != 2 * n * passes
                or (table[:, ends - 2] != n).any()
                or (table[:, ends - 1] != n + 1).any()
                or (ordered[:, 1:] == ordered[:, :-1]).any()):
            raise error
        object.__setattr__(self, "starts", starts)
        peer = np.where(table < n, table, (table - n + 1) * n + rows)
        for name, part in (("index", table), ("segment", segment), ("peer", peer),
                           ("scatter", (layout + rows * passes * (n + 2)).ravel()),
                           ("loops", loops.reshape(n, passes))):
            part.flags.writeable = False
            object.__setattr__(self, name, part)


# an additive mask: off-support slots sink below any finite score, so a
# row's max is over its support, and no -inf reaches np.exp
_OFF_SUPPORT = np.finfo(np.float64).max


def frame_attention(h, attention, sign, table: SlotTable) -> Tensor:
    """Signed attention aggregation of P passes over one slot table.

    ``h`` is (M, d) with M = T * N, ``attention`` is (2d,). Slot k of
    row (t, i) stands for column ``table.index[i, k]`` of row (t, i) of
    the (T, N, N + 2) frame layout: node ``table.index[i, k]`` of frame
    t, or the twin (t - 1, i) or (t + 1, i), columns N and N + 1. One
    `SlotTable` serves every frame and says which slots each pass owns.
    ``sign`` (T, N, ΣK) holds each slot's sign, -1, 0 or +1; a pass's
    support is where its sign is nonzero. The scores,
    e = LeakyReLU(a_self . h_i + a_peer . h_j), are gathered for every
    slot at once; each pass takes the softmax over its segment of a row's
    support (`reduceat`) and times its sign. The weights are scattered
    into one (T, N, P, N + 2) layout whose (T, N P, N + 2) view
    aggregates every pass in one matmul per frame, plus the twin rows.
    Returns (M, P d), row (t, i) holding the passes' outputs side by
    side. A row with no support raises ValueError.
    """
    h, attention, sign = as_tensor(h), as_tensor(attention), np.asarray(sign)
    starts, scatter = table.starts, table.scatter
    (n, width), passes = table.peer.shape, len(starts)
    m, d = h.data.shape
    frames = m // n
    if (sign.shape != (frames, n, width) or m != frames * n or not frames
            or attention.data.shape != (2 * d,)):
        raise ValueError(f"frame_attention: h {h.data.shape}, attention "
                         f"{attention.data.shape} and sign {sign.shape} do not "
                         f"fit a slot table of {n} nodes and {width} slots")
    a = attention.data.reshape(2, d)    # rows a_self and a_peer
    hf = h.data.reshape(frames, n, d)
    s_pair = (h.data @ a.T).reshape(frames, n, 2)
    # each frame's peer scores: its nodes', then the twins' in frames
    # t - 1 and t + 1; frames 0 and T - 1 lack one twin each
    peers = np.zeros((frames, 3, n))
    peers[:, 0], peers[1:, 1], peers[:-1, 2] = (s_pair[:, :, 1], s_pair[:-1, :, 1],
                                                s_pair[1:, :, 1])
    raw = np.take(peers.reshape(frames, -1), table.peer, axis=1)
    raw += s_pair[:, :, :1]
    support = sign != 0
    # LeakyReLU as the max of the raw scores and LEAKY_SLOPE times them:
    # the same values as raw * gate, with no branch. It keeps each
    # score's sign, so the gate the backward needs is read off the result
    alpha = np.multiply(raw, LEAKY_SLOPE)
    np.maximum(raw, alpha, out=alpha)
    gate = alpha > 0
    # the raw scores' buffer holds the masked scores, then each pass's
    # row max spread over its slots (mode "clip" takes it unbuffered)
    np.multiply(support, _OFF_SUPPORT, out=raw)
    raw -= _OFF_SUPPORT
    raw += alpha
    rowmax = np.maximum.reduceat(raw, starts, axis=-1)    # (T, N, P)
    if rowmax.min() < -_OFF_SUPPORT / 2:
        t, i, p = np.argwhere(rowmax < -_OFF_SUPPORT / 2)[0]
        raise ValueError(f"frame_attention: pass {p}, frame {t}, node {i} "
                         f"has no support, so its softmax is 0/0, non-finite")
    alpha -= np.take(rowmax, table.segment, axis=-1, out=raw, mode="clip")
    del raw    # freed before the layout is allocated
    # an off-support slot may score above its row's max; clipped to 0
    # and then zeroed, it neither overflows nor leaves the fast exp path
    np.minimum(alpha, 0.0, out=alpha)
    np.exp(alpha, out=alpha)
    alpha *= support
    total = np.add.reduceat(alpha, starts, axis=-1)
    # signed, scattered, then normalised in the layout: (e s) / total is
    # (e / total) s, bit for bit, as each sign is -1, 0 or +1
    alpha *= sign
    weights = np.zeros((frames, n, passes, n + 2))
    weights.reshape(frames, -1)[:, scatter] = alpha.reshape(frames, -1)
    del alpha
    weights /= total[..., None]
    # row (i, p) of the (T, N P, N + 2) view is node i's pass p: the
    # outputs come out in [pass 0 || pass 1 ...] order
    layout = weights.reshape(frames, n * passes, n + 2)[..., :n]
    out = layout @ hf
    side = out.reshape(frames, n, passes, d)
    side[1:] += weights[1:, :, :, n, None] * hf[:-1, :, None]
    side[:-1] += weights[:-1, :, :, n + 1, None] * hf[1:, :, None]
    out = Tensor(out.reshape(m, passes * d),
                 requires_grad=h.requires_grad or attention.requires_grad,
                 parents=(h, attention))

    def at_slots(layouts):
        return layouts.reshape(frames, -1)[:, scatter].reshape(sign.shape)

    def _backward(g, acc):
        gp = g.reshape(frames, n * passes, d)
        g4 = g.reshape(frames, n, passes, d)
        dweights = np.zeros(weights.shape)
        dweights.reshape(frames, n * passes, n + 2)[..., :n] = \
            gp @ hf.transpose(0, 2, 1)
        # einsum keeps the twin products' sums out of a temporary, at a
        # third of the time of multiply-then-sum
        dweights[1:, :, :, n] = np.einsum("tipd,tid->tip", g4[1:], hf[:-1])
        dweights[:-1, :, :, n + 1] = np.einsum("tipd,tid->tip", g4[:-1], hf[1:])
        soft = at_slots(weights) * sign    # the softmax
        dalpha = at_slots(dweights) * sign
        dalpha -= np.take(np.add.reduceat(dalpha * soft, starts, axis=-1),
                          table.segment, axis=-1)
        dalpha *= soft
        dalpha *= np.where(gate, 1.0, LEAKY_SLOPE)
        # every pass's slots in its own layout, then summed: the passes
        # share s_self and s_peer
        de = np.zeros(weights.shape)
        de.reshape(frames, -1)[:, scatter] = dalpha.reshape(frames, -1)
        de = de.sum(axis=2)
        ds = np.empty((frames, n, 2))    # of s_self and s_peer
        de.sum(axis=-1, out=ds[:, :, 0])
        de[:, :, :n].sum(axis=1, out=ds[:, :, 1])
        ds[:-1, :, 1] += de[1:, :, n]
        ds[1:, :, 1] += de[:-1, :, n + 1]
        ds = ds.reshape(m, 2)
        if h.requires_grad:
            dh = layout.transpose(0, 2, 1) @ gp
            dh[:-1] += np.einsum("tip,tipd->tid", weights[1:, :, :, n], g4[1:])
            dh[1:] += np.einsum("tip,tipd->tid", weights[:-1, :, :, n + 1], g4[:-1])
            dh = dh.reshape(m, d)
            dh += ds @ a
            _accum(acc, h, dh)
        if attention.requires_grad:
            _accum(acc, attention, (ds.T @ h.data).reshape(2 * d))

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


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    lr: float = 1e-4
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update with bias correction, in place on ``params`` data.

    ``params`` maps name -> Tensor, ``grads`` Tensor -> array as
    `Tensor.backward` returns it (a parameter it lacks has zero gradient).
    A NaN/Inf gradient, or a moment or parameter the update would make
    non-finite, rejects the whole step: ValueError, and neither the
    parameters nor ``state`` change.
    """
    for name, p in params.items():
        if p in grads and not np.all(np.isfinite(grads[p])):
            raise ValueError(f"non-finite gradient for parameter {name!r}; step rejected")
    t = state.t + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    updates = {}
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        for name, p in params.items():
            g = grads.get(p)
            if g is None:
                g = np.zeros_like(p.data)
            m = state.m.get(name, 0.0) * ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v = state.v.get(name, 0.0) * ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            # p - lr * (m / bc1) / (sqrt(v / bc2) + ADAM_EPS), in one buffer
            data = m / bc1
            data *= state.lr
            data /= np.sqrt(v / bc2) + ADAM_EPS
            np.subtract(p.data, data, out=data)
            # m mixes finite values convexly; g * g and a huge lr can overflow
            if not (np.isfinite(v).all() and np.isfinite(data).all()):
                raise ValueError(f"Adam step {t} makes parameter {name!r} or "
                                 f"its moments non-finite; step rejected")
            updates[name] = (m, v, data)
    state.t = t
    for name, (m, v, data) in updates.items():
        state.m[name], state.v[name] = m, v
        params[name].data[...] = data


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
