"""Minimal reverse-mode autodiff over dense float64 arrays.

A deliberately small, closed op set of nine: matmul (its left operand,
or both, may be equal stacks of matrices, each product with the bits it
has alone), add, mul (both broadcasting), concat, reshape, leaky_relu,
mean, cross_entropy, plus frame_attention, one fused op for every pass
of graph attention over dense blocks of each pass's own support. Only
an op whose output needs a gradient records its parents and backward
rule on the per-forward tape, so a forward over constants frees each
intermediate after its last use.
`backward()` walks the tape once in reverse topological order and
returns the gradient of every leaf parameter, the dict the optimizer
consumes. A minibatch is one tape: its clips share one graph, so the
batch mean of the loss is the only gradient reduction.

Float64 throughout: the finite-difference checker needs the headroom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "Tensor",
    "constant",
    "parameter",
    "as_tensor",
    "add",
    "mul",
    "matmul",
    "concat",
    "reshape",
    "leaky_relu",
    "frame_attention",
    "BlockLayout",
    "mean",
    "cross_entropy",
    "AdamState",
    "adam_step",
    "finite_diff_check",
]


class Tensor:
    """A value plus, only if it requires a gradient, its tape node: parent
    links and a backward rule.

    Tensors are immutable after construction (the optimizer mutates
    parameter `.data` in place between tapes, never during one). Data is
    not scanned for NaN/Inf: `model.train_clips` checks each step's loss.
    """

    __slots__ = ("data", "requires_grad", "parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.parents = tuple(parents) if self.requires_grad else ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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


def _record(out, backward):
    """``out``, with ``backward`` as its rule when it needs a gradient."""
    if out.requires_grad:
        out._backward = backward
    return out


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

    return _record(out, _backward)


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

    return _record(out, _backward)


def matmul(a, b) -> Tensor:
    """``a`` (n, k) or a stack (B, n, k) times ``b`` (k, m), or two equal
    stacks (B, n, k) @ (B, k, m). A stack is B products of (n, k) by
    (k, m), each with the bits it has alone."""
    a, b = as_tensor(a), as_tensor(b)
    stacked = b.data.ndim == 3
    if (a.data.ndim not in (2, 3) or b.data.ndim not in (2, a.data.ndim)
            or stacked and a.data.shape[0] != b.data.shape[0]):
        raise ValueError(f"matmul expects a 2-D or stacked 3-D left operand and a 2-D "
                         f"right one or an equal stack, got {a.data.shape} @ {b.data.shape}")
    k, m = b.data.shape[-2:]
    if a.data.shape[-1] != k:
        raise ValueError(
            f"matmul dimension mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad,
                 parents=(a, b))

    def _backward(g, acc):
        if a.requires_grad:
            _accum(acc, a, g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            if stacked:
                _accum(acc, b, a.data.swapaxes(-1, -2) @ g)
            else:
                # every stacked product's share, summed by one product
                _accum(acc, b, a.data.reshape(-1, k).T @ g.reshape(-1, m))

    return _record(out, _backward)


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

    return _record(out, _backward)


def reshape(t, shape) -> Tensor:
    t = as_tensor(t)
    out = Tensor(t.data.reshape(shape), requires_grad=t.requires_grad, parents=(t,))

    def _backward(g, acc):
        if t.requires_grad:
            _accum(acc, t, g.reshape(t.data.shape))

    return _record(out, _backward)


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

    return _record(out, _backward)


class BlockLayout(NamedTuple):
    """Stacked attention passes over dense blocks of one node order.

    ``order`` lists one frame's integer node ids block by block, G b of
    them (None: the identity order over all of a frame's N nodes), and
    each pass's blocks hold every node of a frame once. ``sign``
    (T, G, b, P, b + 2) holds, for each stacked pass, row a of block g
    against the block's b nodes, then the row's previous and next twin:
    an int8 -1, 0 or +1, the pass's support where nonzero, nonzero on
    every self-loop and 0 on the twins beyond the first and last frame.
    ``passes`` names the integer output pass each stacked sign feeds.
    """

    order: np.ndarray | None
    sign: np.ndarray
    passes: tuple = (0,)


# a row whose exps, shifted by its max, sum below this has its support
# scores more than ~575 below its other cells: it is shifted again by its
# support's own max
_UNDERFLOW = 1e-250

# the cells (about 0.5 MB of float64) of the frames whose scores one
# step of the forward holds: the scores' temporaries stay this small
_CHUNK_CELLS = 1 << 16


def _scores(sb, twin):
    """The scores LeakyReLU(s_self + s_peer) of each row of (t, G, b)
    blocks from their nodes' (t, G, b, 1, 2) score pairs: against the
    row's block, then its twins, whose peer scores are ``twin`` frames f
    and f + 2 of (t + 2, G, b, 1). (t, G, b, 1, b + 2). The LeakyReLU is
    the max of the raw scores and LEAKY_SLOPE times them: the same values
    as raw * gate, with no branch, and each score keeps its raw sign."""
    frames, groups, b = sb.shape[:3]
    raw = np.empty((frames, groups, b, 1, b + 2))
    np.add(sb[..., :1], sb[:, :, None, None, :, 0, 1], out=raw[..., :b])
    np.add(sb[..., 0], twin[:-2], out=raw[..., b])
    np.add(sb[..., 0], twin[2:], out=raw[..., b + 1])
    return np.maximum(raw, np.multiply(raw, LEAKY_SLOPE), out=raw)


def _check_layouts(layouts, n):
    """ValueError on a layout that breaks a rule of `BlockLayout` over
    frames of ``n`` nodes."""
    held = {}    # pass -> the orders of its layouts, None for the identity
    for order, sign, owned in layouts:
        b, ids = sign.shape[2], np.arange(n) if order is None else order
        loops = np.diagonal(sign, axis1=2, axis2=4)    # (T, G, P, b)
        if (sign.dtype != np.int8 or sign.min() < -1 or sign.max() > 1
                or any(np.asarray(v).dtype.kind not in "iu" for v in (ids, owned))):
            raise ValueError("frame_attention: signs must be int8 -1, 0 or +1, orders and "
                             "passes integer")
        if sign[0, ..., b].any() or sign[-1, ..., b + 1].any():
            raise ValueError("frame_attention: a twin beyond the first or last frame")
        if not loops.all():
            t, g, p, a = np.argwhere(loops == 0)[0]
            raise ValueError(f"frame_attention: pass {owned[p]}, frame {t}, node "
                             f"{ids[g * b + a]} has no self-loop")
        for p in owned:
            held.setdefault(p, []).append(order)
    if sorted(held) != list(range(len(held))) or not all(
            _holds_each_node_once(parts, n) for parts in held.values()):
        raise ValueError("frame_attention: each pass's blocks must hold every node of "
                         "a frame once")


def _holds_each_node_once(orders, n):
    """Whether one pass's layout ``orders`` list ids 0..n-1 once each."""
    if len(orders) == 1 and orders[0] is None:    # the frame's own order, by its shape
        return True
    ids = np.concatenate([np.arange(n) if o is None else o for o in orders])
    return (ids.size == n and ids.min(initial=0) >= 0 and ids.max(initial=0) < n
            and np.bincount(ids.astype(np.intp), minlength=n).max(initial=1) == 1)


def frame_attention(h, attention, layouts) -> Tensor:
    """Signed attention aggregation of P passes over their block layouts.

    ``h`` is (M, d) with M = T * N, ``attention`` is (2d,), ``layouts``
    a sequence of `BlockLayout`s. Row a of block g of frame t is node
    order[g b + a]: its block's nodes are its neighbours in frame t, and
    its twins the same node in frames t - 1 and t + 1. The scores,
    e = LeakyReLU(a_self . h_i + a_peer . h_j), are formed once per
    block layout, a few frames at a time (`_CHUNK_CELLS`), and shared by
    its stacked passes; each pass takes the softmax over a row's support
    and times its int8 sign. A layout's (T, G, b P, b) view of the
    weights aggregates its passes in one batched matmul per block, plus
    the twin rows. Returns (M, P d), row (t, i) holding the passes'
    outputs side by side. A layout that does not fit h or breaks a rule
    of `BlockLayout` raises ValueError, so no softmax row is empty.
    """
    h, attention = as_tensor(h), as_tensor(attention)
    m, d = h.data.shape
    frames = layouts[0].sign.shape[0] if layouts else 0
    n = m // frames if frames else 0
    passes = 1 + max(p for lay in layouts for p in lay.passes) if layouts else 0
    if not frames or m != frames * n or attention.data.shape != (2 * d,) or any(
            len(t) != 5 or t[0] != frames or t[3:] != (len(lay.passes), t[2] + 2)
            or t[1] * t[2] != (n if lay.order is None else len(lay.order))
            for lay, t in ((lay, lay.sign.shape) for lay in layouts)):
        raise ValueError(f"frame_attention: h {h.shape}, attention {attention.shape} "
                         f"and signs {[lay.sign.shape for lay in layouts]} do not fit "
                         f"(T, G, b, P, b + 2) blocks of one frame's nodes")
    _check_layouts(layouts, n)
    a = attention.data.reshape(2, d)    # rows a_self and a_peer
    hf = h.data.reshape(frames, n, d)
    s_pair = (h.data @ a.T).reshape(frames, n, 2)
    whole = (len(layouts) == 1 and layouts[0].order is None
             and layouts[0].passes == tuple(range(passes)))
    out = None if whole else np.zeros((frames, n, passes, d))
    saved = []
    for order, sign, owned in layouts:
        _, groups, b, stacked, _ = sign.shape
        nodes = slice(None) if order is None else order
        hb = hf[:, nodes].reshape(frames, groups, b, d)
        sb = s_pair[:, nodes].reshape(frames, groups, b, 1, 2)
        # the twins' peer scores, frame t's previous at t and next at
        # t + 2; frames 0 and T - 1 lack one twin each
        twin = np.zeros((frames + 2, groups, b, 1))
        twin[1:-1] = sb[..., 1]
        weights = np.empty(sign.shape)
        step = max(1, _CHUNK_CELLS // sign[0].size)
        for t0 in range(0, frames, step):
            w, s = weights[t0:t0 + step], sign[t0:t0 + step].astype(np.float64)
            # each row shifted by its max, at or above its support's: the
            # stacked passes share one exp, and their signs zero the cells
            # off their support. A row whose exps then sum below
            # _UNDERFLOW is shifted again, by its support's own max
            raw = _scores(sb[t0:t0 + step], twin[t0:t0 + step + 2])
            for own in (False, True):
                shift = (np.where(s, raw, -np.inf) if own else raw).max(-1, keepdims=True)
                # an off-support cell may score above its support's max;
                # clipped to 0 and zeroed by its sign, it cannot overflow
                np.multiply(np.exp(np.minimum(raw - shift, 0.0)), s, out=w)
                # the row sums of e |s|, as s s = |s| for a sign
                total = np.einsum("...k,...k->...", w, s)[..., None]
                if total.min() >= _UNDERFLOW:
                    break
            w /= total
        # row (a, p) of a block's (b P, b + 2) view is node a's pass p
        flat = weights.reshape(frames, groups, b * stacked, b + 2)[..., :b]
        side = (flat @ hb).reshape(frames, groups, b, stacked, d)
        side[1:] += np.einsum("tgap,tgad->tgapd", weights[1:, ..., b], hb[:-1])
        side[:-1] += np.einsum("tgap,tgad->tgapd", weights[:-1, ..., b + 1], hb[1:])
        if whole:
            out = side
        else:
            out[:, np.arange(n)[nodes, None], owned] = side.reshape(
                frames, groups * b, stacked, d)
        saved.append((nodes, owned, sign, hb, sb, twin, weights, flat))
    out = Tensor(out.reshape(m, passes * d),
                 requires_grad=h.requires_grad or attention.requires_grad,
                 parents=(h, attention))

    def _backward(g, acc):
        g4 = g.reshape(frames, n, passes, d)
        ds = np.zeros((frames, n, 2))    # of s_self and s_peer
        dh = np.zeros((frames, n, d))
        for nodes, owned, sign, hb, sb, twin, weights, flat in saved:
            _, groups, b, stacked, _ = sign.shape
            gs = (g4 if whole else g4[:, np.arange(n)[nodes, None], owned]).reshape(
                frames, groups, b, stacked, d)
            gp = gs.reshape(frames, groups, b * stacked, d)
            dweights = np.empty(weights.shape)
            np.matmul(gp, hb.swapaxes(-1, -2),
                      out=dweights.reshape(frames, groups, b * stacked, b + 2)[..., :b])
            # einsum keeps the twin products' sums out of a temporary, at a
            # third of the time of multiply-then-sum
            dweights[0, ..., b] = dweights[-1, ..., b + 1] = 0.0
            np.einsum("tgapd,tgad->tgap", gs[1:], hb[:-1], out=dweights[1:, ..., b])
            np.einsum("tgapd,tgad->tgap", gs[:-1], hb[1:], out=dweights[:-1, ..., b + 1])
            # through the sign to the softmax, then through the softmax
            dweights *= sign
            soft = np.abs(weights)
            dweights -= np.einsum("...k,...k->...", dweights, soft)[..., None]
            dweights *= soft
            # the passes share the scores, so their gradients add
            de = dweights.sum(axis=3)
            de *= np.where(_scores(sb, twin)[..., 0, :] > 0, 1.0, LEAKY_SLOPE)
            peer = de[..., :b].sum(axis=2)
            peer[:-1] += de[1:, ..., b]
            peer[1:] += de[:-1, ..., b + 1]
            ds[:, nodes] += np.stack([de.sum(axis=-1), peer], axis=-1).reshape(frames, -1, 2)
            dhb = flat.swapaxes(-1, -2) @ gp
            dhb[:-1] += np.einsum("tgap,tgapd->tgad", weights[1:, ..., b], gs[1:])
            dhb[1:] += np.einsum("tgap,tgapd->tgad", weights[:-1, ..., b + 1], gs[:-1])
            dh[:, nodes] += dhb.reshape(frames, -1, d)
        ds = ds.reshape(m, 2)
        if h.requires_grad:
            dh = dh.reshape(m, d)
            dh += ds @ a
            _accum(acc, h, dh)
        if attention.requires_grad:
            _accum(acc, attention, (ds.T @ h.data).reshape(2 * d))

    return _record(out, _backward)


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

    return _record(out, _backward)


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

    return _record(out, _backward)


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
