"""Graph shapes for tests: the dense frame layouts a block adjacency
stands for, to compare a pass over its own blocks against the dense one
or pin its bytes; the block layout of dense passes; a one-clip graph
for the ops that pool per clip; the loop-built dense tile matrix of the
spatial differential; and the joined slot-table attention the block
layouts replaced, kept as the reference implementation."""

from dataclasses import dataclass, field

import numpy as np

from sstgnn import autodiff as ad
from sstgnn import graphs
from sstgnn.differential import tile_ids


def frame_layout(adj):
    """The (P, T, N, N + 2) sign layouts of a `gat.SignedAdjacency`, one
    per pass: each block's signs written into its nodes' columns, the
    twins into the last two."""
    frames = adj.layouts[0].sign.shape[0]
    n = sum(lay.sign.shape[1] * lay.sign.shape[2]
            for lay in adj.layouts if 0 in lay.passes)
    passes = 1 + max(p for lay in adj.layouts for p in lay.passes)
    layouts = np.zeros((passes, frames, n, n + 2))
    for order, sign, owned in adj.layouts:
        _, groups, b, _, _ = sign.shape
        ids = (np.arange(n) if order is None else order).reshape(groups, b)
        columns = np.concatenate([ids[:, None, :].repeat(b, axis=1),
                                  np.broadcast_to([n, n + 1], (groups, b, 2))], axis=2)
        for k, p in enumerate(owned):
            layouts[p][:, ids[:, :, None], columns] = sign[..., k, :]
    return layouts


def whole_frames(*signs):
    """The block layouts of passes that each read the whole frame: one
    block of a frame's N nodes in their own order, the passes' (T, N,
    N + 2) signs stacked."""
    return (ad.BlockLayout(None, np.stack(signs, axis=2)[:, None],
                           tuple(range(len(signs)))),)


def one_clip(nodes):
    """A graph of one one-frame clip of ``nodes`` nodes with no edge: the
    clip and node counts are all that `gat.spatial_fuse` and
    `spectral.pool_spectral` read of a graph."""
    return graphs.VideoGraph(nodes, 1, np.zeros((1, nodes, nodes)),
                             np.zeros((1, 0, nodes)))


def loop_negative_spatial_matrix(frames, grid_h, grid_w, tile):
    """Per-tile loop reference for the (M, M) tile matrix of ``frames``
    frames, the dense form of the spatial differential: each complete
    tile's `tile_pattern` at its nodes in every frame; and its anchors."""
    m = frames * grid_h * grid_w
    mat = np.zeros((m, m))
    anchors = []
    for t in range(frames):
        for ti in range(grid_h // tile):
            for tj in range(grid_w // tile):
                ids = [(t * grid_h + ti * tile + a) * grid_w + tj * tile + b
                       for a in range(tile) for b in range(tile)]
                mat[ids[0], ids] = -1.0
                mat[ids, ids[0]] = -1.0
                mat[ids, ids] = 1.0
                anchors.append(ids[0])
    return mat, np.array(anchors, dtype=np.intp)


# ---------------------------------------------------------------------------
# the reference: both passes as one slot table over the frame layout


@dataclass(frozen=True, eq=False)
class SlotTable:
    """An (N, ΣK) column table of P attention passes, checked once.

    Slot k of row i names column ``index[i, k]`` of a frame's (N, N + 2)
    layout: a node of the frame, or the previous or next twin, N and
    N + 1. Pass p owns the slots from ``starts[p]`` to the next start; its
    columns in a row must be distinct, hold the row's node and end on the
    twins, ValueError otherwise. Holds read-only copies of ``index`` and
    of what `joined_attention` derives from it: each slot's pass
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


def tile_slots(grid_h, grid_w, tile):
    """One frame's tile block as the inconsistency pass's slots,
    k = tile² (1 when no tile is complete): ``sign`` (N, k) holds row
    i's block entries at the frame columns ``index[i, :k]``, and
    ``index`` (N, k + 2) ends on the twins' columns N and N + 1. A tile
    node's row lists its tile, from itself on in cyclic order; a node
    outside every complete tile has an all-zero row over itself and the
    next k - 1 columns (mod N)."""
    n = grid_h * grid_w
    ids = tile_ids(grid_h, grid_w, tile)
    k = ids.shape[1] if len(ids) else 1
    index = np.empty((n, k + 2), dtype=int)
    index[:, :k] = (np.arange(n)[:, None] + np.arange(k)) % n
    index[:, k:] = n, n + 1
    sign = np.zeros((n, k))
    if len(ids):
        # row a of the rotation starts on tile position a
        rotate = (np.arange(k)[:, None] + np.arange(k)) % k
        pattern = np.eye(k)
        pattern[0, 1:] = pattern[1:, 0] = -1.0
        index[ids, :k] = ids[:, rotate]
        sign[ids] = pattern[np.arange(k)[:, None], rotate]
    return index, sign


def joined_adjacency(graph, tile):
    """Both passes over ``graph`` as one (T, N, ΣK) sign table and its
    `SlotTable`: the consistency pass's positive frame edges and twins
    over the whole frame layout, then the inconsistency pass's slots of
    ``tile`` (None: the self slot alone) and -1 twins, every self-loop
    +1."""
    n, (clips, pairs, _) = graph.patches_per_frame, graph.twins.shape
    own, tile_sign = tile_slots(graph.grid_h, graph.grid_w, 1 if tile is None else tile)
    tile_sign[:, 0] += tile_sign[:, 0] == 0
    table = SlotTable(np.hstack([np.tile(np.arange(n + 2), (n, 1)), own]), (0, n + 2))
    sign = np.zeros((graph.frames, n, table.index.shape[1]))
    np.greater(graph.blocks, 0, out=sign[:, :, :n])
    sign[:, np.arange(n), np.arange(n)] = 1.0
    sign[:, :, n + 2:-2] = tile_sign
    per_clip = sign.reshape(clips, pairs + 1, n, -1)
    per_clip[:, 1:, :, n] = per_clip[:, :-1, :, n + 1] = graph.twins > 0
    negative = np.where(graph.twins < 0, -1.0, 0.0)
    per_clip[:, 1:, :, -2] = per_clip[:, :-1, :, -1] = negative
    return sign, table


# an additive mask: off-support slots sink below any finite score
_OFF_SUPPORT = np.finfo(np.float64).max


def joined_attention(h, attention, sign, table: SlotTable):
    """Signed attention aggregation of P passes over one slot table, the
    op the block layouts replaced.

    ``h`` is (M, d) with M = T * N, ``attention`` is (2d,). Slot k of
    row (t, i) stands for column ``table.index[i, k]`` of row (t, i) of
    the (T, N, N + 2) frame layout; ``sign`` (T, N, ΣK) holds each
    slot's sign. Each pass takes the softmax over its segment of a row's
    support (`reduceat`) and times its sign; the weights are scattered
    into one (T, N, P, N + 2) layout that aggregates every pass in one
    matmul per frame, plus the twin rows. Returns (M, P d).
    """
    h, attention, sign = ad.as_tensor(h), ad.as_tensor(attention), np.asarray(sign)
    starts, scatter = table.starts, table.scatter
    (n, width), passes = table.peer.shape, len(starts)
    m, d = h.data.shape
    frames = m // n
    if (sign.shape != (frames, n, width) or m != frames * n or not frames
            or attention.data.shape != (2 * d,)):
        raise ValueError(f"joined_attention: h {h.data.shape}, attention "
                         f"{attention.data.shape} and sign {sign.shape} do not "
                         f"fit a slot table of {n} nodes and {width} slots")
    slope = ad.LEAKY_SLOPE
    a = attention.data.reshape(2, d)
    hf = h.data.reshape(frames, n, d)
    s_pair = (h.data @ a.T).reshape(frames, n, 2)
    peers = np.zeros((frames, 3, n))
    peers[:, 0], peers[1:, 1], peers[:-1, 2] = (s_pair[:, :, 1], s_pair[:-1, :, 1],
                                                s_pair[1:, :, 1])
    raw = np.take(peers.reshape(frames, -1), table.peer, axis=1)
    raw += s_pair[:, :, :1]
    support = sign != 0
    alpha = np.maximum(raw, slope * raw)
    gate = alpha > 0
    raw = support * _OFF_SUPPORT - _OFF_SUPPORT + alpha
    rowmax = np.maximum.reduceat(raw, starts, axis=-1)    # (T, N, P)
    if rowmax.min() < -_OFF_SUPPORT / 2:
        t, i, p = np.argwhere(rowmax < -_OFF_SUPPORT / 2)[0]
        raise ValueError(f"joined_attention: pass {p}, frame {t}, node {i} "
                         f"has no support, so its softmax is 0/0, non-finite")
    alpha = np.exp(np.minimum(alpha - np.take(rowmax, table.segment, axis=-1), 0.0))
    alpha *= support
    total = np.add.reduceat(alpha, starts, axis=-1)
    alpha *= sign
    weights = np.zeros((frames, n, passes, n + 2))
    weights.reshape(frames, -1)[:, scatter] = alpha.reshape(frames, -1)
    weights /= total[..., None]
    layout = weights.reshape(frames, n * passes, n + 2)[..., :n]
    out = layout @ hf
    side = out.reshape(frames, n, passes, d)
    side[1:] += weights[1:, :, :, n, None] * hf[:-1, :, None]
    side[:-1] += weights[:-1, :, :, n + 1, None] * hf[1:, :, None]
    out = ad.Tensor(out.reshape(m, passes * d),
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
        dweights[1:, :, :, n] = np.einsum("tipd,tid->tip", g4[1:], hf[:-1])
        dweights[:-1, :, :, n + 1] = np.einsum("tipd,tid->tip", g4[:-1], hf[1:])
        soft = at_slots(weights) * sign
        dalpha = at_slots(dweights) * sign
        dalpha -= np.take(np.add.reduceat(dalpha * soft, starts, axis=-1),
                          table.segment, axis=-1)
        dalpha *= soft
        dalpha *= np.where(gate, 1.0, slope)
        de = np.zeros(weights.shape)
        de.reshape(frames, -1)[:, scatter] = dalpha.reshape(frames, -1)
        de = de.sum(axis=2)
        ds = np.empty((frames, n, 2))
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
            ad._accum(acc, h, dh)
        if attention.requires_grad:
            ad._accum(acc, attention, (ds.T @ h.data).reshape(2 * d))

    out._backward = _backward
    return out
