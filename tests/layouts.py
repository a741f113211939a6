"""Graph shapes for tests: the dense frame layouts a slot table stands
for, to compare a pass over its own slots against the dense one or pin
its bytes; the slot table of dense passes; and a one-clip graph for
the ops that pool per clip."""

import numpy as np

from sstgnn import autodiff as ad
from sstgnn import graphs


def frame_layout(adj):
    """The (P, T, N, N + 2) sign layouts of a `gat.SignedAdjacency`, one
    per pass: each slot's sign written into its column, the twins into
    the last two."""
    frames, n, width = adj.sign.shape
    starts, index = adj.table.starts, adj.table.index
    layouts = np.zeros((len(starts), frames, n, n + 2))
    for layout, lo, hi in zip(layouts, starts, (*starts[1:], width)):
        layout[:, np.arange(n)[:, None], index[:, lo:hi]] = adj.sign[:, :, lo:hi]
    return layouts


def dense_columns(n, passes=1):
    """The slot table of ``passes`` passes that each read the whole
    (N + 2)-column frame layout, as signs side by side."""
    return ad.SlotTable(np.tile(np.arange(n + 2), (n, passes)),
                        tuple(range(0, passes * (n + 2), n + 2)))


def one_clip(nodes):
    """A graph of one one-frame clip of ``nodes`` nodes with no edge: the
    clip and node counts are all that `gat.spatial_fuse` and
    `spectral.pool_spectral` read of a graph."""
    return graphs.VideoGraph(nodes, 1, np.zeros((1, nodes, nodes)),
                             np.zeros((1, 0, nodes)))
