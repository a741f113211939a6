"""Graph shapes for tests: the dense frame layout a slot table stands
for, to compare a gathered attention pass against the dense one or pin
its bytes, and a one-clip graph for the ops that pool per clip."""

import numpy as np

from sstgnn import graphs


def frame_layout(adj):
    """The (T, N, N + 2) sign layout of a `gat.SignedAdjacency`: each
    slot's sign written into its column, the twins into the last two.
    A dense layout comes back as it is."""
    if adj.index is None:
        return adj.sign
    frames, n, _ = adj.sign.shape
    layout = np.zeros((frames, n, n + 2))
    layout[:, np.arange(n)[:, None], adj.index] = adj.sign
    return layout


def one_clip(nodes):
    """A graph of one one-frame clip of ``nodes`` nodes with no edge: the
    clip and node counts are all that `gat.spatial_fuse` and
    `spectral.pool_spectral` read of a graph."""
    return graphs.VideoGraph(nodes, 1, np.zeros((1, nodes, nodes)),
                             np.zeros((1, 0, nodes)))
