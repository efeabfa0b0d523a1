"""Hypothesis strategy for small adversarial meshes (routing properties)."""

import random

import numpy as np
from hypothesis import strategies as st

from repro.topology.geometry import pairwise_distances
from repro.topology.graph import WirelessNetwork


@st.composite
def lossy_meshes(draw):
    """Random positions under an asymmetric, possibly disconnected link table.

    Each direction of an in-range pair is kept independently, so one-way
    links and unreachable nodes are common.  Half the meshes draw their
    probabilities from {1, 1/2, 1/4}: those ETX weights add exactly, so
    equal-distance ties — where only the ``(distance, node)`` pop order
    decides a predecessor — occur all the time.
    """
    nodes = draw(st.integers(min_value=2, max_value=24))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    keep = draw(st.sampled_from((0.3, 0.6, 1.0)))
    dyadic = draw(st.booleans())
    side = (nodes / 3.0) ** 0.5  # about three nodes per unit square
    positions = np.array(
        [[rng.uniform(0.0, side), rng.uniform(0.0, side)] for _ in range(nodes)]
    )
    in_range = pairwise_distances(positions) <= 1.0
    links = {}
    for i in range(nodes):
        for j in range(nodes):
            if i != j and in_range[i, j] and rng.random() < keep:
                links[(i, j)] = (
                    rng.choice((1.0, 0.5, 0.25)) if dyadic else rng.uniform(0.05, 1.0)
                )
    return WirelessNetwork(positions, links, communication_range=1.0)
