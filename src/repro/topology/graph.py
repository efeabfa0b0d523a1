"""The wireless network abstraction shared by every layer of the stack.

:class:`WirelessNetwork` bundles what the paper's G(V, E) carries:

* node positions and the communication/interference range (the paper
  treats the two as equal — Sec. 3.2);
* directed link reception probabilities ``p_ij`` (possibly asymmetric,
  as in measured networks);
* neighborhoods ``N(i)`` — nodes within range, used both for packet
  delivery and for the broadcast MAC constraint
  ``b_i + sum_{j in N(i)} b_j <= C``;
* the MAC-layer channel capacity ``C``.

The class is immutable after construction, and it is the one source of
link qualities: routing, the optimizer and the emulator all read
``p_ij`` from it.  Planning on other (e.g. measured) qualities means
planning on :meth:`WirelessNetwork.with_links` of them.  The one thing
it builds later is a function of its links alone: the per-node ETX cost
rows of :meth:`WirelessNetwork.etx_rows`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.topology.partition import SpatialGrid
from repro.util.validation import check_positive

if TYPE_CHECKING:
    import networkx as nx

Link = Tuple[int, int]

#: Per node, ``((neighbor, 1.0 / p), ...)`` with neighbours ascending.
EtxRows = Tuple[Tuple[Tuple[int, float], ...], ...]

DEFAULT_CHANNEL_CAPACITY = 2e4  # bytes/second, paper Sec. 5: CBR = C/2 = 10^4 B/s


class WirelessNetwork:
    """An immutable lossy wireless network graph."""

    # The ETX cost rows of :meth:`etx_rows`, one table per direction,
    # built on first use.  Instances that have not built one read these
    # class defaults; ``__getstate__`` drops built ones.
    _etx_out: Optional[EtxRows] = None
    _etx_in: Optional[EtxRows] = None

    def __init__(
        self,
        positions: np.ndarray,
        probabilities: Dict[Link, float],
        communication_range: float,
        *,
        capacity: float = DEFAULT_CHANNEL_CAPACITY,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {positions.shape}")
        check_positive("communication_range", communication_range)
        check_positive("capacity", capacity)
        n = positions.shape[0]
        self._positions = positions.copy()
        self._positions.setflags(write=False)
        self._range = float(communication_range)
        self._capacity = float(capacity)
        # Spatial bucket index instead of a dense n x n distance matrix:
        # neighborhood construction and on-demand distances stay
        # bit-identical to the former pairwise_distances path (same
        # float64 expression per pair) but the build is O(n) for
        # bounded-density deployments and 10k-node networks no longer
        # carry an 800 MB matrix through every pickle.
        self._grid = SpatialGrid(self._positions, self._range)

        self._p = self._checked_links(probabilities, held={})

        # Neighborhoods are purely geometric: within range, regardless of
        # whether the probability draw produced a usable link.  This is
        # what the interference model keys on.  The grid query yields ids
        # in ascending order — the same insertion order the dense
        # np.nonzero path used, so each frozenset lays out identically.
        self._neighbors: List[FrozenSet[int]] = []
        for i in range(n):
            close, _ = self._grid.neighbors_within(i, self._range)
            self._neighbors.append(frozenset(int(j) for j in close))

        self._out_links, self._in_links = self._adjacency(self._p)

    def with_links(self, probabilities: Dict[Link, float]) -> "WirelessNetwork":
        """This deployment under a different link table.

        What a drift, a failure or a recovery produces: same nodes, same
        range and capacity, new ``p_ij``.  The result *shares* the
        geometry this network built — positions, spatial grid and
        neighborhoods are read-only and a function of position alone —
        and equals ``WirelessNetwork(positions, probabilities, range,
        capacity=...)`` in every accessor.  ``probabilities`` keeps its
        iteration order (:meth:`links` order is the drift draw order).
        Every link is validated as at construction; only the span check
        is skipped for links this network already holds, which passed it
        against the identical geometry.  The ETX cost rows are never
        shared: they carry this network's ``p_ij``.
        """
        derived = WirelessNetwork.__new__(WirelessNetwork)
        derived._positions = self._positions
        derived._range = self._range
        derived._capacity = self._capacity
        derived._grid = self._grid
        derived._neighbors = self._neighbors
        derived._p = self._checked_links(probabilities, held=self._p)
        if derived._p.keys() == self._p.keys():
            derived._out_links = self._out_links
            derived._in_links = self._in_links
        else:
            derived._out_links, derived._in_links = self._adjacency(derived._p)
        return derived

    def _checked_links(
        self, probabilities: Dict[Link, float], held: Dict[Link, float]
    ) -> Dict[Link, float]:
        """``probabilities`` validated against this geometry, order kept.

        Links in ``held`` already passed the span check on these
        positions and skip it.
        """
        n = self.node_count
        tolerance = 1e-9 * self._range
        checked: Dict[Link, float] = {}
        for (i, j), prob in probabilities.items():
            self._validate_link(i, j, n)
            if not 0.0 < prob <= 1.0:
                raise ValueError(f"link ({i},{j}) probability must be in (0,1], got {prob}")
            if (i, j) not in held:
                span = self.distance(i, j)
                if span > self._range + tolerance:
                    raise ValueError(
                        f"link ({i},{j}) spans {span:.3f}, "
                        f"beyond the communication range {self._range:.3f}"
                    )
            checked[(i, j)] = float(prob)
        return checked

    def _adjacency(
        self, links: Dict[Link, float]
    ) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
        """Per-node sorted out- and in-neighbor tuples of a link table."""
        n = self.node_count
        out_lists: List[List[int]] = [[] for _ in range(n)]
        in_lists: List[List[int]] = [[] for _ in range(n)]
        for (a, j) in links:
            out_lists[a].append(j)
            in_lists[j].append(a)
        return (
            [tuple(sorted(members)) for members in out_lists],
            [tuple(sorted(members)) for members in in_lists],
        )

    @staticmethod
    def _validate_link(i: int, j: int, n: int) -> None:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"link ({i},{j}) references nodes outside 0..{n - 1}")
        if i == j:
            raise ValueError(f"self-link ({i},{i}) is not allowed")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of nodes |V|."""
        return self._positions.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Read-only (n, 2) position array."""
        return self._positions

    @property
    def communication_range(self) -> float:
        """Transmission (= interference) range."""
        return self._range

    @property
    def capacity(self) -> float:
        """MAC channel capacity C in bytes/second."""
        return self._capacity

    def nodes(self) -> range:
        """Iterate node identifiers 0..n-1."""
        return range(self.node_count)

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between nodes ``i`` and ``j``.

        Computed on demand with the same float64 expression as
        :func:`repro.topology.geometry.pairwise_distances`, so the value
        is bit-identical to the dense matrix entry it replaced.
        """
        deltas = self._positions[i] - self._positions[j]
        return float(np.sqrt(np.sum(deltas * deltas, axis=-1)))

    # ------------------------------------------------------------------
    # Links and probabilities
    # ------------------------------------------------------------------
    def probability(self, i: int, j: int) -> float:
        """One-way reception probability p_ij; 0 if no link exists."""
        return self._p.get((i, j), 0.0)

    def has_link(self, i: int, j: int) -> bool:
        """True if the directed link (i, j) exists."""
        return (i, j) in self._p

    def links(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(i, j, p_ij)`` over all directed links."""
        for (i, j), prob in self._p.items():
            yield i, j, prob

    def link_count(self) -> int:
        """Number of directed links |E|."""
        return len(self._p)

    def out_neighbors(self, i: int) -> Tuple[int, ...]:
        """Nodes reachable from ``i`` by a directed link, ascending."""
        return self._out_links[i]

    def in_neighbors(self, i: int) -> Tuple[int, ...]:
        """Nodes with a directed link into ``i``, ascending."""
        return self._in_links[i]

    def neighbors(self, i: int) -> FrozenSet[int]:
        """The geometric neighborhood N(i): nodes within range of ``i``."""
        return self._neighbors[i]

    def etx_rows(self, toward: bool = False) -> EtxRows:
        """Per node, its ETX cost row ``((neighbor, 1.0 / p), ...)``.

        The row of ``i`` runs over its out-links ``(i, j)``, or with
        ``toward`` over its in-links ``(j, i)``, neighbours ascending as in
        :meth:`out_neighbors` / :meth:`in_neighbors`.  Each table is built
        on the first call for its direction and kept for the life of this
        object; it is left out of the pickled state and not passed on by
        :meth:`with_links`.  Each cost is ``1.0 / probability(i, j)``,
        the same float whether read from the row or computed on the spot.
        """
        rows = self._etx_in if toward else self._etx_out
        if rows is None:
            p = self._p
            if toward:
                rows = tuple(
                    tuple((j, 1.0 / p[(j, i)]) for j in members)
                    for i, members in enumerate(self._in_links)
                )
                self._etx_in = rows
            else:
                rows = tuple(
                    tuple((j, 1.0 / p[(i, j)]) for j in members)
                    for i, members in enumerate(self._out_links)
                )
                self._etx_out = rows
        return rows

    def average_link_probability(self) -> float:
        """Mean p_ij over all existing links (paper reports 0.58 / 0.91)."""
        if not self._p:
            return 0.0
        return float(np.mean(list(self._p.values())))

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def subnetwork(self, keep: FrozenSet[int]) -> "SubNetworkView":
        """A view restricted to ``keep`` (used after node selection).

        Neighborhoods in the view still include *all* in-range nodes from
        the full network when asked via :meth:`SubNetworkView.interferers`
        — interference does not disappear because a node was pruned from
        the forwarding set — but links and routing only span ``keep``.
        """
        return SubNetworkView(self, frozenset(keep))

    def to_networkx(self, *, weight: Optional[str] = None) -> nx.DiGraph:
        """Export as a networkx DiGraph.

        Each edge carries ``probability``; with ``weight='etx'`` an
        ``etx = 1/p`` attribute is added for shortest-path queries.
        networkx is imported here: nothing else in the package needs it.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes())
        for i, j, prob in self.links():
            attrs = {"probability": prob}
            if weight == "etx":
                attrs["etx"] = 1.0 / prob
            graph.add_edge(i, j, **attrs)
        return graph

    def conflict_neighbors(self, i: int) -> FrozenSet[int]:
        """Transmitters that conflict with ``i`` under the ideal MAC.

        Two transmitters compete if they fall within range of a common
        receiver or of each other; with transmission range equal to
        interference range this reduces to distance <= 2 * range for the
        common-receiver case.  We use the paper's direct statement — nodes
        within range of each other interfere — plus the shared-receiver
        extension used by its MAC constraint.
        """
        # d(., .) is symmetric, so "N(i) and N(j) intersect" is exactly
        # "j is a neighbor of some neighbor of i": the two-hop ball.
        # O(deg^2) instead of the former full O(n) node scan.
        shared: set = set(self._neighbors[i])
        for k in self._neighbors[i]:
            shared.update(self._neighbors[k])
        shared.discard(i)
        # Sorted insertion keeps the frozenset layout a deterministic
        # function of the member set alone.
        return frozenset(sorted(shared))

    def __getstate__(self) -> Dict[str, object]:
        """The pickled state: everything but the ETX cost rows.

        A receiver rebuilds them on first use, so a network crosses a pipe
        at the size it had before any route was computed on it.
        """
        state = dict(self.__dict__)
        state.pop("_etx_out", None)
        state.pop("_etx_in", None)
        return state

    def __repr__(self) -> str:
        return (
            f"WirelessNetwork(nodes={self.node_count}, links={self.link_count()}, "
            f"range={self._range:.1f}, capacity={self._capacity:.0f} B/s)"
        )


class SubNetworkView:
    """A read-only restriction of a :class:`WirelessNetwork` to a node set.

    Node identifiers are preserved (no re-indexing), which keeps protocol
    state keyed consistently across the full network and the selected
    forwarding subgraph.
    """

    def __init__(self, base: WirelessNetwork, keep: FrozenSet[int]) -> None:
        for node in sorted(keep):
            if not 0 <= node < base.node_count:
                raise ValueError(f"node {node} outside base network")
        self._base = base
        self._keep = keep

    @property
    def base(self) -> WirelessNetwork:
        """The underlying full network."""
        return self._base

    @property
    def node_set(self) -> FrozenSet[int]:
        """The retained nodes."""
        return self._keep

    @property
    def capacity(self) -> float:
        """MAC channel capacity C (inherited)."""
        return self._base.capacity

    def nodes(self) -> Tuple[int, ...]:
        """Retained node identifiers in ascending order."""
        return tuple(sorted(self._keep))

    def probability(self, i: int, j: int) -> float:
        """p_ij if both endpoints are retained, else 0."""
        if i in self._keep and j in self._keep:
            return self._base.probability(i, j)
        return 0.0

    def links(self) -> Iterator[Tuple[int, int, float]]:
        """Directed links with both endpoints retained."""
        for i, j, prob in self._base.links():
            if i in self._keep and j in self._keep:
                yield i, j, prob

    def out_neighbors(self, i: int) -> Tuple[int, ...]:
        """Retained out-neighbors of ``i``."""
        return tuple(j for j in self._base.out_neighbors(i) if j in self._keep)

    def in_neighbors(self, i: int) -> Tuple[int, ...]:
        """Retained in-neighbors of ``i``."""
        return tuple(j for j in self._base.in_neighbors(i) if j in self._keep)

    def neighbors(self, i: int) -> FrozenSet[int]:
        """Retained geometric neighbors of ``i``.

        Used by the optimization's MAC constraint: only selected nodes
        transmit for this session, so only they compete for airtime in
        the session's rate allocation.
        """
        return self._base.neighbors(i) & self._keep

    def interferers(self, i: int) -> FrozenSet[int]:
        """All in-range nodes of ``i`` in the *full* network."""
        return self._base.neighbors(i)

    def __repr__(self) -> str:
        return f"SubNetworkView(nodes={len(self._keep)} of {self._base.node_count})"
