"""Degraded-mode state for the Venice mesh: dead links, dead routers, and
the partition oracle.

This is where the paper's path-diversity claim gets its adversarial test
bench: Venice's non-minimal fully-adaptive routing "can steer around busy
links"; a *dead* link or router is simply a link that never becomes free, so
the very same Algorithm 1 backtracking machinery routes around permanent
failures -- no new routing logic is needed, only a fault mask folded into
the ``usable()`` predicate (see DESIGN.md §7).

:class:`DegradedVenice` owns that mask for one
:class:`~repro.venice.network.VeniceNetwork`:

* ``set_link`` / ``set_router`` mutate the network's dead sets, refresh
  the affected bits of its open-port masks (which the scout walk reads)
  and bump a *fault epoch*;
* :meth:`is_partitioned` answers "can any scout ever reach this chip" by a
  BFS over the alive topology from every alive injection drop point,
  memoised per epoch -- reservation *failures* on a connected mesh retry,
  true partitions raise :class:`~repro.errors.RoutingError` at the fabric
  layer instead of livelocking.

Committed circuits are not torn down by a fault: circuits live for
microseconds while fault timescales are milliseconds, so an in-flight
transfer completes and the dead element is simply never reserved again.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.errors import RoutingError
from repro.interconnect.topology import Coord, edge_key, reachable


class DegradedVenice:
    """Fault mask and partition oracle for one :class:`VeniceNetwork`."""

    def __init__(self, network) -> None:
        self.network = network
        #: Monotone counter bumped on every fault transition; memoised
        #: reachability is valid only for the epoch it was computed in.
        self.epoch = 0
        self._reachable_epoch = -1
        self._reachable: FrozenSet[Coord] = frozenset()
        self._fc_reachable: dict = {}  # fc -> (epoch, frozenset)
        self._components_epoch = -1
        self._components: Dict[Coord, int] = {}

    # ------------------------------------------------------------------ #
    # fault transitions
    # ------------------------------------------------------------------ #

    def set_link(self, a: Coord, b: Coord, down: bool = True) -> None:
        """Fail (``down=True``) or repair one bidirectional mesh link."""
        topology = self.network.topology
        a, b = tuple(a), tuple(b)
        if not (topology.contains(a) and topology.contains(b)):
            raise RoutingError(f"link {a}-{b} outside the {topology.rows}x{topology.cols} mesh")
        edge = edge_key(a, b)  # raises on a self-edge
        if topology.manhattan(a, b) != 1:
            raise RoutingError(f"{a} and {b} are not mesh neighbours")
        if down:
            self.network._dead_links.add(edge)
        else:
            self.network._dead_links.discard(edge)
        self.network._refresh_link(edge)
        self.epoch += 1

    def set_router(self, node: Coord, down: bool = True) -> None:
        """Fail or repair one router chip (all four ports plus ejection)."""
        node = tuple(node)
        if not self.network.topology.contains(node):
            raise RoutingError(
                f"router {node} outside the "
                f"{self.network.topology.rows}x{self.network.topology.cols} mesh"
            )
        if down:
            self.network._dead_routers.add(node)
        else:
            self.network._dead_routers.discard(node)
        self.network._refresh_router(node)
        self.epoch += 1

    @property
    def dead_links(self) -> FrozenSet:
        """Snapshot of the currently failed mesh links (edge keys)."""
        return frozenset(self.network._dead_links)

    @property
    def dead_routers(self) -> FrozenSet[Coord]:
        """Snapshot of the currently failed router coordinates."""
        return frozenset(self.network._dead_routers)

    # ------------------------------------------------------------------ #
    # partition oracle
    # ------------------------------------------------------------------ #

    def _bfs_from(self, sources) -> FrozenSet[Coord]:
        """Routers reachable from ``sources`` over alive links and routers."""
        network = self.network
        return reachable(
            network.topology, sources, network._dead_links, network._dead_routers
        )

    def alive_reachable(self) -> FrozenSet[Coord]:
        """Routers reachable from *any* alive injection drop over alive links.

        Busy-ness is ignored on purpose: a busy link frees up, a dead one
        does not, so this is exactly the "can a scout ever succeed" set.
        Memoised per fault epoch (faults are rare events; scout failures are
        not).
        """
        if self._reachable_epoch == self.epoch:
            return self._reachable
        self._reachable = self._bfs_from(
            point for rows in self.network._injection_rows for point in rows
        )
        self._reachable_epoch = self.epoch
        return self._reachable

    def fc_reachable(self, fc_index: int) -> FrozenSet[Coord]:
        """Routers reachable from controller ``fc_index``'s alive drop points.

        Per-controller view of :meth:`alive_reachable`, used to keep a
        transfer from being handed a controller that faults have cut off
        from its destination.  Memoised per fault epoch.
        """
        cached = self._fc_reachable.get(fc_index)
        if cached is not None and cached[0] == self.epoch:
            return cached[1]
        reachable = self._bfs_from(self.network._injection_rows[fc_index])
        self._fc_reachable[fc_index] = (self.epoch, reachable)
        return reachable

    def fc_can_reach(self, fc_index: int, destination: Coord) -> bool:
        """True when controller ``fc_index`` has an alive path to ``destination``."""
        return tuple(destination) in self.fc_reachable(fc_index)

    def components(self) -> Dict[Coord, int]:
        """Component label for every alive router (memoised per epoch).

        Two routers share a label iff an alive path connects them.  Dead
        routers carry no label.  Injection-drop selection uses this: a drop
        in a different component than the destination is a guaranteed dead
        end for the scout walk, however close its coordinates look.
        """
        if self._components_epoch == self.epoch:
            return self._components
        labels: Dict[Coord, int] = {}
        label = 0
        for start in self.network.routers:
            if start in labels or start in self.network._dead_routers:
                continue
            label += 1
            labels.update(dict.fromkeys(self._bfs_from((start,)), label))
        self._components = labels
        self._components_epoch = self.epoch
        return labels

    def same_component(self, a: Coord, b: Coord) -> bool:
        """True when ``a`` and ``b`` are alive and connected by alive links."""
        labels = self.components()
        label = labels.get(tuple(a))
        return label is not None and label == labels.get(tuple(b))

    def is_partitioned(self, destination: Coord) -> bool:
        """True when no alive path from any injection drop reaches ``destination``.

        This is the loud-failure criterion: a scout failing on a connected
        mesh will eventually succeed once circuits release, so the fabric
        retries; a destination outside the alive component can never be
        reached and the fabric raises :class:`~repro.errors.RoutingError`.
        """
        return tuple(destination) not in self.alive_reachable()
