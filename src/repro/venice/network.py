"""Mesh-wide reservation state and the scout walk.

:class:`VeniceNetwork` owns the ground truth the routers' distributed state
represents: which bidirectional links and which chip ejection ports are held
by which circuit.  :meth:`VeniceNetwork.try_reserve` performs one complete
scout traversal -- Algorithm 1 at every router, link reservation on forward
moves, cancel-mode backtracking, livelock caps -- atomically against the
current state.  This atomicity is faithful because scout packets are two
8-bit flits travelling at nanosecond scale while the circuits they reserve
live for microseconds (see DESIGN.md §3).

One structural rule follows from Figure 7: the router reservation table has
*one row per packet ID*, so a committed circuit can cross each router at
most once.  The walk therefore never extends the path onto a router that
already holds this scout's entry; re-visiting a router is only possible
after backtracking cleared its entry (which is also exactly when the paper
allows a revisit).

Because the walk is atomic, its tentative reservations are private to it:
the walk keeps them in local state and writes router-table rows and link
ownership only when it commits, so a failed scout leaves no shared state
behind.  Each router's usable ports are kept as a 4-bit "open port"
mask, updated at commit, release and fault transitions (DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import ReservationError, RoutingError
from repro.interconnect.topology import (
    MESH_DIRECTIONS,
    Coord,
    Direction,
    MeshTopology,
    edge_key,
)
from repro.venice.router import Router
from repro.venice.routing import (
    MAX_ROUTER_VISITS,
    MINIMAL_DIRECTIONS_BY_SIGN as _MINIMAL_BY_SIGN,
)
from repro.venice.scout import FlitMode, ScoutPacket

# Port indices are Direction.value (RIGHT 0, UP 1, DOWN 2, LEFT 3), so the
# opposite of port ``d`` is ``3 - d`` and its mask bit is ``1 << d``.
#: Input-port index of a scout standing at its source router (it arrived
#: through the controller's injection port, not a mesh port).
_FROM_FC = 4
#: Router-table entry port per input-port index.
_ENTRY_PORT = MESH_DIRECTIONS + (Direction.EJECT,)
#: Per input-port index, the mask that clears that port's bit.
_NOT_INPUT = (~1, ~2, ~4, ~8, -1)


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _split(lists: List[tuple]) -> Tuple[tuple, tuple]:
    """``(only, several)``: the sole candidate of each list (else ``None``),
    and each list of 2+ candidates (else empty), which the LFSR picks from."""
    only = tuple(ports[0] if len(ports) == 1 else None for ports in lists)
    several = tuple(ports if len(ports) > 1 else () for ports in lists)
    return only, several


def _candidate_tables() -> Tuple[tuple, tuple, tuple, tuple]:
    """Algorithm 1's ordered candidate lists for every open-port mask.

    The minimal tables, indexed ``sign << 4 | mask``, hold lines 5-26's
    list: the free ports of the minimal directions for the destination's
    ``(Diff_x, Diff_y)`` sign class (``sign = 3 * (sign_x + 1) + sign_y +
    1``), X before Y.  The misroute tables, indexed by ``mask``, hold lines
    33-45's list: every free port in ``MESH_DIRECTIONS`` order (the walk has
    already cleared the input port from ``mask``).
    """
    minimal = [
        tuple(
            port
            for port in _MINIMAL_BY_SIGN[(sign // 3 - 1, sign % 3 - 1)]
            if port is not Direction.EJECT and mask >> port.value & 1
        )
        for sign in range(9)
        for mask in range(16)
    ]
    non_minimal = [
        tuple(port for port in MESH_DIRECTIONS if mask >> port.value & 1)
        for mask in range(16)
    ]
    return _split(minimal) + _split(non_minimal)


(
    _MINIMAL_ONLY,
    _MINIMAL_SEVERAL,
    _MISROUTE_ONLY,
    _MISROUTE_SEVERAL,
) = _candidate_tables()


@dataclass
class ReservedCircuit:
    """A conflict-free bidirectional circuit from an FC to a flash chip."""

    circuit_id: int  # unique per live circuit (keys router table rows)
    packet_id: int  # scout packet id == source FC id (Figure 6 encoding)
    fc_index: int
    destination: Coord
    nodes: List[Coord]  # router sequence, FC attach point first
    edges: List[FrozenSet[Coord]]  # mesh links held by the circuit
    minimal_hops: int  # Manhattan distance (non-minimality accounting)

    @property
    def mesh_hops(self) -> int:
        return len(self.edges)

    @property
    def total_hops(self) -> int:
        """Injection link + mesh links + ejection link (Equation 1 distance)."""
        return len(self.edges) + 2

    @property
    def is_minimal(self) -> bool:
        return len(self.edges) == self.minimal_hops


@dataclass
class ScoutResult:
    """Outcome of one scout traversal."""

    circuit: Optional[ReservedCircuit]
    forward_moves: int  # links the scout traversed going forward
    backtracks: int
    failure_reason: Optional[str] = None  # "chip-busy" | "path" | None

    @property
    def succeeded(self) -> bool:
        return self.circuit is not None

    @property
    def failed_on_chip(self) -> bool:
        """The destination chip's own interface was occupied.

        The paper's ideal SSD distinguishes exactly this: a request "does
        not experience path conflicts ... but it can still be delayed if the
        target flash chip is busy" (§3.3).  Chip busyness is therefore not a
        path conflict for Venice either.
        """
        return self.failure_reason == "chip-busy"

    @property
    def scout_hops(self) -> int:
        """Total link traversals of the scout (forward + backtrack legs)."""
        return self.forward_moves + self.backtracks


class VeniceNetwork:
    """Reservation ground truth for a ``rows x cols`` Venice mesh.

    ``max_misroutes`` bounds how many *non-minimal* forward moves one scout
    may take.  The paper itself flags the cost of non-minimal paths ("a
    non-minimal path occupies more links ... Venice attempts to find
    path-conflict-free minimal paths as much as possible", §4.3); an
    unbounded misroute budget lets saturated meshes degenerate into long
    link-hogging circuits that destroy concurrency.  The bound is an
    explicit policy knob (ablated in benchmarks/bench_ablation.py).
    ``max_scout_steps`` caps the total walk length as a simulation-cost
    guard; a scout that long is failing anyway and the FC would re-send it.
    """

    #: Column stride of the flash controllers' injection drops.  Venice
    #: reuses the former shared channel's multi-drop PCB routes as
    #: point-to-point injection links (the paper's §6.6 area analysis counts
    #: injection/ejection links as "the same as flash chips' connectors to
    #: the shared channel bus"), so each controller taps into its row at
    #: every second router rather than only at the west edge.  Without this
    #: the eight column-0 links form an 8 GB/s min-cut below the baseline's
    #: aggregate channel bandwidth and none of the paper's gains are
    #: reachable -- see DESIGN.md.
    INJECTION_STRIDE = 1

    def __init__(
        self,
        rows: int,
        cols: int,
        fc_count: int,
        lfsr_seed: int = 1,
        max_misroutes: int = 2,
        max_scout_steps: int = 256,
    ) -> None:
        self.max_misroutes = max_misroutes
        self.max_scout_steps = max_scout_steps
        self.topology = MeshTopology(rows, cols)
        self.fc_count = fc_count
        self.injection_cols = tuple(range(0, cols, self.INJECTION_STRIDE))
        self.routers: Dict[Coord, Router] = {}
        for row in range(rows):
            for col in range(cols):
                # Seed each router's LFSR differently so ties do not resolve
                # identically across the whole mesh.
                seed = (lfsr_seed + row * cols + col) % 3 + 1
                self.routers[(row, col)] = Router((row, col), fc_count, seed)
        self.link_owner: Dict[FrozenSet[Coord], int] = {}
        self.ejection_owner: Dict[Coord, int] = {}
        self.injection_owner: Dict[Coord, int] = {}  # occupied FC drop points
        self.circuits: Dict[int, ReservedCircuit] = {}
        # Fault masks (mutated through venice.degraded.DegradedVenice): a
        # dead link/router is excluded from usable() exactly like a busy
        # one, which is what lets Algorithm 1's existing backtracking route
        # around permanent failures.  Both sets are empty on a pristine
        # mesh, so every membership test below degenerates to a cheap miss.
        self._dead_links: Set[FrozenSet[Coord]] = set()
        self._dead_routers: Set[Coord] = set()
        self._degraded = None  # lazy DegradedVenice (see degraded_mode())
        self._injection_rows = tuple(
            tuple((fc % rows, col) for col in self.injection_cols)
            for fc in range(fc_count)
        )
        self._table_capacity = fc_count  # every router table has fc_count rows
        self._build_walk_tables()
        # accounting
        self.reservations = 0
        self.failed_reservations = 0
        self.non_minimal_circuits = 0
        self.total_scout_hops = 0
        self._next_circuit_id = 0

    def _build_walk_tables(self) -> None:
        """Int-id views of the mesh for the scout walk and the port masks.

        Routers have int ids (``row * cols + col``); per-port tables are
        flat, indexed by ``router << 2 | port``.
        """
        rows, cols = self.topology.rows, self.topology.cols
        count = rows * cols
        self._coords: List[Coord] = [(node // cols, node % cols) for node in range(count)]
        self._router_list = [self.routers[coord] for coord in self._coords]
        self._entries = [router.table._entries for router in self._router_list]
        self._neighbor_ids: List[int] = []
        self._edge_keys: List[Optional[FrozenSet[Coord]]] = []
        # Both (router, port) ends of every mesh link, and every
        # (neighbour, port) that leads into each router.
        self._link_ports: Dict[FrozenSet[Coord], Tuple[Tuple[int, int], ...]] = {}
        self._ports_into: List[List[Tuple[int, int]]] = [[] for _ in range(count)]
        for node, coord in enumerate(self._coords):
            for port, direction in enumerate(MESH_DIRECTIONS):
                other = self.topology.neighbor(coord, direction)
                if other is None:
                    self._neighbor_ids.append(-1)
                    self._edge_keys.append(None)
                    continue
                other_id = other[0] * cols + other[1]
                edge = edge_key(coord, other)
                self._neighbor_ids.append(other_id)
                self._edge_keys.append(edge)
                self._link_ports[edge] = self._link_ports.get(edge, ()) + ((node, port),)
                self._ports_into[other_id].append((node, port))
        # The walk's held routers form a bitset (bit ``router``); per router
        # and input port, the bits of its neighbours other than the one
        # behind that port.
        self._other_neighbors: List[int] = [0] * (count << 3)
        for node in range(count):
            around = self._neighbor_ids[node << 2 : (node << 2) + 4]
            every = sum(1 << other for other in around if other >= 0)
            for port, other in enumerate(around):
                behind = 1 << other if other >= 0 else 0
                self._other_neighbors[node << 3 | port] = every & ~behind
            self._other_neighbors[node << 3 | _FROM_FC] = every
        # Per destination, each router's minimal-candidate row offset: the
        # X sign class comes from the columns, the Y class from the rows.
        x_offsets = [
            [(3 * (_sign(col - node % cols) + 1)) << 4 for node in range(count)]
            for col in range(cols)
        ]
        y_offsets = [
            [(_sign(row - node // cols) + 1) << 4 for node in range(count)]
            for row in range(rows)
        ]
        self._sign_offsets: List[List[int]] = [
            [x + y for x, y in zip(x_offsets[col], y_offsets[row])]
            for row, col in self._coords
        ]
        # Per (controller, destination), the drop points nearest first (ties
        # in drop order): best_injection takes the first free one.  A
        # controller's drops share one row, so the order depends only on the
        # destination's column.
        self._drop_orders: List[List[Tuple[Coord, ...]]] = []
        for drops in self._injection_rows:
            by_column = [
                tuple(sorted(drops, key=lambda point: abs(point[1] - col)))
                for col in range(cols)
            ]
            self._drop_orders.append([by_column[col] for _, col in self._coords])
        # Open-port masks: bit ``port`` of ``_open[node]`` is set iff
        # _port_open(node, port) holds.
        self._open: List[int] = [0] * count
        self._refresh_ports((node, port) for node in range(count) for port in range(4))

    # ------------------------------------------------------------------ #
    # link state queries
    # ------------------------------------------------------------------ #

    def link_free(self, a: Coord, b: Coord) -> bool:
        return edge_key(a, b) not in self.link_owner

    def ejection_free(self, node: Coord) -> bool:
        return node not in self.ejection_owner

    def injection_free(self, node: Coord) -> bool:
        return node not in self.injection_owner

    def injection_points(self, fc_index: int) -> List[Coord]:
        """Drop points of a controller, nearest row first."""
        return list(self._injection_rows[fc_index])

    def degraded_mode(self):
        """The fault-state controller for this mesh (created on first use).

        Returns a :class:`~repro.venice.degraded.DegradedVenice`; imported
        lazily to keep the pristine-mesh hot path free of the module.
        """
        if self._degraded is None:
            from repro.venice.degraded import DegradedVenice

            self._degraded = DegradedVenice(self)
        return self._degraded

    def is_partitioned(self, destination: Coord) -> bool:
        """True when faults cut ``destination`` off from every injection drop.

        Always ``False`` on a pristine mesh (checked without building the
        degraded-mode state); otherwise delegates to the per-epoch
        reachability oracle in :mod:`repro.venice.degraded`.
        """
        if not self._dead_links and not self._dead_routers:
            return False
        return self.degraded_mode().is_partitioned(destination)

    def best_injection(self, fc_index: int, destination: Coord) -> Optional[Coord]:
        """Free drop point closest to the destination (any drop if all busy).

        Under faults, drop points whose router is dead -- or that faults
        have cut into a different alive component than the destination (a
        guaranteed dead end for the walk, however near its coordinates) --
        are unusable; ``None`` means this controller has no usable drop for
        this destination.  Distance ties go to the earlier drop point.
        """
        points = self._drop_orders[fc_index][
            destination[0] * self.topology.cols + destination[1]
        ]
        if self._dead_routers or self._dead_links:
            degraded = self.degraded_mode()
            points = tuple(
                point
                for point in points
                if degraded.same_component(point, destination)
            )
            if not points:
                return None
        occupied = self.injection_owner
        for point in points:
            if point not in occupied:
                return point
        return points[0]

    def links_in_use(self) -> int:
        return len(self.link_owner)

    # ------------------------------------------------------------------ #
    # open-port masks
    # ------------------------------------------------------------------ #

    def _port_open(self, node: int, port: int) -> bool:
        """Ground truth for one mask bit: can a scout at ``node`` use ``port``?

        True iff the port leads to an in-mesh *alive* neighbour whose
        reservation table has a free row, over a link that is neither owned
        by a circuit nor failed.  A scout additionally skips ports it has
        already reserved at this router and routers holding its own row;
        the walk applies those two rules from its local state.
        """
        slot = node << 2 | port
        neighbor = self._neighbor_ids[slot]
        if neighbor < 0 or self._coords[neighbor] in self._dead_routers:
            return False
        if len(self._entries[neighbor]) >= self._table_capacity:
            return False
        edge = self._edge_keys[slot]
        return edge not in self.link_owner and edge not in self._dead_links

    def _refresh_ports(self, ports: Iterable[Tuple[int, int]]) -> None:
        """Recompute the mask bits of ``(router, port)`` pairs from ground truth."""
        open_ports = self._open
        port_open = self._port_open
        for node, port in ports:
            if port_open(node, port):
                open_ports[node] |= 1 << port
            else:
                open_ports[node] &= ~(1 << port)

    def _refresh_link(self, edge: FrozenSet[Coord]) -> None:
        """Recompute both ends of a link that failed or recovered."""
        self._refresh_ports(self._link_ports[edge])

    def _refresh_router(self, coord: Coord) -> None:
        """Recompute the ports into a router that failed or recovered."""
        self._refresh_ports(self._ports_into[coord[0] * self.topology.cols + coord[1]])

    # ------------------------------------------------------------------ #
    # scout traversal (Algorithm 1 + backtracking + livelock caps)
    # ------------------------------------------------------------------ #

    def try_reserve(self, packet: ScoutPacket, destination: Coord) -> ScoutResult:
        """Send one reserve-mode scout; atomically reserve a circuit or fail.

        Scouts are serialised per FC by the fabric (one packet id in flight
        per controller, §4.2); the *circuits* they establish are keyed by a
        unique circuit id so one controller can hold several live circuits
        at once -- see DESIGN.md on why the published throughput requires
        multi-circuit controllers and how the router reservation table's row
        capacity becomes the per-router constraint.

        The walk is the only implementation of Algorithm 1 over live state;
        :func:`repro.venice.routing.route_step` is its pure reference.  Each
        step intersects the router's open-port mask with the scout's own
        state and reads the ordered candidate list from a precomputed table:
        candidate order and the LFSR tie-break cadence (advance only when
        choosing among 2+ candidates) match ``route_step`` exactly.  Dead
        links/routers (fault injection, DESIGN.md §7) are folded into the
        masks exactly like busy ones.
        """
        if packet.mode is not FlitMode.RESERVE:
            raise ReservationError("scout must be sent in reserve mode")
        if not self.topology.contains(destination):
            raise RoutingError(f"destination {destination} outside mesh")
        if self._dead_routers and destination in self._dead_routers:
            # The destination's own router is dead: no path can terminate
            # here until it is repaired (a true partition for this chip).
            self.failed_reservations += 1
            return ScoutResult(None, 0, 0, failure_reason="path")
        if not self.ejection_free(destination):
            # Another circuit already terminates at this chip; no path can
            # succeed until it releases, so fail without walking the mesh.
            self.failed_reservations += 1
            return ScoutResult(None, 0, 0, failure_reason="chip-busy")
        circuit_id = self._next_circuit_id
        self._next_circuit_id += 1

        source = self.best_injection(packet.source_fc, destination)
        if source is None:
            # Every drop point of this controller sits on a dead router.
            self.failed_reservations += 1
            return ScoutResult(None, 0, 0, failure_reason="path")
        if not self.injection_free(source):
            # Every drop point of this controller is carrying a circuit.
            self.failed_reservations += 1
            return ScoutResult(None, 0, 0, failure_reason="path")
        if not self.routers[source].table.has_room:
            # No free row in the source router's reservation table: the scout
            # cannot even record its first hop.
            self.failed_reservations += 1
            return ScoutResult(None, 0, 0)
        cols = self.topology.cols
        current = source[0] * cols + source[1]
        target = destination[0] * cols + destination[1]

        # The scout's state, private until commit: the routers holding its
        # row (a bitset), its view of the open-port masks (a port it
        # reserved at a router stays unusable there for the rest of the
        # walk), the visit counts, and one (router, input port, output port)
        # frame per forward move.
        held = 0
        avail = self._open[:]
        visits = [0] * len(avail)
        visits[current] = 1
        stack: List[Tuple[int, int, int]] = []
        neighbors = self._neighbor_ids
        other_neighbors = self._other_neighbors
        routers = self._router_list
        offsets = self._sign_offsets[target]
        not_input = _NOT_INPUT
        minimal_only = _MINIMAL_ONLY
        minimal_several = _MINIMAL_SEVERAL
        misroute_only = _MISROUTE_ONLY
        misroute_several = _MISROUTE_SEVERAL
        max_steps = self.max_scout_steps
        max_misroutes = self.max_misroutes
        max_visits = MAX_ROUTER_VISITS
        input_port = _FROM_FC
        forward_moves = 0
        backtracks = 0
        misroutes = 0

        while True:
            if forward_moves + backtracks > max_steps:
                # Walk-length guard: give up (nothing was written).
                return self._fail_walk(circuit_id, visits, forward_moves, backtracks)

            output = None
            # Livelock cap (§4.3): after too many revisits the scout traces
            # back to the upstream router.
            if visits[current] <= max_visits:
                if current == target:
                    # Case 9: arrived.  The chip's ejection port was free
                    # when this atomic walk began, so the scout ejects.
                    return self._commit(
                        packet, circuit_id, destination, source, target,
                        input_port, stack, forward_moves, backtracks,
                    )
                # A router already holding this scout's row has no row for
                # a second visit.  The upstream router always holds one;
                # others only where the path loops back next to this router.
                mask = avail[current] & not_input[input_port]
                if held & other_neighbors[current << 3 | input_port]:
                    slot = current << 2
                    if mask & 1 and held >> neighbors[slot] & 1:
                        mask ^= 1
                    if mask & 2 and held >> neighbors[slot | 1] & 1:
                        mask ^= 2
                    if mask & 4 and held >> neighbors[slot | 2] & 1:
                        mask ^= 4
                    if mask & 8 and held >> neighbors[slot | 3] & 1:
                        mask ^= 8
                # Lines 5-32: free minimal-direction ports, LFSR among two.
                index = offsets[current] | mask
                output = minimal_only[index]
                if output is None:
                    candidates = minimal_several[index]
                    if candidates:
                        output = routers[current].pick_output(candidates)
                    else:
                        # Lines 33-45: misroute through any free port that
                        # is not the input link.  The LFSR advances even
                        # when the misroute budget then turns the move into
                        # a backtrack.
                        output = misroute_only[mask]
                        if output is None and misroute_several[mask]:
                            output = routers[current].pick_output(
                                misroute_several[mask]
                            )
                        if output is not None:
                            if misroutes < max_misroutes:
                                misroutes += 1
                            else:
                                output = None

            if output is not None:
                port = output._value_  # plain attr: skips the enum descriptor
                avail[current] &= ~(1 << port)
                held |= 1 << current
                stack.append((current, input_port, port))
                current = neighbors[current << 2 | port]
                visits[current] += 1
                input_port = 3 - port
                forward_moves += 1
                continue

            # BACKTRACK: the scout flips to cancel mode, retreats one hop,
            # and the upstream router clears its reservation entry (§4.2).
            if not stack:
                return self._fail_walk(circuit_id, visits, forward_moves, backtracks)
            current, input_port, _ = stack.pop()
            held ^= 1 << current
            backtracks += 1

    # ------------------------------------------------------------------ #

    def _fail_walk(
        self, circuit_id: int, visits: List[int], forward_moves: int, backtracks: int
    ) -> ScoutResult:
        self.failed_reservations += 1
        self.total_scout_hops += forward_moves + backtracks
        self._assert_clean(circuit_id, visits)
        return ScoutResult(None, forward_moves, backtracks, failure_reason="path")

    def _commit(
        self,
        packet: ScoutPacket,
        circuit_id: int,
        destination: Coord,
        source: Coord,
        target: int,
        input_port: int,
        stack: List[Tuple[int, int, int]],
        forward_moves: int,
        backtracks: int,
    ) -> ScoutResult:
        """Write the walk's reservations: table rows, links, masks, owners."""
        routers = self._router_list
        neighbors = self._neighbor_ids
        edge_keys = self._edge_keys
        coords = self._coords
        link_owner = self.link_owner
        open_ports = self._open
        nodes: List[Coord] = [source]
        edges: List[FrozenSet[Coord]] = []
        rows: List[int] = []
        for node, entry, port in stack:
            slot = node << 2 | port
            edge = edge_keys[slot]
            link_owner[edge] = circuit_id
            edges.append(edge)
            routers[node].reserve(circuit_id, _ENTRY_PORT[entry], MESH_DIRECTIONS[port])
            rows.append(node)
            neighbor = neighbors[slot]
            nodes.append(coords[neighbor])
            open_ports[node] &= ~(1 << port)
            open_ports[neighbor] &= ~(1 << (3 - port))
        if input_port != _FROM_FC:
            # The destination router's row: entry port -> ejection port.
            routers[target].reserve(
                circuit_id, MESH_DIRECTIONS[input_port], Direction.EJECT
            )
            rows.append(target)
        entries = self._entries
        capacity = self._table_capacity
        for node in rows:
            if len(entries[node]) >= capacity:
                for other, port in self._ports_into[node]:
                    open_ports[other] &= ~(1 << port)
        self.ejection_owner[destination] = circuit_id
        self.injection_owner[source] = circuit_id
        circuit = ReservedCircuit(
            circuit_id=circuit_id,
            packet_id=packet.packet_id,
            fc_index=packet.source_fc,
            destination=destination,
            nodes=nodes,
            edges=edges,
            minimal_hops=self.topology.manhattan(source, destination),
        )
        self.circuits[circuit_id] = circuit
        self.reservations += 1
        self.total_scout_hops += forward_moves + backtracks
        if not circuit.is_minimal:
            self.non_minimal_circuits += 1
        return ScoutResult(circuit, forward_moves, backtracks)

    def _assert_clean(self, circuit_id: int, visits: List[int]) -> None:
        """A failed scout must leave no reservations behind.

        Only the routers the scout visited (nonzero ``visits``) could hold
        its table rows, so only those tables are checked; live links are
        checked in full (the dict is small).
        """
        if circuit_id in self.link_owner.values():
            raise ReservationError(
                f"failed scout circuit {circuit_id} left a link reserved"
            )
        for rows in compress(self._entries, visits):
            if circuit_id in rows:
                raise ReservationError(
                    f"failed scout circuit {circuit_id} left a router table entry"
                )

    # ------------------------------------------------------------------ #
    # circuit teardown
    # ------------------------------------------------------------------ #

    def release(self, circuit: ReservedCircuit) -> None:
        """Tear down a circuit after its transfer completes."""
        stored = self.circuits.pop(circuit.circuit_id, None)
        if stored is not circuit:
            raise ReservationError(
                f"releasing unknown circuit {circuit.circuit_id}"
            )
        for edge in circuit.edges:
            owner = self.link_owner.pop(edge, None)
            if owner != circuit.circuit_id:
                raise ReservationError(
                    f"link {set(edge)} owned by {owner}, not {circuit.circuit_id}"
                )
        owner = self.ejection_owner.pop(circuit.destination, None)
        if owner != circuit.circuit_id:
            raise ReservationError(
                f"ejection at {circuit.destination} owned by {owner}, "
                f"not {circuit.circuit_id}"
            )
        if circuit.nodes:
            owner = self.injection_owner.pop(circuit.nodes[0], None)
            if owner != circuit.circuit_id:
                raise ReservationError(
                    f"injection at {circuit.nodes[0]} owned by {owner}, "
                    f"not {circuit.circuit_id}"
                )
        cols = self.topology.cols
        capacity = self._table_capacity
        entries = self._entries
        stale: List[Tuple[int, int]] = []  # mask bits the release may reopen
        for node in circuit.nodes:
            router = node[0] * cols + node[1]
            rows = entries[router]
            if circuit.circuit_id in rows:
                if len(rows) >= capacity:
                    # A row comes free: ports into this router may reopen.
                    stale.extend(self._ports_into[router])
                self._router_list[router].cancel(circuit.circuit_id)
        for edge in circuit.edges:
            stale.extend(self._link_ports[edge])
        self._refresh_ports(stale)

    # ------------------------------------------------------------------ #
    # invariants (exercised by the property tests)
    # ------------------------------------------------------------------ #

    def assert_consistent(self) -> None:
        """Check global reservation invariants.

        * every held link belongs to exactly one live circuit,
        * circuits are pairwise link-disjoint (conflict-freedom),
        * every circuit is a connected path from its FC attach point to its
          destination,
        * no orphan link or ejection reservations exist,
        * every router's incremental open-port mask equals the mask
          recomputed from ground truth.
        """
        seen: Dict[FrozenSet[Coord], int] = {}
        for circuit_id, circuit in self.circuits.items():
            if circuit.nodes[0] not in self.injection_points(circuit.fc_index):
                raise ReservationError(
                    f"circuit {circuit_id} starts at {circuit.nodes[0]}, "
                    f"not one of FC {circuit.fc_index}'s drop points"
                )
            if circuit.nodes[-1] != circuit.destination:
                raise ReservationError(
                    f"circuit {circuit_id} ends at {circuit.nodes[-1]}, "
                    f"not its destination {circuit.destination}"
                )
            for node_a, node_b in zip(circuit.nodes, circuit.nodes[1:]):
                if self.topology.manhattan(node_a, node_b) != 1:
                    raise ReservationError(
                        f"circuit {circuit_id} jumps {node_a} -> {node_b}"
                    )
                edge = edge_key(node_a, node_b)
                if edge in seen:
                    raise ReservationError(
                        f"link {set(edge)} shared by circuits "
                        f"{seen[edge]} and {circuit_id}"
                    )
                seen[edge] = circuit_id
                if self.link_owner.get(edge) != circuit_id:
                    raise ReservationError(
                        f"link {set(edge)} not owned by circuit {circuit_id}"
                    )
            if self.ejection_owner.get(circuit.destination) != circuit_id:
                raise ReservationError(
                    f"ejection of circuit {circuit_id} not reserved"
                )
        for edge, owner in self.link_owner.items():
            if owner not in self.circuits:
                raise ReservationError(f"orphan link {set(edge)} owned by {owner}")
        for node, owner in self.ejection_owner.items():
            if owner not in self.circuits:
                raise ReservationError(f"orphan ejection at {node} owned by {owner}")
        for node, owner in self.injection_owner.items():
            if owner not in self.circuits:
                raise ReservationError(f"orphan injection at {node} owned by {owner}")
        for node, coord in enumerate(self._coords):
            truth = sum(1 << port for port in range(4) if self._port_open(node, port))
            if self._open[node] != truth:
                raise ReservationError(
                    f"open-port mask of router {coord} is {self._open[node]:04b}, "
                    f"ground truth {truth:04b}"
                )
