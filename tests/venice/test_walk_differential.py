"""Differential test: the scout walk vs a reference built on ``route_step``.

``VeniceNetwork.try_reserve`` walks over incremental open-port masks and
precomputed candidate tables, and writes its reservations only when it
commits.  This test checks it against a reference mesh that keeps the
straightforward model instead: every forward move reserves its link and
router-table row at once, every backtrack cancels them, and every routing
decision comes from the pure, property-tested ``routing.route_step`` over
an explicit ``usable()`` predicate computed from ground truth.

Both meshes receive the same random sequence of operations -- scouts,
circuit releases and fault transitions on random small meshes -- and after
every operation the test compares the results (circuit, forward moves,
backtracks, failure reason), every router's LFSR state and table rows, the
link/ejection/injection owners and the accounting counters.  An extra LFSR
advance, a different candidate order, a missed fault or a stale port mask
shows up as a mismatch.
"""

import random

from repro.interconnect.topology import Direction, MeshTopology, edge_key
from repro.venice.network import VeniceNetwork
from repro.venice.router import Router
from repro.venice.routing import MAX_ROUTER_VISITS, StepKind, route_step
from repro.venice.scout import FlitMode, ScoutPacket


class ReferenceMesh:
    """Reservation state and scout walk written directly from the paper."""

    def __init__(self, rows, cols, fc_count, lfsr_seed, max_misroutes, max_scout_steps):
        self.topology = MeshTopology(rows, cols)
        self.max_misroutes = max_misroutes
        self.max_scout_steps = max_scout_steps
        self.routers = {
            (row, col): Router((row, col), fc_count, (lfsr_seed + row * cols + col) % 3 + 1)
            for row in range(rows)
            for col in range(cols)
        }
        self.drops = [[(fc % rows, col) for col in range(cols)] for fc in range(fc_count)]
        self.link_owner = {}
        self.ejection_owner = {}
        self.injection_owner = {}
        self.circuits = {}  # circuit id -> (nodes, edges)
        self.dead_links = set()
        self.dead_routers = set()
        self.reservations = 0
        self.failed_reservations = 0
        self.non_minimal_circuits = 0
        self.total_scout_hops = 0
        self.next_circuit_id = 0

    def connected(self, a, b):
        """True when an alive path joins routers ``a`` and ``b``."""
        if a in self.dead_routers or b in self.dead_routers:
            return False
        seen, frontier = {a}, [a]
        while frontier:
            node = frontier.pop()
            for _, other in self.topology.neighbors(node):
                if (
                    other not in seen
                    and other not in self.dead_routers
                    and edge_key(node, other) not in self.dead_links
                ):
                    seen.add(other)
                    frontier.append(other)
        return b in seen

    def best_injection(self, fc, destination):
        points = self.drops[fc]
        if self.dead_links or self.dead_routers:
            points = [point for point in points if self.connected(point, destination)]
            if not points:
                return None
        free = [point for point in points if point not in self.injection_owner]
        pool = free or points
        return min(pool, key=lambda point: self.topology.manhattan(point, destination))

    def fail(self, reason, forward=0, back=0):
        self.failed_reservations += 1
        self.total_scout_hops += forward + back
        return None, forward, back, reason

    def try_reserve(self, packet, destination):
        """Returns ``(circuit nodes or None, forward, backtracks, reason)``."""
        if destination in self.dead_routers:
            self.failed_reservations += 1
            return None, 0, 0, "path"
        if destination in self.ejection_owner:
            self.failed_reservations += 1
            return None, 0, 0, "chip-busy"
        circuit_id = self.next_circuit_id
        self.next_circuit_id += 1
        source = self.best_injection(packet.source_fc, destination)
        if source is None or source in self.injection_owner:
            self.failed_reservations += 1
            return None, 0, 0, "path"
        if not self.routers[source].table.has_room:
            self.failed_reservations += 1
            return None, 0, 0, None

        stack = []  # (node, input port, output port, edge)
        used_ports = {}
        visits = {source: 1}
        current, input_port = source, None
        forward = back = misroutes = 0

        def usable(port):
            if port is Direction.EJECT:
                return destination not in self.ejection_owner
            if port in used_ports.get(current, ()):
                return False
            neighbor = self.topology.neighbor(current, port)
            if neighbor is None or neighbor in self.dead_routers:
                return False
            table = self.routers[neighbor].table
            if table.lookup(circuit_id) is not None or not table.has_room:
                return False
            edge = edge_key(current, neighbor)
            return edge not in self.link_owner and edge not in self.dead_links

        while True:
            if forward + back > self.max_scout_steps:
                while stack:
                    node, _, _, edge = stack.pop()
                    del self.link_owner[edge]
                    self.routers[node].cancel(circuit_id)
                return self.fail("path", forward, back)
            if visits[current] > MAX_ROUTER_VISITS:
                step = None
            else:
                step = route_step(
                    current=current,
                    destination=destination,
                    input_port=input_port,
                    usable=usable,
                    choose=self.routers[current].pick_output,
                )
                if step.kind is StepKind.BACKTRACK:
                    step = None
                elif step.kind is StepKind.FORWARD and not step.minimal:
                    if misroutes >= self.max_misroutes:
                        step = None
            if step is not None and step.kind is StepKind.EJECT:
                if input_port is not None:
                    self.routers[current].reserve(circuit_id, input_port, Direction.EJECT)
                self.ejection_owner[destination] = circuit_id
                self.injection_owner[source] = circuit_id
                nodes = [source] + [
                    self.topology.neighbor(node, port) for node, _, port, _ in stack
                ]
                edges = [edge for _, _, _, edge in stack]
                self.circuits[circuit_id] = (nodes, edges)
                self.reservations += 1
                self.total_scout_hops += forward + back
                if len(edges) != self.topology.manhattan(source, destination):
                    self.non_minimal_circuits += 1
                return nodes, forward, back, None
            if step is not None:
                port = step.output
                nxt = self.topology.neighbor(current, port)
                edge = edge_key(current, nxt)
                self.link_owner[edge] = circuit_id
                used_ports.setdefault(current, set()).add(port)
                entry = input_port if input_port is not None else Direction.EJECT
                self.routers[current].reserve(circuit_id, entry, port)
                stack.append((current, input_port, port, edge))
                visits[nxt] = visits.get(nxt, 0) + 1
                input_port = port.opposite
                current = nxt
                forward += 1
                if not step.minimal:
                    misroutes += 1
                continue
            if not stack:
                return self.fail("path", forward, back)
            node, entry, _, edge = stack.pop()
            del self.link_owner[edge]
            self.routers[node].cancel(circuit_id)
            current, input_port = node, entry
            back += 1

    def release(self, circuit_id):
        nodes, edges = self.circuits.pop(circuit_id)
        for edge in edges:
            del self.link_owner[edge]
        del self.ejection_owner[nodes[-1]]
        del self.injection_owner[nodes[0]]
        for node in nodes:
            if self.routers[node].has_reservation(circuit_id):
                self.routers[node].cancel(circuit_id)


def router_state(routers):
    return {
        node: (
            router.lfsr.state,
            [
                (entry.packet_id, entry.entry_port, entry.exit_port)
                for entry in router.table.entries()
            ],
        )
        for node, router in routers.items()
    }


def assert_same_state(real, reference, context):
    assert router_state(real.routers) == router_state(reference.routers), context
    assert real.link_owner == reference.link_owner, context
    assert real.ejection_owner == reference.ejection_owner, context
    assert real.injection_owner == reference.injection_owner, context
    assert real.reservations == reference.reservations, context
    assert real.failed_reservations == reference.failed_reservations, context
    assert real.non_minimal_circuits == reference.non_minimal_circuits, context
    assert real.total_scout_hops == reference.total_scout_hops, context
    assert sorted(real.circuits) == sorted(reference.circuits), context
    real.assert_consistent()  # includes the open-port masks vs ground truth


def build_pair(rng):
    """A real network and an identically-seeded reference mesh."""
    rows = rng.randint(2, 5)
    cols = rng.randint(2, 5)
    fc_count = rng.randint(1, rows + 2)  # table capacity: small ones fill up
    seed = rng.randint(1, 3)
    misroutes = rng.randint(0, 3)
    steps = rng.choice([256, 256, 12])
    real = VeniceNetwork(
        rows, cols, fc_count, lfsr_seed=seed, max_misroutes=misroutes, max_scout_steps=steps
    )
    reference = ReferenceMesh(rows, cols, fc_count, seed, misroutes, steps)
    return real, reference


def toggle_fault(rng, real, reference):
    """Fail or repair one random link or router on both meshes."""
    if rng.random() < 0.7:
        a, b = sorted(rng.choice(list(real.topology.edges())))
        down = rng.random() < 0.6
        real.degraded_mode().set_link(a, b, down=down)
        (reference.dead_links.add if down else reference.dead_links.discard)(edge_key(a, b))
    else:
        node = rng.choice(sorted(real.routers))
        down = rng.random() < 0.5
        real.degraded_mode().set_router(node, down=down)
        (reference.dead_routers.add if down else reference.dead_routers.discard)(node)


def scout(rng, real, reference, context):
    fc = rng.randrange(real.fc_count)
    destination = (rng.randrange(real.topology.rows), rng.randrange(real.topology.cols))
    packet = ScoutPacket(
        destination_chip=0, source_fc=fc, mode=FlitMode.RESERVE, dest_bits=8, fc_bits=4
    )
    result = real.try_reserve(packet, destination)
    nodes, forward, back, reason = reference.try_reserve(packet, destination)
    context = f"{context} fc={fc} dest={destination}"
    assert result.succeeded == (nodes is not None), context
    if result.succeeded:
        assert result.circuit.nodes == nodes, context
        assert result.circuit.edges == reference.circuits[result.circuit.circuit_id][1], context
    assert (result.forward_moves, result.backtracks) == (forward, back), context
    assert result.failure_reason == reason, context
    assert_same_state(real, reference, context)


def release_random(rng, real, reference, context):
    circuit_id = rng.choice(sorted(real.circuits))
    real.release(real.circuits[circuit_id])
    reference.release(circuit_id)
    assert_same_state(real, reference, f"{context} release {circuit_id}")


def test_walk_matches_route_step_reference_on_1k_random_fault_cases():
    rng = random.Random(0xD1FF)
    walks = 0
    while walks < 1000:
        real, reference = build_pair(rng)
        link_p = rng.choice([0.0, 0.15, 0.35])
        for edge in list(real.topology.edges()):
            if rng.random() < link_p:
                a, b = sorted(edge)
                real.degraded_mode().set_link(a, b, down=True)
                reference.dead_links.add(edge)
        for node in list(real.routers):
            if rng.random() < 0.08:
                real.degraded_mode().set_router(node, down=True)
                reference.dead_routers.add(node)
        for _ in range(rng.randint(3, 12)):
            context = (
                f"mesh {real.topology.rows}x{real.topology.cols} fcs={real.fc_count} "
                f"dead_links={len(reference.dead_links)} "
                f"dead_routers={sorted(reference.dead_routers)}"
            )
            roll = rng.random()
            if roll < 0.2 and real.circuits:
                release_random(rng, real, reference, context)
            elif roll < 0.3:
                toggle_fault(rng, real, reference)
                assert_same_state(real, reference, f"{context} fault toggle")
            else:
                scout(rng, real, reference, context)
                walks += 1
    assert walks >= 1000


def test_reference_and_walk_agree_on_pristine_mesh_decisions():
    """Fault-free slice: busy state comes only from live circuits."""
    rng = random.Random(0xD200)
    real = VeniceNetwork(4, 4, 4, lfsr_seed=2)
    reference = ReferenceMesh(4, 4, 4, 2, real.max_misroutes, real.max_scout_steps)
    for step in range(200):
        if rng.random() < 0.3 and real.circuits:
            release_random(rng, real, reference, f"step {step}")
        else:
            scout(rng, real, reference, f"step {step}")
