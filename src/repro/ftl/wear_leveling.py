"""Wear leveling (paper §2.2).

Flash blocks endure a limited number of program/erase cycles, so the FTL
"distributes the writes evenly across all the flash blocks".  Two mechanisms
cooperate here:

* *dynamic* leveling is already built into the allocator and the GC victim
  policy (both prefer low-erase-count blocks),
* *static* leveling, implemented by :class:`WearLeveler`, watches the spread
  between the most- and least-worn blocks and, when it exceeds a threshold,
  schedules a swap: the coldest data (a block full of valid pages that has
  not been erased in a long time) is migrated onto the most-worn block's
  plane so the low-wear block re-enters circulation.

The leveler emits the same internal transactions as GC, so its traffic also
contends on the communication fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.controller.pipeline import TransactionPipeline
from repro.controller.transaction import (
    FlashTransaction,
    TransactionKind,
    TransactionSource,
)
from repro.errors import GarbageCollectionError
from repro.ftl.allocator import PageAllocator
from repro.ftl.mapping import MappingTable
from repro.nand.address import ChipAddress, PhysicalPageAddress
from repro.nand.array import FlashArray
from repro.nand.chip import PageState
from repro.sim.engine import Engine


@dataclass
class WearStats:
    """Erase-count distribution snapshot."""

    minimum: int
    maximum: int
    mean: float

    @property
    def spread(self) -> int:
        """Erase-count gap between the most- and least-worn blocks."""
        return self.maximum - self.minimum


class WearLeveler:
    """Static wear leveling via cold-block migration."""

    def __init__(
        self,
        engine: Engine,
        array: FlashArray,
        mapping: MappingTable,
        allocator: PageAllocator,
        pipeline: TransactionPipeline,
        *,
        spread_threshold: int = 8,
        enabled: bool = True,
    ) -> None:
        self.engine = engine
        self.array = array
        self.mapping = mapping
        self.allocator = allocator
        self.pipeline = pipeline
        self.spread_threshold = spread_threshold
        self.enabled = enabled
        self.migrations = 0
        self.swaps_triggered = 0
        self._active = False
        # needs_leveling's answer and the erase-clock tick it was taken at:
        # the spread moves only when some block's erase count does.
        self._checked_at = -1
        self._spread_exceeded = False

    # ------------------------------------------------------------------ #

    def wear_stats(self) -> WearStats:
        """Snapshot the erase-count distribution across every block.

        Untouched blocks are never built; each counts as erase count 0.
        """
        counts: List[int] = []
        untouched = 0
        for _, _, plane in self.array.iter_planes():
            counts.extend(
                block.erase_count for block in plane.materialised_blocks()
            )
            untouched += plane.untouched_blocks
        blocks = len(counts) + untouched
        if not blocks:
            return WearStats(0, 0, 0.0)
        if untouched:
            counts.append(0)  # stands for every untouched block
        return WearStats(min(counts), max(counts), sum(counts) / blocks)

    def needs_leveling(self) -> bool:
        """Whether the wear spread exceeds the leveling threshold.

        Rescans only after an erase or a restore has ticked the array's
        erase clock since the last answer.
        """
        if not self.enabled:
            return False
        ticks = self.array.erase_clock.ticks
        if ticks != self._checked_at:
            self._checked_at = ticks
            self._spread_exceeded = self.wear_stats().spread > self.spread_threshold
        return self._spread_exceeded

    def maybe_trigger(self) -> bool:
        """Start one leveling pass if needed and none is already running."""
        if self._active or not self.needs_leveling():
            return False
        self._active = True
        self.engine.process(self._level(), name="wear-leveler")
        return True

    # ------------------------------------------------------------------ #

    def _find_cold_block(self) -> Optional[Tuple[int, int]]:
        """(plane_flat, block_index) of the coldest fully-valid block."""
        best: Optional[Tuple[int, int]] = None
        best_erases: Optional[int] = None
        plane_flat = -1
        for chip, die, plane in self.array.iter_planes():
            plane_flat += 1
            # An untouched block holds no valid page, so it is never cold.
            for block in plane.materialised_blocks():
                if block.valid_count != block.pages_per_block:
                    continue  # only fully-valid (cold, never rewritten) blocks
                if best_erases is None or block.erase_count < best_erases:
                    best = (plane_flat, block.index)
                    best_erases = block.erase_count
        return best

    def _level(self) -> Generator:
        """Migrate one cold block so its low-wear block becomes writable."""
        self.swaps_triggered += 1
        try:
            cold = self._find_cold_block()
            if cold is None:
                return
            plane_flat, block_index = cold
            geometry = self.array.geometry
            die_flat, plane_index = divmod(plane_flat, geometry.planes_per_die)
            chip_flat, die_index = divmod(die_flat, geometry.dies_per_chip)
            chip_address = ChipAddress.from_flat(chip_flat, geometry)
            plane = self.allocator.plane(plane_flat)
            block = plane.block(block_index)

            for page in range(block.write_pointer):
                if block.page_states[page] is not PageState.VALID:
                    continue
                source = PhysicalPageAddress(
                    chip=chip_address,
                    die=die_index,
                    plane=plane_index,
                    block=block_index,
                    page=page,
                )
                read = FlashTransaction(
                    kind=TransactionKind.READ,
                    addresses=[source],
                    payload_bytes=geometry.page_size,
                    source=TransactionSource.WEAR,
                )
                yield from self.pipeline.service(read)
                try:
                    target = self.allocator.allocate()
                except GarbageCollectionError:
                    return  # device too full to level right now
                program = FlashTransaction(
                    kind=TransactionKind.PROGRAM,
                    addresses=[target],
                    payload_bytes=geometry.page_size,
                    source=TransactionSource.WEAR,
                )
                yield from self.pipeline.service(program)
                self.mapping.remap_physical(
                    source.page_flat_index(geometry),
                    target.page_flat_index(geometry),
                )
                self.array.block_for(source).invalidate_page(page)
                self.migrations += 1

            erase = FlashTransaction(
                kind=TransactionKind.ERASE,
                addresses=[
                    PhysicalPageAddress(
                        chip=chip_address,
                        die=die_index,
                        plane=plane_index,
                        block=block_index,
                        page=0,
                    )
                ],
                payload_bytes=0,
                source=TransactionSource.WEAR,
            )
            yield from self.pipeline.service(erase)
        finally:
            self._active = False
