"""Memory slave models.

:class:`MemorySlave` is the standard bus slave: sparse word-addressed
storage with configurable wait states.  It exposes both access styles
used in the library:

* ``access(request)`` — zero-time functional access, what the CCATB bus
  models call after they have accounted for all timing themselves;
* ``transport(request)`` — blocking :class:`~repro.ocp.tl.OcpTargetIf`
  access that charges the wait states itself, for direct point-to-point
  use (pin adapters, test benches).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import BurstSeq, OcpRequest, OcpResp, OcpResponse


class MemorySlave(SimObject, OcpTargetIf):
    """Sparse RAM with word-granular storage.

    Parameters
    ----------
    size:
        Region size in bytes; accesses outside ``[0, size)`` (after the
        bus strips the region base) return ERR.
    word_bytes:
        Word width; addresses are truncated to word alignment.
    read_wait / write_wait:
        Wait states in cycles charged by ``transport`` (and advertised to
        CCATB buses through :meth:`wait_states`).
    cycle:
        Cycle duration used by ``transport``; unused for ``access``.
    readonly:
        ROM behaviour — writes return ERR and leave the contents alone.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        size: int = 1 << 20,
        word_bytes: int = 4,
        read_wait: int = 1,
        write_wait: int = 1,
        cycle: Optional[SimTime] = None,
        readonly: bool = False,
    ):
        super().__init__(name, parent, ctx)
        if size <= 0:
            raise ValueError(f"memory {name!r}: size must be positive")
        if word_bytes not in (1, 2, 4, 8):
            raise ValueError(
                f"memory {name!r}: word_bytes must be 1/2/4/8"
            )
        self.size = size
        self.word_bytes = word_bytes
        self.read_wait = read_wait
        self.write_wait = write_wait
        self.cycle = cycle
        self.readonly = readonly
        self._words: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self._word_mask = (1 << (8 * word_bytes)) - 1

    # -- raw storage helpers -----------------------------------------------------

    def _word_index(self, addr: int) -> int:
        return addr // self.word_bytes

    def load_words(self, addr: int, values) -> None:
        """Test/bootstrap helper: poke words starting at ``addr``."""
        for i, value in enumerate(values):
            self._words[self._word_index(addr) + i] = value & self._word_mask

    def peek_word(self, addr: int) -> int:
        """Read one word without simulating an access."""
        return self._words.get(self._word_index(addr), 0)

    def wait_states(self, request: OcpRequest) -> int:
        """Wait states a CCATB bus should charge for this request."""
        return self.read_wait if request.cmd.is_read else self.write_wait

    # -- functional access (zero simulated time) -----------------------------------

    def access(self, request: OcpRequest) -> OcpResponse:
        """Zero-time functional access; bounds-checked."""
        addr = request.addr
        burst = request.burst_length
        word_bytes = self.word_bytes
        incr = request.burst_seq is BurstSeq.INCR
        if incr:
            last = addr + (burst - 1) * request.word_bytes
        else:
            last = request.beat_address(burst - 1)
        if not (0 <= addr and last + word_bytes <= self.size):
            return OcpResponse.error()
        # Storage index of every beat, in beat order.
        if incr and request.word_bytes == word_bytes:
            # (addr + beat * word_bytes) // word_bytes, beat by beat
            first = addr // word_bytes
            indices = range(first, first + burst)
        else:
            indices = [request.beat_address(beat) // word_bytes
                       for beat in range(burst)]
        words = self._words
        if request.cmd.is_write:
            if self.readonly:
                return OcpResponse.error()
            data = request.data
            mask = self._word_mask
            byte_en = request.byte_en
            for beat, index in enumerate(indices):
                value = data[beat] & mask
                if byte_en is not None:
                    value = self._merge_bytes(index, value, byte_en)
                words[index] = value
            self.writes += 1
            return OcpResponse(OcpResp.DVA)
        data = [words.get(index, 0) for index in indices]
        self.reads += 1
        return OcpResponse(OcpResp.DVA, data)

    def _merge_bytes(self, index: int, new: int, byte_en: int) -> int:
        old = self._words.get(index, 0)
        merged = 0
        for byte in range(self.word_bytes):
            mask = 0xFF << (8 * byte)
            source = new if byte_en & (1 << byte) else old
            merged |= source & mask
        return merged

    # -- checkpoint/restore protocol (see repro.snapshot) -----------------------

    def __snapshot__(self) -> dict:
        return {
            "words": {str(index): value
                      for index, value in self._words.items()},
            "reads": self.reads,
            "writes": self.writes,
        }

    def __restore__(self, state: dict) -> None:
        self._words = {int(index): value
                       for index, value in state["words"].items()}
        self.reads = state["reads"]
        self.writes = state["writes"]

    # -- blocking transport ------------------------------------------------------------

    def transport(self, request: OcpRequest) -> Generator:
        waits = self.wait_states(request)
        if self.cycle is not None and waits:
            yield self.cycle * waits
        return self.access(request)


class Rom(MemorySlave):
    """Read-only memory; construct, then ``load_words`` the image."""

    def __init__(self, name, parent=None, ctx=None, **kwargs):
        kwargs.setdefault("write_wait", 0)
        super().__init__(name, parent, ctx, readonly=True, **kwargs)
