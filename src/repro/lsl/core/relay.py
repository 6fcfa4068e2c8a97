"""Depot-side (``lsd``) protocol decisions.

A depot's protocol duties are small and easy to get subtly wrong (the
PR 2 bug sweep was mostly here): parse the header incrementally, check
it is *not* the final hop, advance the hop index in the received bytes
(:func:`~repro.lsl.core.wire.onward_header`), choose the next hop,
carry any payload that piggybacked with the header, and classify FIN
timing — a FIN before the header completes is a protocol error, while
a FIN after the header but before the relay exists (the dial window)
is legal and must be replayed to the pumps. :class:`RelayCore` owns
those decisions; the byte pumping itself stays with the drivers
(:class:`repro.lsl.relay.RelayPump` in the simulator, blocking copy
threads in the socket ``lsd``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.lsl.core.chunks import Chunk, ChunkLike
from repro.lsl.core.errors import LslError, ProtocolError, RouteError
from repro.lsl.core.events import ProtocolObserver, emit
from repro.lsl.core.wire import HeaderAccumulator, LslHeader, RouteHop, onward_header


@dataclass(frozen=True)
class RelayForward:
    """Dial ``next_hop``, send ``onward_bytes`` (the received header,
    one hop on), then replay ``surplus`` ahead of the relayed stream."""

    header: LslHeader
    next_hop: RouteHop
    onward_bytes: bytes
    surplus: Tuple[Chunk, ...]


@dataclass(frozen=True)
class RelayReject:
    """Refuse the sublink (abort upstream); ``error`` says why."""

    error: LslError


RelayDecision = Union[RelayForward, RelayReject]


class RelayCore:
    """Sans-I/O header phase of one depot session."""

    def __init__(self, observer: Optional[ProtocolObserver] = None) -> None:
        self._accumulator = HeaderAccumulator()
        self._observer = observer
        self.header: Optional[LslHeader] = None
        self.decided = False

    @property
    def header_complete(self) -> bool:
        return self.header is not None

    def feed(self, chunks: List[ChunkLike]) -> Optional[RelayDecision]:
        """Consume upstream chunks until the header resolves.

        Returns None while incomplete, then exactly one decision.
        Chunks past the header (and past a decision) come back inside
        :attr:`RelayForward.surplus` — payload the depot must forward
        after the advanced header.
        """
        if self.decided:
            raise ProtocolError("relay header phase already decided")
        acc = self._accumulator
        surplus: List[Chunk] = []
        header = None
        for raw in chunks:
            if header is not None:
                surplus.append(Chunk(raw.length, raw.data))
                continue
            if raw.data is None:
                return self._reject(ProtocolError("virtual bytes before LSL header"))
            try:
                header = acc.feed(raw.data)
            except LslError as exc:  # malformed bytes or an impossible route
                return self._reject(exc)
        if header is None:
            return None
        if header.is_last_hop:
            return self._reject(RouteError("depot addressed as final hop"))
        self.header = header
        self.decided = True
        if acc.surplus:
            surplus.insert(0, Chunk.real(acc.surplus))
        next_hop = header.next_hop
        if self._observer is not None:
            emit(self._observer, "relay-forward", header.short_id,
                 hop_index=header.hop_index, next_hop=str(next_hop))
        return RelayForward(
            header=header,
            next_hop=next_hop,
            onward_bytes=onward_header(acc.raw),
            surplus=tuple(surplus),
        )

    def on_upstream_fin(self) -> Optional[ProtocolError]:
        """Classify upstream FIN timing.

        Returns the error to fail the session with when the FIN landed
        before the header completed; None when it is legal (the header
        is parsed and EOF is now the pumps' business — including the
        dial window, where the driver must replay EOF to the pumps it
        is about to create).
        """
        if self.header is None:
            return ProtocolError("sublink closed before header complete")
        return None

    def _reject(self, error: LslError) -> RelayReject:
        self.decided = True
        emit(self._observer, "relay-rejected",
             self.header.short_id if self.header else "",
             reason=str(error))
        return RelayReject(error)
