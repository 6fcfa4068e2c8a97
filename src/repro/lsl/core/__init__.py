"""The sans-I/O LSL protocol core.

One implementation of the Logistical Session Layer protocol — header
codec and handshake sequencing, session registry and resume
negotiation, depot relay decisions, framing and the end-to-end digest
trailer — expressed as pure state machines that **consume bytes or
chunks and return decisions**. Nothing in this package performs I/O,
schedules time, or imports the simulator kernel or the ``socket``
module; both the discrete-event stack (:mod:`repro.lsl`) and the
real-socket stack (:mod:`repro.sockets`) are thin drivers over these
machines (h11-style: one protocol core, many transports).

Driver contract (see ``docs/PROTOCOL.md`` §7 for the checklist):

- bytes in: drivers feed whatever the transport delivered
  (:class:`HeaderAccumulator`, :class:`ClientHandshake.feed`,
  :class:`PayloadReceiver.feed`, :class:`RelayCore.feed`);
- decisions out: machines return actions/events the driver maps onto
  its transport (send these bytes, dial this hop, deliver this chunk,
  the session completed/failed/suspended);
- the machines never call back into the driver except through the
  optional :data:`ProtocolObserver` hook, which exists solely for
  telemetry.
"""

from repro.lsl.core.chunks import Chunk, ChunkLike
from repro.lsl.core.errors import (
    DepotDown,
    DigestMismatch,
    FailoverExhausted,
    LslError,
    ProtocolError,
    RouteError,
    SessionUnknown,
)
from repro.lsl.core.wire import (
    FLAG_DIGEST,
    FLAG_FRAMED,
    FLAG_REBIND,
    FLAG_RESUME_QUERY,
    FLAG_SYNC,
    FLAG_TRACE,
    HEADER_MAGIC,
    HEADER_VERSION,
    MAX_HOPS,
    SESSION_ACK,
    STREAM_UNTIL_FIN,
    HeaderAccumulator,
    IncompleteHeader,
    LslHeader,
    RouteHop,
    TraceContext,
)
from repro.lsl.core.digest import (
    DIGEST_LEN,
    StreamDigest,
    real_digest_factory,
    virtual_digest_factory,
)
from repro.lsl.core.framing import (
    FRAME_HEADER_LEN,
    MAX_FRAME_PAYLOAD,
    FrameDecoder,
    encode_frame_header,
)
from repro.lsl.core.events import (
    CC_STATES,
    KNOWN_KINDS,
    ProtocolEvent,
    ProtocolObserver,
)
from repro.lsl.core.handshake import ClientHandshake
from repro.lsl.core.sender import PayloadSender
from repro.lsl.core.receiver import (
    EOF_CLOSE,
    EOF_COMPLETE,
    EOF_SUSPEND,
    Completed,
    Deliver,
    Failed,
    FramedReceiver,
    PayloadReceiver,
    ReceiverEvent,
)
from repro.lsl.core.session import (
    AcceptDecision,
    AcceptNew,
    AcceptRebind,
    BackoffPolicy,
    FailoverLadder,
    RejectSession,
    RestartSession,
    SessionAcceptor,
    SessionId,
    SessionRecord,
    SessionRegistry,
    establishment_reply,
    negotiate_resume,
    new_session_id,
)
from repro.lsl.core.relay import RelayCore, RelayForward, RelayReject
from repro.lsl.core.striping import (
    DEFAULT_STRIPE,
    PARITY_BASE,
    Assignment,
    Redundancy,
    StripeAssembler,
    StripeScheduler,
    parse_redundancy,
)

__all__ = [
    "Chunk",
    "ChunkLike",
    "LslError",
    "ProtocolError",
    "RouteError",
    "SessionUnknown",
    "DigestMismatch",
    "DepotDown",
    "FailoverExhausted",
    "HEADER_MAGIC",
    "HEADER_VERSION",
    "SESSION_ACK",
    "STREAM_UNTIL_FIN",
    "MAX_HOPS",
    "FLAG_DIGEST",
    "FLAG_REBIND",
    "FLAG_SYNC",
    "FLAG_FRAMED",
    "FLAG_RESUME_QUERY",
    "FLAG_TRACE",
    "LslHeader",
    "RouteHop",
    "TraceContext",
    "IncompleteHeader",
    "HeaderAccumulator",
    "StreamDigest",
    "DIGEST_LEN",
    "virtual_digest_factory",
    "real_digest_factory",
    "FrameDecoder",
    "encode_frame_header",
    "FRAME_HEADER_LEN",
    "MAX_FRAME_PAYLOAD",
    "ProtocolEvent",
    "ProtocolObserver",
    "KNOWN_KINDS",
    "CC_STATES",
    "ClientHandshake",
    "PayloadSender",
    "PayloadReceiver",
    "FramedReceiver",
    "ReceiverEvent",
    "Deliver",
    "Completed",
    "Failed",
    "EOF_COMPLETE",
    "EOF_SUSPEND",
    "EOF_CLOSE",
    "SessionId",
    "SessionRecord",
    "SessionRegistry",
    "SessionAcceptor",
    "AcceptDecision",
    "AcceptNew",
    "AcceptRebind",
    "RestartSession",
    "RejectSession",
    "BackoffPolicy",
    "FailoverLadder",
    "new_session_id",
    "establishment_reply",
    "negotiate_resume",
    "RelayCore",
    "RelayForward",
    "RelayReject",
    "DEFAULT_STRIPE",
    "PARITY_BASE",
    "Assignment",
    "Redundancy",
    "StripeScheduler",
    "StripeAssembler",
    "parse_redundancy",
]
