"""Off-box serving: the wire transport layer of the gateway tier.

This subpackage moves the serving surface off-host without giving up
the throughput the in-process tier earned:

* :mod:`repro.serving.net.protocol` — a length-prefixed binary frame
  codec that carries ingest chunks and event batches as raw numpy
  buffers behind small packed headers (no per-chunk pickle);
* :mod:`repro.serving.net.server` — an asyncio socket server fronting
  any gateway-shaped object: it acknowledges every ingest, applies the
  ingest frames of each socket read as one ``ingest_round``, and
  coalesces each gateway flush into one framed burst per connection;
* :mod:`repro.serving.net.client` — a pipelined synchronous client
  that multiplexes sessions over one connection, with retry/backoff/
  timeout discipline, bit-exact reconnect-resume of the sessions a
  dead connection left parked (still open) in the gateway, and
  ``MIGRATE`` built on the gateway's
  :class:`~repro.serving.gateway.SessionExport` handshake.

The client mirrors the gateway session surface, so fleet drivers such
as :func:`repro.serving.loadgen.replay_fleet` run unmodified against a
remote server.
"""

from repro.serving.net.client import (
    ClientError,
    ClientTimeout,
    ConnectError,
    GatewayClient,
    MigratedSession,
    RemoteError,
)
from repro.serving.net.protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
)
from repro.serving.net.server import GatewayServer, ServerHandle, serve_in_thread

__all__ = [
    "ClientError",
    "ClientTimeout",
    "ConnectError",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "FrameTooLarge",
    "GatewayClient",
    "GatewayServer",
    "MigratedSession",
    "ProtocolError",
    "RemoteError",
    "ServerHandle",
    "serve_in_thread",
]
