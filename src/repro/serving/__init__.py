"""Serving layer: batch fleet execution + live session gateway.

The per-record APIs (:meth:`repro.platform.node_sim.NodeSimulator.process_record`,
the :mod:`repro.dsp.streaming` classes) model one WBSN node.  A back
end — the roadmap's heavy-traffic scenario — serves *many* nodes at
once; this package is that workload's engine, in two shapes:

* **Batch** (:mod:`repro.serving.engine`): :func:`classify_streams`
  replays complete streams through a :class:`StreamGateway` (the live
  shape below) as one session each, in bounded memory;
  :func:`simulate_records` replays records through the node model.  :class:`FleetTrace` / :class:`StreamResult`
  (:mod:`repro.serving.results`) are their outputs.
* **Live** (:mod:`repro.serving.gateway`): :class:`StreamGateway`
  multiplexes many concurrently open streaming sessions —
  ``open_session`` / ``ingest`` (or a round of them,
  ``ingest_round``) / ``close_session`` — into
  size- and latency-bounded cross-session classifier batches, with
  per-session results bit-exact with a standalone
  :class:`~repro.dsp.streaming.StreamingNode`, per-session QoS
  (latency budgets, idle eviction) and session migration.
* **Sharded live** (:mod:`repro.serving.sharded`):
  :class:`ShardedGateway` runs one ``StreamGateway`` per worker
  process, places sessions across the pool by a pluggable policy
  (:data:`PLACEMENTS`), migrates them live, grows/shrinks the pool
  elastically (``add_worker`` / ``retire_worker``) — same session
  surface, same per-session bit-exactness, for every worker count.
  Given a journal, the pool heals its own worker crashes: it respawns
  a dead worker in place and replays snapshot+log to rebuild every
  lost session bit-exactly.
  Placement, migration, the drain and the ``stats()`` rollup are one
  :class:`~repro.serving.pool.MemberPool` (:mod:`repro.serving.pool`),
  shared with the federation tier below.  Placement is static: no
  policy moves sessions on its own, because every move splits a
  worker's batched classifier pass.
* **Off-box** (:mod:`repro.serving.net`): a zero-copy length-prefixed
  wire protocol, an asyncio :class:`GatewayServer` fronting any of the
  gateways above, and a pipelined :class:`GatewayClient` with
  retry/backoff and bit-exact reconnect-resume — the same session
  surface over TCP, so fleet drivers run unmodified off-host.
* **Durability** (:mod:`repro.serving.durability`): a write-ahead
  :class:`SessionJournal` (periodic ``SessionExport`` snapshots + an
  append-only chunk log per session, over pluggable
  :class:`JournalStore` backends — memory and file-per-session) and
  the replay that rebuilds a journaled session bit-exactly, in a
  healed worker or after a restart (:func:`recover_sessions`) —
  chunk-invariance as the recovery contract.
* **Analytics** (:mod:`repro.serving.analytics`): composable O(1)
  per-beat streaming operators over the gateway's beat-event bus —
  incremental RR statistics (:class:`RRStats`), frequency-domain HRV
  on a cadence (:class:`HRVSpectral`), tachy/brady episode detection
  with onset/offset hysteresis (:class:`RateEpisodes`) and flagged-run
  aggregation (:class:`ArrhythmiaEpisodes`) — folded once per gateway
  flush into per-session :class:`AnalyticsPipeline` state that rides
  :class:`SessionExport` bit-exactly and rolls up through every tier's
  ``stats()`` (:func:`merge_rollups`).
* **Federation** (:mod:`repro.serving.federation`):
  :class:`FederatedGateway` — the same member pool, with hosts as the
  members — routes sessions across N gateway hosts —
  cross-host placement (:data:`PLACEMENTS`), wire-level live migration
  (``MIGRATE``), lossless ``retire_host`` drains and a fleet-wide
  ``stats()`` rollup; :func:`spawn_host` launches local
  backend hosts as separate processes for true multi-core scale-out.

Both in-process shapes accept plain lists/arrays, so callers can queue
above them without this package taking a position on the transport;
the :mod:`~repro.serving.net` subpackage is that transport when the
producer is on another host.
"""

from repro.serving.analytics import (
    AnalyticsPipeline,
    ArrhythmiaEpisodes,
    Episode,
    HRVSpectral,
    RateEpisodes,
    RRStats,
    default_pipeline,
    empty_rollup,
    merge_rollups,
)
from repro.serving.engine import classify_streams, simulate_records
from repro.serving.durability import (
    FileJournalStore,
    JournalStore,
    MemoryJournalStore,
    SessionJournal,
    open_journal,
    recover_sessions,
)
from repro.serving.executors import PLACEMENTS
from repro.serving.federation import FederatedGateway, HostProcess, spawn_host
from repro.serving.gateway import (
    BeatBatch,
    SessionExport,
    StreamGateway,
    serve_round_robin,
)
from repro.serving.loadgen import (
    LoadgenReport,
    find_max_sustained,
    replay_fleet,
    synthesize_fleet,
)
from repro.serving.net import GatewayClient, GatewayServer, serve_in_thread
from repro.serving.results import FleetTrace, StreamResult
from repro.serving.sharded import ShardedGateway, WorkerCrashError

__all__ = [
    "PLACEMENTS",
    "AnalyticsPipeline",
    "ArrhythmiaEpisodes",
    "BeatBatch",
    "Episode",
    "FederatedGateway",
    "FileJournalStore",
    "FleetTrace",
    "GatewayClient",
    "HostProcess",
    "GatewayServer",
    "HRVSpectral",
    "JournalStore",
    "LoadgenReport",
    "MemoryJournalStore",
    "RRStats",
    "RateEpisodes",
    "SessionExport",
    "SessionJournal",
    "ShardedGateway",
    "StreamGateway",
    "StreamResult",
    "WorkerCrashError",
    "classify_streams",
    "default_pipeline",
    "empty_rollup",
    "find_max_sustained",
    "merge_rollups",
    "open_journal",
    "recover_sessions",
    "replay_fleet",
    "serve_in_thread",
    "serve_round_robin",
    "simulate_records",
    "spawn_host",
    "synthesize_fleet",
]
