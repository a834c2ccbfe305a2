"""One member pool behind the sharded and federated tiers.

:class:`~repro.serving.sharded.ShardedGateway` places live sessions on
worker processes and :class:`~repro.serving.federation.FederatedGateway`
on socket hosts.  Above the transport the two are the same thing, so
it is written once, here, as :class:`MemberPool`; each tier adds only
how to reach one *member* (a command pipe to a worker process, or a
:class:`~repro.serving.net.client.GatewayClient` per host):

* **placement** — ``open_session`` (and the sharded ``import_session``)
  place a session under one of
  :data:`~repro.serving.executors.PLACEMENTS`: ``"hash"`` (a stable
  CRC-32 of the session id, so an id always lands on the same member
  for a given pool size), ``"least-loaded"`` (the member with the
  fewest open sessions, ties to the lowest index) or ``"round-robin"``
  (cyclic).  An explicit member index always wins;
* **live migration** — ``migrate_session`` releases the session on its
  member, carries the events buffered for it (the sharded tier folds
  them into the export, the federated tier keeps the source host's
  last deliveries as residue for the session's next call), imports the
  capture on the target and counts the move.  The session's event
  sequence is unaffected, only its placement changes;
* **elastic membership** — ``add_worker`` / ``add_host`` attach an
  empty member (``least-loaded`` placement fills it);
  ``retire_worker`` / ``retire_host`` drain one losslessly: every
  session it owns is live-migrated onto the survivors under the
  placement policy, a session evicted or closed under the drain is
  skipped, then the member is detached and the indices above it shift
  down by one.  Drain moves count as migrations;
* **stats rollup** — ``stats()`` sums the five load counters over
  every member's schema-pinned ``stats()``, merges their analytics
  rollups and keeps the member snapshots (``per_worker`` / ``workers``
  or ``per_host`` / ``hosts``) plus the pool's own ``migrations`` and
  ``scale_events``;
* **shutdown** — idempotent.  Afterwards the pool reads empty and
  every call raises ``RuntimeError("gateway is shut down")``.
"""

from __future__ import annotations

import zlib

from repro.serving.analytics import merge_rollups
from repro.serving.executors import validate_placement

__all__ = ["MemberPool"]

#: The load counters every member's ``stats()`` carries, summed by the
#: rollup.
LOAD_KEYS = ("n_sessions", "n_queued", "n_flushes", "n_classified", "n_evicted")


class MemberPool:
    """Live sessions placed over an indexed list of members.

    A tier subclasses it and implements the transport hooks:

    * ``workers`` — the member count (a property);
    * ``_release(index, session_id)`` — capture a session off one
      member and remove it there; returns the capture;
    * ``_import(index, session_id, capture)`` — resume it on another;
    * ``_member_stats(index)`` — one member's ``stats()``;
    * ``_detach(index)`` — stop one drained member and remove it;
    * ``_close_members()`` — stop every member at shutdown;
    * ``_forget(session_id)`` — extended where the tier keeps
      per-session transport state.
    """

    #: What one member is called in errors and in the ``stats()`` keys.
    member = "worker"
    #: Message for a member index out of range (``index``, ``n``).
    index_error = "worker must be in [0, {n}), got {index}"

    def __init__(self, placement: str):
        validate_placement(placement)
        self.placement = placement
        self._owner: dict[str, int] = {}
        self._rr_next = 0
        self.n_migrations = 0
        self.n_scale_events = 0
        self._closed = False

    def _forget(self, session_id: str) -> None:
        """Drop a session that ended, or was lost, under the pool."""
        self._owner.pop(session_id, None)

    # -- the session map -------------------------------------------------

    @property
    def n_sessions(self) -> int:
        """Currently open sessions, pool-wide."""
        return len(self._owner)

    def session_ids(self) -> list[str]:
        """Open session ids, in opening order.

        A migrated session keeps its place: the order records when a
        session was opened, not where it runs.
        """
        return list(self._owner)

    def worker_of(self, session_id: str) -> int:
        """Index of the member currently serving ``session_id``."""
        return self._owner_or_raise(session_id)

    def sessions_on(self, member: int) -> list[str]:
        """Ids of the sessions currently placed on one member (opening
        order)."""
        index = self._validate_member(member)
        return [sid for sid, owner in self._owner.items() if owner == index]

    def session_counts(self) -> list[int]:
        """Open sessions per member, from the placement map (no member
        round trip; :meth:`stats` is the synchronized view)."""
        counts = [0] * self.workers
        for owner in self._owner.values():
            counts[owner] += 1
        return counts

    # -- placement -------------------------------------------------------

    @staticmethod
    def _hash(session_id: str) -> int:
        """Stable session hash (CRC-32, not the salted ``hash``)."""
        return zlib.crc32(session_id.encode())

    def _place(self, session_id: str, exclude: int | None = None) -> int:
        """Pick a member for a session under the placement policy,
        optionally excluding one index (a draining member)."""
        candidates = [i for i in range(self.workers) if i != exclude]
        if self.placement == "hash":
            return candidates[self._hash(session_id) % len(candidates)]
        if self.placement == "round-robin":
            index = candidates[self._rr_next % len(candidates)]
            self._rr_next += 1
            return index
        counts = self.session_counts()  # least-loaded, ties -> lowest index
        return min(candidates, key=lambda i: (counts[i], i))

    def _pick(self, session_id: str, member: int | None = None) -> int:
        """The member a new session opens on: ``member`` if given,
        else the placement policy's choice."""
        self._check_open()
        if session_id in self._owner:
            raise ValueError(f"session {session_id!r} is already open")
        return self._place(session_id) if member is None else self._validate_member(member)

    def _validate_member(self, member: int) -> int:
        index = int(member)
        if not 0 <= index < self.workers:
            raise ValueError(self.index_error.format(index=member, n=self.workers))
        return index

    def _owner_or_raise(self, session_id: str) -> int:
        try:
            return self._owner[session_id]
        except KeyError:
            self._check_open()  # after shutdown the map is empty
            raise KeyError(f"no open session {session_id!r}") from None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("gateway is shut down")

    # -- migration and elasticity ----------------------------------------

    def _migrate(self, session_id: str, member: int) -> None:
        index = self._owner_or_raise(session_id)
        target = self._validate_member(member)
        if target != index:
            self._move(session_id, index, target)

    def _move(self, session_id: str, index: int, target: int) -> None:
        """Live-migrate one session between two members.  Every move —
        explicit or drain — counts in ``n_migrations``."""
        capture = self._release(index, session_id)
        try:
            self._import(target, session_id, capture)
        except BaseException:
            # Released but never imported: owned by nobody (a
            # supervisor recovers it from the journal).
            self._forget(session_id)
            raise
        self._owner[session_id] = target
        self.n_migrations += 1

    def _added(self) -> int:
        """Count a member the tier just attached; return its index."""
        self.n_scale_events += 1
        return self.workers - 1

    def _retire(self, member: int) -> int:
        """Drain one member onto the survivors, detach it, and shift
        the indices above it down; return the sessions moved."""
        self._check_open()
        index = self._validate_member(member)
        if self.workers == 1:
            raise ValueError(f"cannot retire the last {self.member}")
        moved = 0
        for session_id in self.sessions_on(index):
            # An eviction or close handled mid-drain may end a session
            # under us; re-check ownership before each move.
            if self._owner.get(session_id) != index:
                continue
            try:
                self._move(session_id, index, self._place(session_id, exclude=index))
            except KeyError:
                if session_id in self._owner:
                    raise
                continue  # ended between the check and the release
            moved += 1
        self._detach(index)
        self._owner = {
            sid: owner - 1 if owner > index else owner
            for sid, owner in self._owner.items()
        }
        self.n_scale_events += 1
        return moved

    # -- statistics ------------------------------------------------------

    def stats(self) -> dict:
        """Pool-wide statistics rollup (synchronizes every member).

        The per-member entries (``n_sessions`` open, ``n_queued`` beats
        pending in the member's batch — its queue depth — plus flush /
        classification / eviction counters); see the module docs for
        the top level.  The schema is pinned by regression tests so
        its readers cannot silently drift.  Semantics are *current pool*: a retired
        member's counters leave with it (its sessions migrate, its past
        work is not re-attributed), so the totals are always exactly
        the sum over the live member entries.
        """
        self._check_open()
        per_member = [self._member_stats(i) for i in range(self.workers)]
        totals = {
            key: sum(stats[key] for stats in per_member) for key in LOAD_KEYS
        }
        totals["analytics"] = merge_rollups(
            stats.get("analytics") for stats in per_member
        )
        totals[f"per_{self.member}"] = per_member
        totals[f"{self.member}s"] = self.workers
        totals["migrations"] = self.n_migrations
        totals["scale_events"] = self.n_scale_events
        return totals

    # -- lifecycle -------------------------------------------------------

    def shutdown(self) -> None:
        """Drop every session and stop every member (idempotent)."""
        if getattr(self, "_closed", True):
            # Also covers an instance whose __init__ raised first.
            return
        self._closed = True
        for session_id in list(self._owner):
            self._forget(session_id)
        self._close_members()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
