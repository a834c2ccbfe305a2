"""Shard splitting and the pluggable executors behind the serving layer.

Every serving entry point reduces to the same shape of work: split a
batch of independent items into contiguous shards, run one function
per shard somewhere (in-process, a thread pool, or a process pool),
and concatenate the shard outputs in submission order.  This module
owns that machinery so :mod:`repro.serving.engine` and
:mod:`repro.serving.gateway` stay about *what* runs, not *where*.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

#: Executor names the serving layer accepts.
EXECUTORS = ("serial", "threads", "processes")

#: Overflow policies a bounded session inbox accepts
#: (:class:`repro.serving.sharded.SessionInbox`).
INBOX_POLICIES = ("block", "drop")

#: Placement policies :class:`repro.serving.sharded.ShardedGateway`
#: accepts for assigning sessions to workers (``open_session`` /
#: ``import_session`` consult the configured placer).
PLACEMENTS = ("hash", "least-loaded", "round-robin")

def validate_executor(executor: str) -> str:
    """Return ``executor`` or raise a :class:`ValueError` naming the
    allowed values."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    return executor


def validate_workers(workers: int) -> int:
    """Return ``workers`` or raise a :class:`ValueError` naming the
    allowed values."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def validate_at_least(name: str, value: int, minimum: int = 1) -> int:
    """Return ``value`` or raise a :class:`ValueError` naming the bound.

    The shared lower-bound check every serving knob goes through, so
    ``StreamGateway``, ``ShardedGateway`` and ``ServingEngine`` all
    phrase their errors the same way (``"<name> must be >= <minimum>,
    got <value>"``).
    """
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def validate_inbox_policy(policy: str) -> str:
    """Return ``policy`` or raise a :class:`ValueError` naming the
    allowed values."""
    if policy not in INBOX_POLICIES:
        raise ValueError(
            f"unknown inbox policy {policy!r}; expected one of {INBOX_POLICIES}"
        )
    return policy


def validate_placement(placement: str) -> str:
    """Return ``placement`` or raise a :class:`ValueError` naming the
    allowed values."""
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
        )
    return placement


def split_shards(items: list, n_shards: int) -> list[list]:
    """Split ``items`` into at most ``n_shards`` contiguous, non-empty
    shards of near-equal size (order preserved)."""
    n_shards = max(1, min(n_shards, len(items)))
    bounds = np.linspace(0, len(items), n_shards + 1).astype(int)
    return [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def map_shards(executor: str, workers: int, fn, tasks: list) -> list:
    """Run ``fn`` over ``tasks`` under the named executor.

    Outputs are returned in task order whatever the executor, so shard
    concatenation downstream is deterministic.  Single-task batches and
    single-worker pools short-circuit to the serial path (a pool can
    only add overhead there).
    """
    validate_executor(executor)
    validate_workers(workers)
    if executor == "serial" or workers == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    pool_cls = ThreadPoolExecutor if executor == "threads" else ProcessPoolExecutor
    with pool_cls(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))
