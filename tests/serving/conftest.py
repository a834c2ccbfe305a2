"""Shared fixtures/helpers for the serving-layer test modules.

The gateway tier's single contract — per-session event sequences
bit-exact with a standalone inline-mode ``StreamingNode`` — is asserted
the same way everywhere, so the comparison helpers live here.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.dsp.streaming import StreamingNode


def pytest_generate_tests(metafunc):
    """Parametrize ``chaos_seed`` arguments, overridable via env.

    A chaos test declares its default seed set with
    ``@pytest.mark.chaos_seeds(0, 1, 2)`` and takes a ``chaos_seed``
    argument.  ``REPRO_CHAOS_SEED`` (a comma-separated list of ints)
    overrides every default set, so a CI failure seed can be replayed
    locally with ``REPRO_CHAOS_SEED=<seed> pytest tests/serving/...``
    without editing the suite.
    """
    if "chaos_seed" not in metafunc.fixturenames:
        return
    marker = metafunc.definition.get_closest_marker("chaos_seeds")
    seeds = list(marker.args) if marker is not None else [0]
    override = os.environ.get("REPRO_CHAOS_SEED")
    if override:
        seeds = [int(part) for part in override.split(",")]
    metafunc.parametrize("chaos_seed", seeds)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "chaos_seeds(*seeds): default seed set for a chaos test"
    )


def _assert_events_equal(expected, actual) -> None:
    """Event sequences identical: peaks, labels, flags, payloads, fiducials."""
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert (a.peak, a.label, a.flagged, a.tx_bytes) == (
            b.peak, b.label, b.flagged, b.tx_bytes
        )
        if a.fiducials is None:
            assert b.fiducials is None
        else:
            np.testing.assert_array_equal(
                a.fiducials.as_array(), b.fiducials.as_array()
            )


def _standalone_events(classifier, record_or_signal, fs, n_leads, upto=None):
    """Reference: one inline-mode node fed the (prefix of the) stream."""
    signal = getattr(record_or_signal, "signal", record_or_signal)
    if upto is not None:
        signal = signal[:upto]
    node = StreamingNode(classifier, fs, n_leads=n_leads)
    return node.push(signal) + node.flush()


def _wait_parked(server, session_id, timeout=10.0) -> None:
    """Wait until a :class:`GatewayServer` has reaped the dead
    connection that owned ``session_id``, leaving the session parked."""
    deadline = time.monotonic() + timeout
    while server._sessions[session_id].owner is not None:
        assert time.monotonic() < deadline, "session was never parked"
        time.sleep(0.01)


@pytest.fixture(scope="session")
def wait_parked():
    return _wait_parked


@pytest.fixture(scope="session")
def assert_events_equal():
    return _assert_events_equal


@pytest.fixture(scope="session")
def standalone_events():
    return _standalone_events
