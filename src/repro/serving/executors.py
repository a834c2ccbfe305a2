"""Serving-layer policy names and the shared knob validators.

The session placement policies the live gateways accept, with a
validator that raises a :class:`ValueError` naming the allowed values,
plus the one lower-bound check every serving knob goes through.
"""

from __future__ import annotations

#: Placement policies :class:`repro.serving.sharded.ShardedGateway`
#: accepts for assigning sessions to workers (``open_session`` /
#: ``import_session`` consult the configured placer).
PLACEMENTS = ("hash", "least-loaded", "round-robin")


def validate_at_least(name: str, value: int, minimum: int = 1) -> int:
    """Return ``value`` or raise a :class:`ValueError` naming the bound.

    The shared lower-bound check every serving knob goes through, so
    every tier phrases its errors the same way (``"<name> must be >=
    <minimum>, got <value>"``).
    """
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def validate_placement(placement: str) -> str:
    """Return ``placement`` or raise a :class:`ValueError` naming the
    allowed values."""
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
        )
    return placement
