"""Result containers of the serving layer.

:class:`FleetTrace` aggregates the per-record
:class:`~repro.platform.node_sim.NodeTrace` objects a batch simulation
produces; :class:`StreamResult` is the per-stream outcome of the
batched stream classifier.  Both are plain picklable dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.defuzz import is_abnormal
from repro.platform.node_sim import NodeTrace


@dataclass
class FleetTrace:
    """Aggregate outcome of simulating a batch of records.

    Wraps the per-record :class:`~repro.platform.node_sim.NodeTrace`
    objects and exposes the fleet-level numbers a gateway dashboard
    would plot.
    """

    traces: list[NodeTrace] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def n_beats(self) -> int:
        """Beats processed across the fleet."""
        return sum(len(t) for t in self.traces)

    @property
    def n_flagged(self) -> int:
        """Beats that activated the delineator, fleet-wide."""
        return sum(t.n_flagged for t in self.traces)

    @property
    def activation_rate(self) -> float:
        """Fraction of beats flagged abnormal across all records."""
        beats = self.n_beats
        return self.n_flagged / beats if beats else 0.0

    @property
    def total_tx_bytes(self) -> int:
        """Radio bytes queued by every node."""
        return sum(t.total_tx_bytes for t in self.traces)

    @property
    def deadline_misses(self) -> int:
        """Beats that exceeded their inter-beat budget, fleet-wide."""
        return sum(t.deadline_misses for t in self.traces)

    @property
    def worst_case_utilization(self) -> float:
        """Worst per-beat load over budget across every node."""
        if not self.traces:
            return 0.0
        return max(t.worst_case_utilization for t in self.traces)

    @property
    def mean_duty_cycle(self) -> float:
        """Average of the per-record duty cycles."""
        if not self.traces:
            return 0.0
        return float(np.mean([t.duty_cycle for t in self.traces]))

    def summary(self) -> str:
        """One-paragraph fleet report."""
        return (
            f"{len(self.traces)} records, {self.n_beats} beats: "
            f"mean duty={self.mean_duty_cycle:.3f}, "
            f"activation={100 * self.activation_rate:.1f}%, "
            f"tx={self.total_tx_bytes} B, worst-case load="
            f"{100 * self.worst_case_utilization:.1f}% of a beat budget, "
            f"{self.deadline_misses} deadline misses"
        )


@dataclass(frozen=True)
class StreamResult:
    """Per-stream outcome of :func:`repro.serving.classify_streams`."""

    peaks: np.ndarray
    labels: np.ndarray

    @property
    def abnormal(self) -> np.ndarray:
        """Boolean mask of beats flagged abnormal."""
        return is_abnormal(self.labels)

    @property
    def n_beats(self) -> int:
        return int(self.labels.size)
