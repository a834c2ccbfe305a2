"""Bring-up and teardown of the serving tier under test.

The tier is built only through public entry points: ``load_embedded``,
``StreamGateway`` with ``open_journal`` / ``default_pipeline``, and
``spawn_host`` + ``FederatedGateway`` over a process-mode
``ShardedGateway``.  Child processes (the host and its workers) are
tracked by pid so their CPU time and private memory can be read from
``/proc`` and so every one of them is stopped and reaped.
"""

from __future__ import annotations

import ctypes
import glob
import os
import signal
import time
from pathlib import Path

from workloads import FS, Workload

_PR_SET_CHILD_SUBREAPER = 36
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def become_subreaper() -> bool:
    """Adopt orphaned descendants, so a host's worker processes become
    our children when the host dies and can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids(pid: int) -> list[int]:
    pids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                pids += [int(p) for p in fh.read().split()]
        except OSError:
            continue
    return pids


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def steal_seconds() -> float:
    """CPU time the hypervisor gave other guests while this VM's vCPUs
    had work, summed over vCPUs (0 where the kernel does not report it).
    Process CPU times leave it out; wall time does not."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mib() -> float:
    """Peak RSS of the benchmark process since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def private_mib(pid: int) -> float:
    """Memory one process owns alone (``Private_Clean`` +
    ``Private_Dirty``).  Pages a forked child still shares copy-on-write
    with the benchmark process are left out; they are counted once, in
    the benchmark process's own peak."""
    kib = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    kib += int(line.split()[1])
    except OSError:
        pass
    return kib / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS watermark at its current RSS, so
    preparation (training, synthesis, the reference) stays outside."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _wait_ended(pid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return True
        except ChildProcessError:  # not ours: poll until gone or a zombie
            if _ended(pid):
                return True
        time.sleep(0.005)
    return False


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def reap(pids: list[int], timeout: float = 5.0) -> None:
    """Terminate processes and wait until each has ended."""
    for pid in pids:
        _signal(pid, signal.SIGTERM)
    for pid in pids:
        if not _wait_ended(pid, timeout):
            _signal(pid, signal.SIGKILL)
            if not _wait_ended(pid, timeout):
                raise RuntimeError(f"process {pid} did not end")


class Tier:
    """The session surface under test plus the processes behind it."""

    def __init__(self, target, host=None, worker_pids=()):
        self.target = target
        self.host = host
        self.worker_pids = list(worker_pids)

    @property
    def pids(self) -> list[int]:
        if self.host is None:
            return []
        return [self.host.process.pid, *self.worker_pids]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def private_mib(self) -> float:
        """Memory the host and its workers own alone, summed, now."""
        return sum(private_mib(pid) for pid in self.pids)

    def stats(self) -> dict:
        return self.target.stats()

    def host_stats(self) -> dict:
        """The host gateway's own ``stats()`` (read over the STATS frame)."""
        return self.target.stats()["per_host"][0]

    def shutdown(self) -> None:
        shutdown = getattr(self.target, "shutdown", None)
        if shutdown is not None:
            shutdown()
        if self.host is not None:
            # The workers inherit the host's exit sentinel, so the host
            # only joins promptly once they are gone too.
            self.host.process.terminate()
            reap(self.worker_pids)
            self.host.stop()
            for pid in self.worker_pids:  # zombies adopted after the host died
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            self.host = None


def bring_up(workload: Workload, classifier_path: Path, scratch: Path) -> Tier:
    """Build the tier from the saved classifier (the timed part of set-up)."""
    from repro.io import load_embedded
    from repro.serving import (
        FederatedGateway,
        StreamGateway,
        default_pipeline,
        open_journal,
        spawn_host,
    )

    classifier = load_embedded(classifier_path)
    if workload.tier == "federation":
        host = spawn_host(classifier, FS, workers=2, worker_mode="process")
        # The host has spawned its workers before reporting its address.
        workers = child_pids(host.process.pid)
        try:
            front = FederatedGateway([host.address])
        except BaseException:
            Tier(None, host=host, worker_pids=workers).shutdown()
            raise
        return Tier(front, host=host, worker_pids=workers)
    journal = None
    if workload.journal:
        journal = open_journal(str(scratch), "file")
    gateway = StreamGateway(
        classifier,
        FS,
        analytics=default_pipeline if workload.analytics else None,
        journal=journal,
    )
    return Tier(gateway)
