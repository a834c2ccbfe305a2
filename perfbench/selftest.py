"""Slowed-stage check: does the traced run put a delay where it belongs?

Run from the repository root::

    python3 perfbench/selftest.py

A small in-process fleet is replayed through a ``StreamGateway`` under
the tracer, once as is and once with a fixed busy-wait added to every
``BlockFilter.push`` call.  The check passes when
``dsp.filtering.us_per_call`` rises by about the delay and neither
other ``dsp.*`` per-call metric (peak detection, the node's self time)
rises by more than a quarter of it.  Both
replays must still match the standalone ``StreamingNode`` reference.
Exits 0 on pass, 1 on fail.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

DELAY_US = 200.0
REPEATS = 5
CHUNK = 90
STAGE = "dsp.filtering.us_per_call"
#: The other per-call DSP metrics (delineation is timed per beat).
OTHERS = ("dsp.peak_detection.us_per_call", "dsp.node.self_us_per_call")


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def traced_replay(classifier, plan, reference, slow: bool) -> dict[str, float]:
    from replay import Ledger, run_phase
    from repro.dsp.streaming import BlockFilter
    from repro.serving import StreamGateway
    from tracing import Tracer, layer_metrics

    original = vars(BlockFilter)["push"]

    def slowed_push(self, block):
        busy_wait(DELAY_US * 1e-6)
        return original(self, block)

    if slow:
        BlockFilter.push = slowed_push
    tracer = Tracer()
    ledger = Ledger()
    try:
        # Installed after the slowdown, so the delay sits inside the span.
        with tracer:
            result = run_phase(StreamGateway(classifier, 360.0), plan, CHUNK, ledger)
    finally:
        BlockFilter.push = original
    ledger.check(result.events, reference)
    if ledger.failed:
        raise SystemExit(f"selftest: events differ from the reference (slow={slow})")
    return layer_metrics(tracer.spans, result.ecg_s, 1)


def main() -> int:
    from run import train_classifier
    from repro.serving import synthesize_fleet
    from workloads import Session, reference_events

    scratch = ROOT / ".perfbench" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        classifier = train_classifier(scratch / "classifier.npz")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    streams, _ = synthesize_fleet(4, 20.0, seed=5)
    plan = [Session(sid, 0, x) for sid, x in streams.items()]
    reference = reference_events(classifier, plan)

    runs = {False: [], True: []}
    for _ in range(REPEATS):
        for slow in (False, True):
            runs[slow].append(traced_replay(classifier, plan, reference, slow))

    def median(slow: bool, name: str) -> float:
        return statistics.median(r[name] for r in runs[slow])

    ok = True
    print(f"added {DELAY_US:.0f} us to every BlockFilter.push call")
    print(f"{'metric':<34} {'base':>10} {'slowed':>10} {'rise':>10}  expected")
    for name in (STAGE, *OTHERS):
        base, slowed = median(False, name), median(True, name)
        rise = slowed - base
        if name == STAGE:
            passed = 0.8 * DELAY_US <= rise <= 1.3 * DELAY_US
            expected = f"{0.8 * DELAY_US:.0f}..{1.3 * DELAY_US:.0f}"
        else:
            passed = rise < 0.25 * DELAY_US
            expected = f"< {0.25 * DELAY_US:.0f}"
        ok &= passed
        print(f"{name:<34} {base:10.1f} {slowed:10.1f} {rise:10.1f}  {expected}"
              f"  {'ok' if passed else 'FAIL'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
