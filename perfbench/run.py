"""Serving benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload ward-250ms --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; a detailed record (provenance, samples, phases) goes
to ``.perfbench/results/``.  Every verdict is checked against a
standalone ``StreamingNode``; any difference makes the run fail and
exit non-zero.

A run has three parts:

* **Preparation** (untimed): train the classifier and save it, build
  the seeded session plan, compute the reference events.
* **Set-up** (``setup_s``): from ``load_embedded`` to the return of
  the first ingest of every initial session.
* **Replays**: the plan replayed closed-loop (``realtime_factor``,
  ``cpu_ms_per_ecg_s``), alternating with set-ups, for four fifths of
  ``--seconds``, and then once open-loop at the workload's offered
  rate (verdict latencies).  Each timed metric is the median of
  samples spread over the whole run.

``setup_s``, ``realtime_factor`` and ``cpu_ms_per_ecg_s`` are
normalised to a reference host speed with the calibration kernel of
``calibrate.py``, timed next to every sample, and a replay's wall time
leaves out the VM's steal time; the raw values are in the detailed
record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Closed-loop replays continue, each after five bring-ups, until
#: four fifths of ``--seconds`` have passed, and at least this often.
MIN_CYCLES = 5
BRING_UPS_PER_CYCLE = 5
#: Calibration kernel calls just before each bring-up, and how often a
#: closed-loop replay takes one.
SETUP_KERNEL_CALLS = 3
KERNEL_EVERY_ROUNDS = 2
#: Untraced/traced closed-loop replay pairs per traced run.
TRACED_PAIRS = 2
#: Seed of the classifier training set (the program, not the workload).
TRAIN_SEED = 11

END_TO_END_UNITS = {
    "realtime_factor": "ecg_s/s",
    "cpu_ms_per_ecg_s": "ms/ecg_s",
    "verdict_latency_p50_ms": "ms",
    "verdict_latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "dsp.filtering.ns_per_sample": "ns/sample",
    "dsp.filtering.us_per_call": "us/call",
    "dsp.filtering.calls": "count",
    "dsp.peak_detection.ns_per_sample": "ns/sample",
    "dsp.peak_detection.us_per_call": "us/call",
    "dsp.delineation.us_per_beat": "us/beat",
    "dsp.delineation.activation_share": "ratio",
    "dsp.node.self_us_per_call": "us/call",
    "fixedpoint.classifier.us_per_beat": "us/beat",
    "fixedpoint.classifier.beats_per_call": "beats/call",
    "gateway.ingest.self_us_per_call": "us/call",
    "gateway.flushes": "count",
    "gateway.flush.beats_per_pass": "beats/flush",
    "gateway.open.us_per_session": "us/session",
    "gateway.close.us_per_session": "us/session",
    "analytics.update.us_per_beat": "us/beat",
    "durability.log_chunk.us_per_chunk": "us/chunk",
    "durability.snapshot.us_per_call": "us/call",
    "durability.snapshots": "count",
    "net.encode.us_per_frame": "us/frame",
    "net.decode.us_per_frame": "us/frame",
    "net.bytes_per_ecg_s": "B/ecg_s",
    "net.client.ingest_us_per_call": "us/call",
    "net.client.wait_share": "ratio",
    "federation.ingest.self_us_per_call": "us/call",
    "federation.open.ms_per_session": "ms/session",
    "federation.close.ms_per_session": "ms/session",
    "sharded.beats_per_flush": "beats/flush",
    "sharded.session_skew": "ratio",
    "generator.late_ms_p99": "ms",
    "trace.overhead_share": "ratio",
    "trace.base_realtime_factor": "ecg_s/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(seed: int) -> dict:
    import numpy

    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def train_classifier(path: Path):
    """The quantized classifier every tier serves, trained at a reduced
    scale (about a second) and saved for ``load_embedded``."""
    from repro.core.genetic import GeneticConfig
    from repro.core.pipeline import RPClassifierPipeline
    from repro.core.training import TrainingConfig
    from repro.ecg.mitbih import make_datasets
    from repro.experiments.datasets import decimate_labeled
    from repro.fixedpoint.convert import convert_pipeline, tune_embedded_alpha
    from repro.io import save_embedded

    sets = make_datasets(scale=0.03, seed=TRAIN_SEED)
    train1, train2, test = (decimate_labeled(s) for s in (sets.train1, sets.train2, sets.test))
    config = TrainingConfig(
        n_coefficients=8,
        genetic=GeneticConfig(population_size=5, generations=3),
        scg_iterations=60,
    )
    pipeline = RPClassifierPipeline.train(train1, train2, 8, seed=TRAIN_SEED, config=config)
    classifier = tune_embedded_alpha(convert_pipeline(pipeline, shape="linear"), test, 0.97)
    save_embedded(classifier, path)
    return classifier


def percentile_ms(samples_s: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples_s) * 1e3, q))


def tail_percentile(n: int) -> float:
    """99, or the highest percentile with at least ten samples beyond it."""
    if n >= 1000:
        return 99.0
    return max(50.0, 100.0 * (1.0 - 10.0 / max(n, 1)))


class Run:
    def __init__(self, args, scratch: Path):
        from replay import Ledger
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.scratch = scratch
        self.ledger = Ledger()
        self.details: dict = {"provenance": provenance(args.seed)}
        self.metrics: dict[str, float] = {}
        self.tier = None
        self.child_mib = 0.0

    # -- preparation -----------------------------------------------------

    def prepare(self) -> None:
        from tier import become_subreaper
        from workloads import FS, build_plan, reference_events

        w = self.workload
        t0 = time.perf_counter()
        self.classifier_path = self.scratch / "classifier.npz"
        classifier = train_classifier(self.classifier_path)
        self.plan = build_plan(w, self.args.seed, self.args.seconds)
        self.reference = reference_events(classifier, self.plan)
        n_chunks = sum(s.n_chunks(w.chunk) for s in self.plan)
        n_rounds = max(s.start + s.n_chunks(w.chunk) for s in self.plan)
        mean_live = n_chunks / n_rounds
        # Open loop: every live session advances one chunk per period,
        # so the fleet is offered ``rate`` ECG seconds per wall second.
        self.period = mean_live * (w.chunk / FS) / w.rate
        self.details["plan"] = {
            "sessions": len(self.plan),
            "rounds": n_rounds,
            "mean_live": mean_live,
            "ecg_s_per_replay": sum(len(s.x) for s in self.plan) / FS,
            "reference_events": sum(len(v) for v in self.reference.values()),
            "offered_rate_ecg_s_per_s": w.rate,
            "round_period_s": self.period,
        }
        self.details["preparation_s"] = time.perf_counter() - t0
        become_subreaper()

    # -- set-up ------------------------------------------------------------

    def bring_up(self, tag: str, calibration=None) -> float:
        """Replace the tier with a fresh one: build it, open the initial
        sessions and ingest one chunk each, and return the elapsed time.
        The set-up sessions are closed again outside the clock.  A
        ``calibration`` gets kernel samples right before the clock
        starts, when the previous tier's processes have all ended (just
        after it, a new host's workers are still starting)."""
        from tier import bring_up

        self.shutdown_tier()
        w = self.workload
        initial = [s for s in self.plan if s.start == 0]
        call = self.ledger.call
        gc.collect()
        if calibration is not None:
            calibration.take(SETUP_KERNEL_CALLS)
        t0 = time.perf_counter()
        self.tier = bring_up(w, self.classifier_path, self.scratch / f"journal-{tag}")
        target = self.tier.target
        for s in initial:
            call(target.open_session, f"setup{tag}-{s.sid}")
        for s in initial:
            call(target.ingest, f"setup{tag}-{s.sid}", s.x[: w.chunk])
        elapsed = time.perf_counter() - t0
        for s in initial:
            call(target.close_session, f"setup{tag}-{s.sid}")
        return elapsed

    def shutdown_tier(self) -> None:
        if self.tier is None:
            return
        self.tier.shutdown()
        self.tier = None

    # -- phases ------------------------------------------------------------

    def capacity(self, prefix: str, tracer=None, calibration=None):
        """One closed-loop replay of the plan; returns it with the CPU
        seconds every process of the tier spent on it and the steal time
        of the VM meanwhile.  A ``calibration`` gets a kernel sample every
        few rounds; its time is left out of the replay's wall and CPU
        time."""
        from replay import run_phase
        from tier import steal_seconds

        tier = self.tier
        on_round = None
        if calibration is not None:
            def on_round(r: int) -> None:
                if r % KERNEL_EVERY_ROUNDS == 0:
                    calibration.take()
        cpu0, child0, steal0 = time.process_time(), tier.cpu_seconds(), steal_seconds()
        if tracer is not None:
            tracer.install()
        try:
            result = run_phase(
                tier.target, self.plan, self.workload.chunk, self.ledger,
                prefix=prefix, on_round=on_round,
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu = time.process_time() - cpu0 + tier.cpu_seconds() - child0
        steal = steal_seconds() - steal0
        if calibration is not None:
            cpu -= calibration.cpu_s
        self.ledger.check(result.events, self.reference)
        self.note_memory()
        return result, cpu, steal

    def note_memory(self) -> None:
        self.child_mib = max(self.child_mib, self.tier.private_mib())

    def open_loop(self, prefix: str, on_round=None):
        from replay import run_phase

        result = run_phase(
            self.tier.target, self.plan, self.workload.chunk, self.ledger,
            period=self.period, prefix=prefix, on_round=on_round,
        )
        self.ledger.check(result.events, self.reference)
        self.note_memory()
        lateness = result.lateness_s
        self.details["open_loop"] = {
            "wall_s": result.wall_s,
            "scheduled_s": len(lateness) * self.period,
            "verdicts": len(result.latencies_s),
            "late_ms_p50": percentile_ms(lateness, 50),
            "late_ms_max": max(lateness) * 1e3,
        }
        return result

    def untraced(self) -> None:
        """The end-to-end metrics.  Set-up samples and closed-loop
        replays alternate through the run, so each median spans the
        whole run rather than one stretch of it.  Each sample is scaled
        to the reference host by the calibration kernel timed next to
        it."""
        from calibrate import Calibration
        from tier import peak_rss_mib, reset_peak_rss
        from workloads import OPEN_LOOP_SHARE

        reset_peak_rss()
        setup, replays = [], []

        def timed_bring_up(tag: str) -> None:
            calibration = Calibration()
            setup.append((self.bring_up(tag, calibration), calibration))

        budget = (1.0 - OPEN_LOOP_SHARE) * self.args.seconds
        start = time.monotonic()
        k = 0
        while k < MIN_CYCLES or time.monotonic() - start < budget:
            for j in range(BRING_UPS_PER_CYCLE):
                timed_bring_up(f"{k}.{j}")
            calibration = Calibration()
            result, cpu, steal = self.capacity(f"cap{k}-", calibration=calibration)
            replays.append({
                "ecg_s": result.ecg_s,
                "wall_s": result.wall_s,
                "cpu_s": cpu,
                "steal_s": steal,
                "kernel_ms": calibration.kernel_s * 1e3,
                "kernel_samples": len(calibration.samples),
                "scale": calibration.scale(),
            })
            k += 1
        timed_bring_up("lat")
        latency = self.open_loop("lat-").latencies_s
        q = tail_percentile(len(latency))

        def realtime_factor(r: dict) -> float:
            # The share of the tier's runnable time the hypervisor gave
            # to other guests comes off the wall time; CPU times already
            # leave it out.
            wall = r["wall_s"] * r["cpu_s"] / (r["cpu_s"] + r["steal_s"])
            return r["ecg_s"] / (wall * r["scale"])

        self.metrics = {
            "realtime_factor": statistics.median(realtime_factor(r) for r in replays),
            "cpu_ms_per_ecg_s": statistics.median(
                r["cpu_s"] * r["scale"] * 1e3 / r["ecg_s"] for r in replays
            ),
            "verdict_latency_p50_ms": percentile_ms(latency, 50),
            "verdict_latency_p99_ms": percentile_ms(latency, q),
            "peak_rss_mb": peak_rss_mib() + self.child_mib,
            "setup_s": statistics.median(t * c.scale() for t, c in setup),
        }
        self.details["raw"] = {
            "realtime_factor": statistics.median(r["ecg_s"] / r["wall_s"] for r in replays),
            "cpu_ms_per_ecg_s": statistics.median(r["cpu_s"] * 1e3 / r["ecg_s"] for r in replays),
            "setup_s": statistics.median(t for t, _ in setup),
            "kernel_ms": statistics.median(r["kernel_ms"] for r in replays),
            "steal_share": statistics.median(
                r["steal_s"] / (r["cpu_s"] + r["steal_s"]) for r in replays
            ),
            "benchmark_process_peak_mib": peak_rss_mib(),
            "child_private_mib": self.child_mib,
        }
        self.details["setup_samples"] = [
            {"raw_s": t, "kernel_ms": c.kernel_s * 1e3} for t, c in setup
        ]
        self.details["capacity"] = replays
        self.details["verdict_latency"] = {"samples": len(latency), "tail_percentile": q}

    def traced(self) -> None:
        """The per-layer metrics: untraced and traced closed-loop replays
        alternate, then an untraced open-loop replay times the generator."""
        from tracing import Tracer, layer_metrics

        local = self.workload.tier == "gateway"
        self.bring_up("trace")
        tracer = Tracer()
        base, traced = [], []
        flushes = classified = 0
        for k in range(TRACED_PAIRS):
            base.append(self.capacity(f"base{k}-")[0])
            before = self.layer_counters()
            traced.append(self.capacity(f"traced{k}-", tracer)[0])
            after = self.layer_counters()
            flushes += after["flushes"] - before["flushes"]
            classified += after["classified"] - before["classified"]
        metrics = layer_metrics(tracer.spans, sum(r.ecg_s for r in traced), TRACED_PAIRS)
        events = [e for r in traced for seq in r.events.values() for e in seq]
        metrics["dsp.delineation.activation_share"] = (
            sum(e.flagged for e in events) / len(events) if events else 0.0
        )
        per_flush = classified / flushes if flushes else 0.0
        metrics["gateway.flushes"] = flushes / TRACED_PAIRS if local else 0
        metrics["gateway.flush.beats_per_pass"] = per_flush if local else 0.0
        metrics["sharded.beats_per_flush"] = 0.0 if local else per_flush
        base_rf = statistics.median(r.realtime_factor for r in base)
        traced_rf = statistics.median(r.realtime_factor for r in traced)
        metrics["trace.base_realtime_factor"] = base_rf
        metrics["trace.overhead_share"] = 1.0 - traced_rf / base_rf

        skews: list[float] = []

        def sample_skew(r: int) -> None:
            if not local and r % 20 == 0:
                counts = [s["n_sessions"] for s in self.tier.host_stats()["per_worker"]]
                skews.append(max(counts) / max(min(counts), 1))

        lateness = self.open_loop("lat-", on_round=sample_skew).lateness_s
        metrics["sharded.session_skew"] = statistics.mean(skews) if skews else 0.0
        metrics["generator.late_ms_p99"] = percentile_ms(lateness, tail_percentile(len(lateness)))
        self.metrics = metrics
        self.details["traced_capacity"] = {
            "base_realtime_factor": [r.realtime_factor for r in base],
            "traced_realtime_factor": [r.realtime_factor for r in traced],
            "spans": len(tracer.spans),
        }
        self.spans = tracer

    def layer_counters(self) -> dict:
        stats = self.tier.stats() if self.workload.tier == "gateway" else self.tier.host_stats()
        return {"flushes": stats["n_flushes"], "classified": stats["n_classified"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from replay import CallFailed

    out_dir = ROOT / ".perfbench"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    scratch = out_dir / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    run = Run(args, scratch)
    error = None
    try:
        run.prepare()
        if args.trace:
            run.traced()
        else:
            run.untraced()
    except CallFailed as exc:
        error = str(exc)
    finally:
        run.shutdown_tier()
        shutil.rmtree(scratch, ignore_errors=True)

    ledger = run.ledger
    correct = error is None and ledger.failed == 0
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error": error,
        "mismatched_sessions": ledger.mismatched_sessions,
        "metrics": run.metrics,
        **run.details,
    }
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace and correct:
        run.spans.dump(results / f"{name}.spans.jsonl")

    for key, value in run.metrics.items():
        print(f"{args.workload:<12} {key:<38} {value:14.4f} {units[key]}")
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
    if ledger.mismatched_sessions:
        print(f"perfbench: events differ from the reference in sessions "
              f"{ledger.mismatched_sessions}", file=sys.stderr)
    metrics = {}
    if correct:
        metrics = {key: {"value": run.metrics[key], "unit": unit} for key, unit in units.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
