"""Fleet serving: many monitored patients through one gateway process.

Demonstrates the batched throughput layer of :mod:`repro.serving` on
top of the incremental streaming engine:

1. synthesize a fleet of multi-lead ambulatory records (one per
   simulated patient, different seeds and PVC burdens);
2. ``simulate_records`` — replay every record through the WBSN node
   model and print the fleet-level real-time / radio report;
3. ``classify_streams`` — replay every complete stream through a
   ``StreamGateway`` as one session each, in ADC-sized blocks: the
   O(n) incremental front end runs as row passes over all sessions
   and the beats are classified in batched projection +
   fuzzification passes, in memory bounded by the sessions' sliding
   windows rather than by the records' lengths.

With ``--gateway``, a third section serves the same fleet, all three
leads, as *concurrently live sessions* through a ``StreamGateway``
and prints the same per-patient counts as step 3: every
patient's stream is ingested in small interleaved chunks, pending
beats from all sessions queue in one cross-session batch, and each
flush classifies them in a single batched pass — per-session events
bit-identical to a standalone per-patient ``StreamingNode``.  With
``--gateway-workers N`` (> 1) the live sessions are hash-sharded
across a ``ShardedGateway`` pool of N worker processes instead — same
events, one batched classifier flush per worker per tick, and true
multi-core parallelism for the per-sample front ends.

Usage::

    python examples/fleet_serving.py [--patients 6] [--minutes 1.0]
        [--gateway] [--gateway-workers 2] [--chunk-ms 250] [--max-batch 64]
"""

from __future__ import annotations

import argparse
import time
from contextlib import nullcontext

import numpy as np

from repro.core.genetic import GeneticConfig
from repro.core.pipeline import RPClassifierPipeline
from repro.core.training import TrainingConfig
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.experiments.datasets import make_embedded_datasets
from repro.fixedpoint.convert import convert_pipeline, tune_embedded_alpha
from repro.platform.node_sim import NodeSimulator
from repro.serving import (
    ShardedGateway,
    StreamGateway,
    classify_streams,
    serve_round_robin,
    simulate_records,
)


def train_node_classifier(seed: int):
    """Train and quantize the classifier deployed on every node."""
    data = make_embedded_datasets(scale=0.05, seed=seed)
    config = TrainingConfig(
        n_coefficients=8, genetic=GeneticConfig(population_size=8, generations=5)
    )
    pipeline = RPClassifierPipeline.train(data.train1, data.train2, 8, seed=seed, config=config)
    classifier = convert_pipeline(pipeline, shape="linear")
    return tune_embedded_alpha(classifier, data.test, 0.97)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=6)
    parser.add_argument("--minutes", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--gateway", action="store_true",
                        help="also serve the fleet as live sessions via StreamGateway")
    parser.add_argument("--gateway-workers", type=int, default=1,
                        help="worker processes for the gateway section; "
                             "> 1 shards live sessions across a ShardedGateway pool")
    parser.add_argument("--chunk-ms", type=float, default=250.0,
                        help="gateway ingest chunk size in milliseconds")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="gateway cross-session batch size bound")
    args = parser.parse_args()
    if args.patients < 1:
        parser.error("--patients must be >= 1")
    if args.minutes <= 0:
        parser.error("--minutes must be positive")
    if args.gateway_workers < 1:
        parser.error("--gateway-workers must be >= 1")

    print("Training + quantizing the node classifier ...")
    classifier = train_node_classifier(args.seed)

    print(f"Synthesizing {args.patients} patient records ...")
    rng = np.random.default_rng(args.seed)
    records = []
    for i in range(args.patients):
        pvc = float(rng.uniform(0.05, 0.25))
        mix = {"N": 1.0 - pvc - 0.05, "V": pvc, "L": 0.05}
        records.append(
            RecordSynthesizer(SynthesisConfig(n_leads=3), seed=args.seed + i).synthesize(
                60.0 * args.minutes, class_mix=mix, name=f"patient-{i}"
            )
        )

    print("\n== Node simulation ==")
    start = time.perf_counter()
    fleet = simulate_records(NodeSimulator(classifier), records)
    elapsed = time.perf_counter() - start
    print(fleet.summary())
    print(f"simulated {fleet.n_beats} beats in {elapsed * 1e3:.0f} ms")

    print("\n== Streaming classification ==")
    streams = [record.lead(0) for record in records]
    start = time.perf_counter()
    results = classify_streams(classifier, streams, records[0].fs)
    elapsed = time.perf_counter() - start
    signal_s = sum(s.size for s in streams) / records[0].fs
    for record, result in zip(records, results):
        print(
            f"  {record.name}: {result.n_beats} beats, "
            f"{int(result.abnormal.sum())} flagged abnormal"
        )
    print(
        f"classified {sum(r.n_beats for r in results)} beats from "
        f"{signal_s:.0f} s of signal in {elapsed * 1e3:.0f} ms "
        f"({signal_s / elapsed:.0f}x realtime)"
    )

    if args.gateway:
        streams = {record.name: record.signal for record in records}
        chunk = max(1, int(round(args.chunk_ms * 1e-3 * records[0].fs)))
        sharded = args.gateway_workers > 1
        if sharded:
            print(
                f"\n== Sharded session gateway ({args.gateway_workers} worker "
                f"processes, live ingestion, max_batch={args.max_batch}) =="
            )
            context = ShardedGateway(
                classifier, records[0].fs, workers=args.gateway_workers,
                n_leads=3, max_batch=args.max_batch,
            )
        else:
            print(f"\n== Session gateway (live ingestion, max_batch={args.max_batch}) ==")
            context = nullcontext(StreamGateway(
                classifier, records[0].fs, n_leads=3, max_batch=args.max_batch
            ))
        with context as gateway:
            start = time.perf_counter()
            events = serve_round_robin(gateway, streams, chunk)
            elapsed = time.perf_counter() - start
            stats = gateway.stats()
        n_classified, n_flushes = stats["n_classified"], stats["n_flushes"]
        for record in records:
            session = events[record.name]
            flagged = sum(1 for e in session if e.flagged)
            print(f"  {record.name}: {len(session)} beats, {flagged} flagged abnormal")
        total = sum(len(session) for session in events.values())
        print(
            f"served {total} live events in {elapsed * 1e3:.0f} ms "
            f"({total / elapsed:.0f} events/s, {signal_s / elapsed:.0f}x realtime); "
            f"{n_classified} beats in {n_flushes} batched passes "
            f"({n_classified / max(1, n_flushes):.1f} beats/pass)"
        )


if __name__ == "__main__":
    main()
