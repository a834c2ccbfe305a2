"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1`` / ``table2`` / ``table3`` / ``figure4`` / ``figure5`` /
``energy``
    Regenerate one of the paper's artifacts and print it next to the
    paper's reported values.
``all``
    Run every artifact in sequence (the content of EXPERIMENTS.md).
``train``
    Train a classifier and save both its float and embedded forms.
``codegen``
    Emit the C header for a saved embedded classifier.
``loadgen``
    Closed-loop fleet load generator: replay a synthesized mixed
    fleet (morphology x noise x rate-skew) at a geometrically ramped
    offered rate and report the max sustained throughput with p50/p99
    event latency (:mod:`repro.serving.loadgen`).
``serve``
    Run many concurrently live session streams through the
    :class:`~repro.serving.gateway.StreamGateway` — or, with
    ``--workers N``, through a multi-process
    :class:`~repro.serving.sharded.ShardedGateway` pool — and report
    the fleet's throughput and batching statistics.  With
    ``--listen HOST:PORT`` the gateway is instead exposed on a TCP
    socket speaking the zero-copy framed protocol
    (:mod:`repro.serving.net`).
``connect``
    Client side of ``serve --listen``: stream a synthesized fleet
    into a remote gateway over TCP via the pipelined
    :class:`~repro.serving.net.client.GatewayClient` and report the
    client-observed throughput and latency.  ``loadgen --connect``
    runs the closed-loop ramp against a remote gateway the same way —
    and accepts ``--connect`` repeatedly to drive several hosts
    through one :class:`~repro.serving.federation.FederatedGateway`
    front door.
``federate``
    Horizontal scale-out demo: spawn ``--hosts N`` local gateway host
    processes (:func:`~repro.serving.federation.spawn_host`), route a
    synthesized fleet through a
    :class:`~repro.serving.federation.FederatedGateway`, and report
    aggregate throughput with the per-host breakdown.

Common options: ``--scale`` (fraction of the Table-I set sizes;
``--full`` is shorthand for the paper's exact configuration, including
the 20 x 30 GA) and ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.genetic import GeneticConfig
from repro.serving.executors import PLACEMENTS


def _genetic(args) -> GeneticConfig:
    if args.full:
        return GeneticConfig()
    return GeneticConfig(population_size=args.ga_pop, generations=args.ga_gen)


def _scale(args) -> float:
    return 1.0 if args.full else args.scale


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"error: expected HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"error: bad port in {value!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the paper's dataset sizes")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--full", action="store_true",
                        help="paper configuration: scale 1.0, GA 20 x 30")
    parser.add_argument("--ga-pop", type=int, default=8)
    parser.add_argument("--ga-gen", type=int, default=5)


def cmd_table1(args) -> int:
    from repro.experiments.datasets import format_table1, table1_counts

    print(format_table1(table1_counts(scale=_scale(args), seed=args.seed)))
    print("\npaper (Table I):")
    from repro.ecg.mitbih import TABLE_I

    print(format_table1(TABLE_I))
    return 0


def cmd_table2(args) -> int:
    from repro.experiments.table2 import Table2Config, format_table2, run_table2

    config = Table2Config(
        scale=_scale(args), seed=args.seed, genetic=_genetic(args)
    )
    print(format_table2(run_table2(config)))
    print("\npaper (Table II): NDR-PC 93.74/95.16/93.05  "
          "NDR-WBSN 92.31/92.53/93.04  PCA-PC 93.66/95.78/89.75")
    return 0


def cmd_figure4(args) -> int:
    from repro.experiments.figure4 import format_figure4, run_figure4_errors

    print(format_figure4(run_figure4_errors()))
    return 0


def cmd_figure5(args) -> int:
    from repro.experiments.figure5 import (
        Figure5Config,
        figure5_summary,
        format_figure5,
        run_figure5,
    )

    config = Figure5Config(scale=_scale(args), seed=args.seed, genetic=_genetic(args))
    results = run_figure5(config)
    print(format_figure5(figure5_summary(results)))
    print("\npaper (Figure 5 at ARR 98.5%): gaussian ~87, linear ~87, triangular ~62")
    return 0


def cmd_table3(args) -> int:
    from repro.experiments.table3 import Table3Config, format_table3, run_table3

    config = Table3Config(scale=_scale(args), seed=args.seed, genetic=_genetic(args))
    print(format_table3(run_table3(config)))
    print("\npaper (Table III): 1.64/<0.01, 30.29/0.12, 46.39/0.83, 76.68/0.30")
    return 0


def cmd_energy(args) -> int:
    from repro.experiments.energy import format_energy, run_energy
    from repro.experiments.table3 import Table3Config

    config = Table3Config(scale=_scale(args), seed=args.seed, genetic=_genetic(args))
    print(format_energy(run_energy(config)))
    return 0


def cmd_multilead(args) -> int:
    from repro.experiments.multilead import (
        MultileadConfig,
        format_multilead,
        run_multilead,
    )

    config = MultileadConfig(scale=_scale(args), seed=args.seed, genetic=_genetic(args))
    print(format_multilead(run_multilead(config)))
    return 0


def cmd_noise(args) -> int:
    from repro.experiments.noise_robustness import (
        NoiseRobustnessConfig,
        format_noise_robustness,
        run_noise_robustness,
    )

    config = NoiseRobustnessConfig(
        scale=_scale(args), seed=args.seed, genetic=_genetic(args)
    )
    print(format_noise_robustness(run_noise_robustness(config)))
    return 0


def cmd_alpha(args) -> int:
    from repro.experiments.alpha_tuning import (
        AlphaTuningConfig,
        format_alpha_tuning,
        run_alpha_tuning,
    )

    config = AlphaTuningConfig(
        scale=_scale(args), seed=args.seed, genetic=_genetic(args)
    )
    print(format_alpha_tuning(run_alpha_tuning(config)))
    return 0


def cmd_simulate(args) -> int:
    from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
    from repro.experiments.table3 import Table3Config, build_embedded_classifier
    from repro.platform.node_sim import NodeSimulator

    config = Table3Config(scale=_scale(args), seed=args.seed, genetic=_genetic(args))
    classifier, _ = build_embedded_classifier(config)
    synth = RecordSynthesizer(SynthesisConfig(n_leads=3), seed=args.seed)
    record = synth.synthesize(args.duration, name="cli-sim")
    trace = NodeSimulator(classifier).process_record(record)
    print(trace.summary())
    return 0


def cmd_serve(args) -> int:
    """Serve a fleet of live sessions through the session gateway."""
    import time

    import numpy as np

    from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
    from repro.experiments.table3 import Table3Config, build_embedded_classifier
    from repro.serving import serve_round_robin

    # Fail on bad serving knobs before the (slow) training, not after.
    if args.placement is not None and args.workers <= 1:
        raise SystemExit("error: --placement requires --workers > 1")
    if args.snapshot_every < 1:
        raise SystemExit("error: --snapshot-every must be >= 1")

    config = Table3Config(scale=_scale(args), seed=args.seed, genetic=_genetic(args))
    print("Training + quantizing the shared classifier ...")
    classifier, _ = build_embedded_classifier(config)

    if args.listen:
        return _serve_listen(args, classifier)

    print(f"Synthesizing {args.sessions} live session streams ...")
    rng = np.random.default_rng(args.seed)
    records = []
    for i in range(args.sessions):
        pvc = float(rng.uniform(0.05, 0.3))
        mix = {"N": 1.0 - pvc - 0.05, "V": pvc, "L": 0.05}
        records.append(
            RecordSynthesizer(SynthesisConfig(n_leads=3), seed=args.seed + i).synthesize(
                args.duration, class_mix=mix, name=f"session-{i}"
            )
        )
    fs = records[0].fs
    chunk = max(1, int(round(args.chunk_ms * 1e-3 * fs)))
    gateway_kwargs = dict(
        n_leads=3,
        max_batch=args.max_batch,
        max_latency_ticks=args.max_latency_ticks,
    )
    if args.analytics:
        from repro.serving import default_pipeline

        # The factory (not an instance) ships to process workers, so
        # every session builds its own operator set worker-side.
        gateway_kwargs["analytics"] = default_pipeline

    sharded = args.workers > 1
    context, journal, tier = _local_tier(args, classifier, fs, gateway_kwargs)
    print(
        f"Ingesting round-robin ({tier}, {args.chunk_ms:.0f} ms chunks, "
        f"max_batch={args.max_batch}, max_latency_ticks={args.max_latency_ticks}) ..."
    )
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    with context as gateway:
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        events = serve_round_robin(
            gateway, {record.name: record.signal for record in records}, chunk
        )
        elapsed = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        stats = gateway.stats()
        n_classified, n_flushes = stats["n_classified"], stats["n_flushes"]
        if sharded and journal is not None:
            # Only a sharded pool heals, so only it has these counters.
            print(
                "  journal: file store at "
                f"{args.journal}, snapshot every {args.snapshot_every} "
                f"chunks; {stats['respawns']} worker respawns, "
                f"{stats['sessions_recovered']} sessions recovered"
            )
        rollup = stats.get("analytics") if args.analytics else None
        summaries = dict(gateway.take_summaries()) if args.analytics else {}

    for record in records:
        session = events[record.name]
        flagged = sum(1 for e in session if e.flagged)
        line = f"  {record.name}: {len(session)} beats, {flagged} flagged abnormal"
        summary = summaries.get(record.name)
        if summary is not None:
            rr = summary["operators"].get("rr", {})
            hr = rr.get("mean_hr_bpm")
            line += (
                f"; HR {hr:.0f} bpm" if hr is not None else ""
            ) + f", {summary['n_episodes']} episode(s)"
        print(line)
    total = sum(len(session) for session in events.values())
    signal_s = sum(r.n_samples for r in records) / fs
    print(
        f"served {total} beats from {signal_s:.0f} s of live signal in "
        f"{elapsed * 1e3:.0f} ms ({total / elapsed:.0f} events/s, "
        f"{signal_s / elapsed:.0f}x realtime); "
        f"{n_classified} beats classified in {n_flushes} batched "
        f"passes ({n_classified / max(1, n_flushes):.1f} beats/pass)"
    )
    if rollup is not None:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(rollup["by_kind"].items())
        ) or "none"
        print(
            f"analytics: {rollup['beats']} beats folded across "
            f"{rollup['sessions']} session(s), {rollup['episodes']} "
            f"episode(s) ({kinds}), {rollup['alerts']} alert(s)"
        )
    if profiler is not None:
        import pstats

        print(
            f"\n--profile: top {args.profile_top} functions by cumulative "
            "time (serve loop only; training excluded)"
        )
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.profile_top)
    return 0


def _local_tier(args, classifier, fs: float, gateway_kwargs: dict):
    """Build the tier ``repro serve`` runs in this process.

    One ``StreamGateway`` (``--workers 1``), or a ``ShardedGateway`` of
    worker processes (``--workers N``), which heals
    its own worker crashes when ``--journal`` is set.  Returns
    ``(context, journal, tier)``: a context manager that yields the
    gateway, the journal (or ``None``) and a one-line description.
    """
    from contextlib import nullcontext

    from repro.serving import ShardedGateway, StreamGateway, open_journal

    sharded = args.workers > 1
    placement = args.placement or "hash"
    journal = None
    if args.journal is not None:
        journal = open_journal(args.journal, snapshot_every=args.snapshot_every)
    if sharded:
        tier = f"{args.workers} process workers, {placement} placement"
    else:
        tier = "single process"
    if journal is not None:
        tier += ", journaled"
    if not sharded:
        gateway = StreamGateway(classifier, fs, journal=journal, **gateway_kwargs)
        return nullcontext(gateway), journal, tier
    context = ShardedGateway(
        classifier, fs, journal=journal, workers=args.workers,
        placement=placement, **gateway_kwargs,
    )
    return context, journal, tier


def _serve_listen(args, classifier) -> int:
    """Expose the gateway on a TCP socket (``repro serve --listen``)."""
    import asyncio

    from repro.serving import recover_sessions
    from repro.serving.net import GatewayServer

    host, port = _parse_hostport(args.listen)
    fs = 360.0
    # One-lead sessions: the wire fleet (`repro connect` / `repro
    # loadgen --connect`) streams the synthesize_fleet shape.
    gateway_kwargs = dict(
        n_leads=1,
        max_batch=args.max_batch,
        max_latency_ticks=args.max_latency_ticks,
    )
    if args.analytics:
        from repro.serving import default_pipeline

        gateway_kwargs["analytics"] = default_pipeline
    context, journal, tier = _local_tier(args, classifier, fs, gateway_kwargs)

    async def _run(gateway) -> None:
        server = GatewayServer(gateway, host=host, port=port)
        await server.start()
        print(
            f"serving on {server.host}:{server.port} ({tier}, fs={fs:.0f} Hz, "
            "1-lead sessions; Ctrl-C to stop)",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    with context as gateway:
        if journal is not None:
            # Restart recovery: rebuild any sessions journaled by a
            # previous process before accepting connections.
            if args.workers > 1:
                recovered = gateway.check_workers()
            else:
                recovered = len(recover_sessions(journal, gateway))
            if recovered:
                print(
                    f"recovered {recovered} journaled session(s) "
                    "from a previous run",
                    flush=True,
                )
        try:
            asyncio.run(_run(gateway))
        except KeyboardInterrupt:
            print("stopped")
    return 0


def cmd_connect(args) -> int:
    """Stream a synthesized fleet into a remote ``repro serve --listen``."""
    from repro.serving import replay_fleet, synthesize_fleet
    from repro.serving.net import GatewayClient

    host, port = _parse_hostport(args.connect)
    fs = 360.0
    print(
        f"Synthesizing a {args.sessions}-session fleet "
        f"({args.duration:.0f} s each, mixed morphology/noise/rate) ..."
    )
    streams, nominal_eps = synthesize_fleet(
        args.sessions, args.duration, fs=fs, seed=args.seed
    )
    chunk = max(1, int(round(args.chunk_ms * 1e-3 * fs)))
    print(f"Connecting to {host}:{port} (window {args.window}) ...")
    client = GatewayClient(host, port, window=args.window).connect()
    try:
        report = replay_fleet(
            client,
            streams,
            fs=fs,
            chunk=chunk,
            target_eps=args.target_eps,
            nominal_eps=nominal_eps if args.target_eps is not None else None,
            collect_analytics=args.analytics,
        )
    finally:
        client.close()
    pacing = (
        "unpaced" if args.target_eps is None
        else f"paced at {args.target_eps:.0f} events/s"
    )
    print(
        f"streamed {report.n_events} events over the socket ({pacing}): "
        f"{report.achieved_eps:.0f} events/s achieved, "
        f"p50 {report.p50_ms:.1f} ms / p99 {report.p99_ms:.1f} ms, "
        f"{'sustained' if report.sustained else 'UNSUSTAINED'}"
    )
    if args.analytics:
        rollup = report.analytics
        if rollup is None:
            print("analytics: server reported no rollup (serve without "
                  "--analytics?)")
        else:
            kinds = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(rollup["by_kind"].items())
            ) or "none"
            print(
                f"analytics (server-side): {rollup['beats']} beats across "
                f"{rollup['sessions']} session(s), {rollup['episodes']} "
                f"episode(s) ({kinds}), {rollup['alerts']} alert(s)"
            )
    return 0


def cmd_loadgen(args) -> int:
    """Find the max sustained fleet throughput via a closed-loop ramp."""
    from repro.experiments.table3 import Table3Config, build_embedded_classifier
    from repro.serving import (
        ShardedGateway,
        StreamGateway,
        find_max_sustained,
        synthesize_fleet,
    )

    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    if args.connect and args.workers > 1:
        raise SystemExit(
            "error: --connect drives a remote server; sharding is the "
            "server's choice (repro serve --listen --workers N)"
        )

    if args.connect:
        # The remote servers own the classifier; nothing to train here.
        endpoints = [_parse_hostport(spec) for spec in args.connect]
        classifier = None
    else:
        config = Table3Config(
            scale=_scale(args), seed=args.seed, genetic=_genetic(args)
        )
        print("Training + quantizing the shared classifier ...")
        classifier, _ = build_embedded_classifier(config)

    fs = 360.0
    print(
        f"Synthesizing a {args.sessions}-session fleet "
        f"({args.duration:.0f} s each, mixed morphology/noise/rate) ..."
    )
    streams, nominal_eps = synthesize_fleet(
        args.sessions, args.duration, fs=fs, seed=args.seed
    )
    chunk = max(1, int(round(args.chunk_ms * 1e-3 * fs)))
    gateway_kwargs = dict(
        n_leads=1,
        max_batch=args.max_batch,
        max_latency_ticks=args.max_latency_ticks,
    )

    def make_target():
        if args.connect:
            from repro.serving.net import GatewayClient

            if len(endpoints) > 1:
                from repro.serving.federation import FederatedGateway

                return FederatedGateway(endpoints, window=args.window)
            return GatewayClient(
                endpoints[0][0], endpoints[0][1], window=args.window
            ).connect()
        if args.workers > 1:
            return ShardedGateway(
                classifier, fs, workers=args.workers, **gateway_kwargs
            )
        return StreamGateway(classifier, fs, **gateway_kwargs)

    if args.connect and len(endpoints) > 1:
        tier = f"federated over {len(endpoints)} hosts (window {args.window})"
    elif args.connect:
        tier = f"remote {args.connect[0]} (window {args.window})"
    elif args.workers > 1:
        tier = f"{args.workers} process workers"
    else:
        tier = "single process"
    print(
        f"Ramping offered load ({tier}, nominal fleet rate "
        f"{nominal_eps:.1f} events/s, growth x{args.growth:.2f}, "
        f"up to {args.steps} steps) ..."
    )
    best, reports = find_max_sustained(
        make_target,
        streams,
        fs=fs,
        chunk=chunk,
        nominal_eps=nominal_eps,
        start_eps=args.start_eps,
        growth=args.growth,
        max_steps=args.steps,
    )
    header = (
        f"  {'target':>10} {'offered':>10} {'achieved':>10} "
        f"{'p50':>9} {'p99':>9}  status"
    )
    print(header)
    for report in reports:
        status = "sustained" if report.sustained else "UNSUSTAINED"
        print(
            f"  {report.target_eps:>8.1f}/s {report.offered_eps:>8.1f}/s "
            f"{report.achieved_eps:>8.1f}/s {report.p50_ms:>6.1f} ms "
            f"{report.p99_ms:>6.1f} ms  {status}"
        )
    if best is None:
        print("no sustained operating point found; lower --start-eps")
        return 1
    print(
        f"max sustained: {best.achieved_eps:.0f} events/s "
        f"({best.achieved_eps / nominal_eps:.1f}x the nominal fleet rate) "
        f"at p50 {best.p50_ms:.1f} ms / p99 {best.p99_ms:.1f} ms over "
        f"{best.n_events} events"
    )
    return 0


def cmd_federate(args) -> int:
    """Scale-out demo: a FederatedGateway over N local host processes."""
    from repro.experiments.table3 import Table3Config, build_embedded_classifier
    from repro.serving import (
        FederatedGateway,
        replay_fleet,
        spawn_host,
        synthesize_fleet,
    )

    if args.hosts < 1:
        raise SystemExit("error: --hosts must be >= 1")
    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")

    config = Table3Config(
        scale=_scale(args), seed=args.seed, genetic=_genetic(args)
    )
    print("Training + quantizing the shared classifier ...")
    classifier, _ = build_embedded_classifier(config)

    fs = 360.0
    chunk = max(1, int(round(args.chunk_ms * 1e-3 * fs)))
    gateway_kwargs = dict(
        n_leads=1,
        max_batch=args.max_batch,
        max_latency_ticks=args.max_latency_ticks,
    )
    print(f"Spawning {args.hosts} local gateway host process(es) ...")
    hosts = [
        spawn_host(
            classifier, fs, workers=args.workers, gateway_kwargs=gateway_kwargs
        )
        for _ in range(args.hosts)
    ]
    try:
        streams, nominal_eps = synthesize_fleet(
            args.sessions, args.duration, fs=fs, seed=args.seed
        )
        with FederatedGateway(
            [h.address for h in hosts],
            placement=args.placement or "least-loaded",
            window=args.window,
            send_buffer=1 << 14,
        ) as fed:
            print(
                f"Replaying {len(streams)} sessions across {fed.hosts} "
                f"host(s) (chunk {args.chunk_ms:.0f} ms, window "
                f"{args.window}) ..."
            )
            report = replay_fleet(fed, streams, fs=fs, chunk=chunk)
            stats = fed.stats()
    finally:
        for host in hosts:
            host.stop()
    print(
        f"aggregate: {report.n_events} events at "
        f"{report.achieved_eps:.0f} events/s "
        f"({report.achieved_eps / nominal_eps:.1f}x the nominal fleet "
        f"rate), p50 {report.p50_ms:.1f} ms / p99 {report.p99_ms:.1f} ms"
    )
    for index, host_stats in enumerate(stats["per_host"]):
        print(
            f"  host {index}: {host_stats['n_flushes']} flushes, "
            f"{host_stats['n_classified']} beats classified"
        )
    return 0


def cmd_subjects(args) -> int:
    from repro.experiments.cross_subject import (
        CrossSubjectConfig,
        format_cross_subject,
        run_cross_subject,
    )

    config = CrossSubjectConfig(seed=args.seed, genetic=_genetic(args))
    print(format_cross_subject(run_cross_subject(config)))
    return 0


def cmd_report(args) -> int:
    from repro.experiments.report import ReportConfig, generate_report

    config = ReportConfig(scale=_scale(args), seed=args.seed, genetic=_genetic(args))
    path = generate_report(args.output_dir, config)
    print(f"wrote {path} (+ CSV sweeps alongside)")
    return 0


def cmd_all(args) -> int:
    for title, command in (
        ("Table I", cmd_table1),
        ("Table II", cmd_table2),
        ("Figure 4", cmd_figure4),
        ("Figure 5", cmd_figure5),
        ("Table III", cmd_table3),
        ("Section IV-E energy", cmd_energy),
        ("Extension: multi-lead", cmd_multilead),
        ("Extension: noise stress", cmd_noise),
        ("Extension: alpha decoupling", cmd_alpha),
    ):
        print(f"\n===== {title} =====")
        command(args)
    return 0


def cmd_train(args) -> int:
    from repro.core.pipeline import RPClassifierPipeline
    from repro.core.training import TrainingConfig
    from repro.experiments.datasets import make_embedded_datasets
    from repro.fixedpoint.convert import convert_pipeline, tune_embedded_alpha
    from repro.io import save_embedded, save_pipeline

    data = make_embedded_datasets(scale=_scale(args), seed=args.seed)
    config = TrainingConfig(
        n_coefficients=args.coefficients, genetic=_genetic(args)
    )
    pipeline = RPClassifierPipeline.train(
        data.train1, data.train2, args.coefficients, seed=args.seed, config=config
    )
    report = pipeline.tuned_for(data.test, 0.97).evaluate(data.test)
    print(f"float:    {report.summary()}")
    classifier = tune_embedded_alpha(
        convert_pipeline(pipeline, shape="linear"), data.test, 0.97
    )
    print(f"embedded: {classifier.evaluate(data.test).summary()}")
    save_pipeline(pipeline, args.output + ".pipeline.npz")
    save_embedded(classifier, args.output + ".embedded.npz")
    print(f"saved {args.output}.pipeline.npz and {args.output}.embedded.npz")
    return 0


def cmd_codegen(args) -> int:
    from repro.fixedpoint.codegen import generate_c_header
    from repro.io import load_embedded

    classifier = load_embedded(args.model)
    header = generate_c_header(classifier, name=args.name)
    if args.output == "-":
        sys.stdout.write(header)
    else:
        with open(args.output, "w") as handle:
            handle.write(header)
        print(f"wrote {args.output} ({len(header)} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Embedded Classification of Heartbeats "
        "Using Random Projections' (DATE 2013)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_text in (
        ("table1", cmd_table1, "dataset composition (Table I)"),
        ("table2", cmd_table2, "NDR vs coefficient count (Table II)"),
        ("figure4", cmd_figure4, "MF linearization error (Figure 4)"),
        ("figure5", cmd_figure5, "NDR/ARR Pareto fronts (Figure 5)"),
        ("table3", cmd_table3, "code size and duty cycle (Table III)"),
        ("energy", cmd_energy, "energy savings (Section IV-E)"),
        ("multilead", cmd_multilead, "extension: multi-lead RP classification"),
        ("noise", cmd_noise, "extension: noise-stress robustness"),
        ("alpha", cmd_alpha, "extension: alpha_train/alpha_test decoupling"),
        ("subjects", cmd_subjects, "extension: intra- vs inter-patient protocol"),
        ("all", cmd_all, "run every artifact"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_common(sub)
        sub.set_defaults(fn=fn)

    simulate = subparsers.add_parser(
        "simulate", help="event-driven node simulation on a synthetic record"
    )
    _add_common(simulate)
    simulate.add_argument("--duration", type=float, default=60.0,
                          help="record length in seconds")
    simulate.set_defaults(fn=cmd_simulate)

    serve = subparsers.add_parser(
        "serve",
        help="session gateway: live multi-session streams, batched classification",
    )
    _add_common(serve)
    serve.add_argument("--sessions", type=int, default=6,
                       help="number of concurrently live streams")
    serve.add_argument("--duration", type=float, default=30.0,
                       help="per-session stream length in seconds")
    serve.add_argument("--chunk-ms", type=float, default=250.0,
                       help="ingest chunk size in milliseconds")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="flush the cross-session batch at this many beats")
    serve.add_argument("--max-latency-ticks", type=int, default=8,
                       help="flush when the oldest beat waited this many ingests")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes; > 1 shards the sessions "
                            "across a ShardedGateway pool")
    serve.add_argument("--placement", default=None, choices=PLACEMENTS,
                       help="session placement policy for sharded pools "
                            "(default: hash)")
    serve.add_argument("--journal", default=None, metavar="DIR",
                       help="write-ahead session journal directory: chunks "
                            "are journaled before processing, snapshots taken "
                            "on a cadence, and (with --workers N) the pool "
                            "respawns crashed workers and recovers their "
                            "sessions bit-exactly")
    serve.add_argument("--snapshot-every", type=int, default=64,
                       help="journal snapshot cadence in accepted chunks per "
                            "session (bounds recovery replay length)")
    serve.add_argument("--analytics", action="store_true",
                       help="attach the default streaming-analytics pipeline "
                            "(RR stats, HRV, rate/arrhythmia episodes) to "
                            "every session and print the fleet rollup")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="expose the gateway on a TCP socket (zero-copy "
                            "framed protocol) instead of replaying a local "
                            "fleet; clients attach with 'repro connect' or "
                            "'repro loadgen --connect'")
    serve.add_argument("--profile", action="store_true",
                       help="cProfile the serve loop (training excluded) and "
                            "print the hottest functions on exit")
    serve.add_argument("--profile-top", type=int, default=15,
                       help="rows to print from the --profile stats")
    serve.set_defaults(fn=cmd_serve)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="closed-loop load generator: ramp a synthetic fleet to its "
             "max sustained events/s with p50/p99 latency",
    )
    _add_common(loadgen)
    loadgen.add_argument("--sessions", type=int, default=6,
                         help="fleet size (morphology/noise/rate mixed)")
    loadgen.add_argument("--duration", type=float, default=30.0,
                         help="per-session stream length in seconds")
    loadgen.add_argument("--chunk-ms", type=float, default=250.0,
                         help="ingest chunk size in milliseconds")
    loadgen.add_argument("--max-batch", type=int, default=64,
                         help="flush the cross-session batch at this many beats")
    loadgen.add_argument("--max-latency-ticks", type=int, default=8,
                         help="flush when the oldest beat waited this many ingests")
    loadgen.add_argument("--workers", type=int, default=1,
                         help="worker count; > 1 shards across a ShardedGateway")
    loadgen.add_argument("--start-eps", type=float, default=None,
                         help="first ramp step's offered events/s "
                              "(default: the fleet's nominal rate)")
    loadgen.add_argument("--growth", type=float, default=1.4,
                         help="offered-rate multiplier between ramp steps")
    loadgen.add_argument("--steps", type=int, default=6,
                         help="max ramp steps")
    loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                         action="append",
                         help="drive a remote 'repro serve --listen' gateway "
                              "over TCP instead of an in-process one (skips "
                              "local training); repeat the flag to federate "
                              "across several hosts through one front door")
    loadgen.add_argument("--window", type=int, default=8,
                         help="client pipelining depth for --connect")
    loadgen.set_defaults(fn=cmd_loadgen)

    federate = subparsers.add_parser(
        "federate",
        help="horizontal scale-out demo: N local gateway host processes "
             "behind a FederatedGateway front door",
    )
    _add_common(federate)
    federate.add_argument("--hosts", type=int, default=2,
                          help="local gateway host processes to spawn")
    federate.add_argument("--sessions", type=int, default=8,
                          help="fleet size (morphology/noise/rate mixed)")
    federate.add_argument("--duration", type=float, default=30.0,
                          help="per-session stream length in seconds")
    federate.add_argument("--chunk-ms", type=float, default=100.0,
                          help="ingest chunk size in milliseconds")
    federate.add_argument("--max-batch", type=int, default=64,
                          help="flush the cross-session batch at this many beats")
    federate.add_argument("--max-latency-ticks", type=int, default=8,
                          help="flush when the oldest beat waited this many ingests")
    federate.add_argument("--workers", type=int, default=1,
                          help="workers per host; > 1 runs a ShardedGateway "
                               "on each host")
    federate.add_argument("--placement", default=None, choices=PLACEMENTS,
                          help="cross-host session placement policy "
                               "(default: least-loaded)")
    federate.add_argument("--window", type=int, default=32,
                          help="per-host client pipelining depth")
    federate.set_defaults(fn=cmd_federate)

    connect = subparsers.add_parser(
        "connect",
        help="stream a synthesized fleet into a remote 'repro serve --listen' "
             "gateway and report client-observed throughput/latency",
    )
    connect.add_argument("connect", metavar="HOST:PORT",
                         help="address of the remote gateway")
    connect.add_argument("--sessions", type=int, default=6,
                         help="fleet size (morphology/noise/rate mixed)")
    connect.add_argument("--duration", type=float, default=30.0,
                         help="per-session stream length in seconds")
    connect.add_argument("--chunk-ms", type=float, default=250.0,
                         help="ingest chunk size in milliseconds")
    connect.add_argument("--window", type=int, default=8,
                         help="chunks in flight per session (pipelining)")
    connect.add_argument("--target-eps", type=float, default=None,
                         help="pace the replay at this offered events/s "
                              "(default: unpaced, as fast as accepted)")
    connect.add_argument("--analytics", action="store_true",
                         help="fetch and print the server-side streaming-"
                              "analytics rollup after the replay (pair with "
                              "'repro serve --listen --analytics')")
    connect.add_argument("--seed", type=int, default=7)
    connect.set_defaults(fn=cmd_connect)

    report = subparsers.add_parser(
        "report", help="write report.md + CSV sweeps for every artifact"
    )
    _add_common(report)
    report.add_argument("--output-dir", default="report",
                        help="directory for report.md and the CSVs")
    report.set_defaults(fn=cmd_report)

    train = subparsers.add_parser("train", help="train and save a classifier")
    _add_common(train)
    train.add_argument("--coefficients", type=int, default=8)
    train.add_argument("--output", default="rp_classifier",
                       help="output path prefix for the saved models")
    train.set_defaults(fn=cmd_train)

    codegen = subparsers.add_parser("codegen", help="emit a C header for a saved model")
    codegen.add_argument("model", help="path to a saved .embedded.npz model")
    codegen.add_argument("--output", default="-", help="header path ('-' = stdout)")
    codegen.add_argument("--name", default="rp_classifier")
    codegen.set_defaults(fn=cmd_codegen)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
