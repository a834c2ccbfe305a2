"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import _local_tier, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.dest == "command"
        )
        commands = set(subparsers.choices)
        assert {
            "table1",
            "table2",
            "figure4",
            "figure5",
            "table3",
            "energy",
            "multilead",
            "noise",
            "alpha",
            "all",
            "train",
            "codegen",
            "simulate",
            "serve",
            "loadgen",
            "report",
        } <= commands

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_placement_validated_at_parse_time(self):
        """A typo'd placement fails before any training starts."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--placement", "least-load"])

    def test_serve_placement_rejected_without_sharded_mode(self):
        """--placement on a single-process serve is a no-op; refuse it
        loudly instead of silently ignoring it."""
        with pytest.raises(SystemExit, match="placement"):
            main(["serve", "--placement", "round-robin"])

    @pytest.mark.parametrize(
        "flag",
        [
            ["--autoscale"],
            ["--min-workers", "1"],
            ["--max-workers", "4"],
            ["--target-depth", "4"],
        ],
    )
    def test_serve_has_no_elastic_pool_options(self, flag, capsys):
        """A sharded serve pool has a fixed size set by --workers; the
        elastic-pool options are unknown to the parser, so a script that
        still passes one fails before any training starts."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--workers", "2", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "train1" in out and "paper" in out

    def test_figure4(self, capsys):
        assert main(["figure4"]) == 0
        out = capsys.readouterr().out
        assert "linear" in out and "triangular" in out

    def test_table3(self, capsys):
        assert (
            main(["table3", "--scale", "0.02", "--ga-pop", "4", "--ga-gen", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "RP-classifier" in out
        assert "Proposed system (3)" in out

    def test_energy(self, capsys):
        assert (
            main(["energy", "--scale", "0.02", "--ga-pop", "4", "--ga-gen", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "wireless saving" in out

    def test_alpha(self, capsys):
        assert (
            main(["alpha", "--scale", "0.02", "--ga-pop", "4", "--ga-gen", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "retuned NDR" in out

    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--scale",
                    "0.02",
                    "--ga-pop",
                    "4",
                    "--ga-gen",
                    "2",
                    "--duration",
                    "20",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "deadline misses" in out

    def test_serve(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scale",
                    "0.02",
                    "--ga-pop",
                    "4",
                    "--ga-gen",
                    "2",
                    "--sessions",
                    "3",
                    "--duration",
                    "15",
                    "--max-batch",
                    "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "events/s" in out and "batched" in out
        assert "session-0" in out and "session-2" in out

    def test_serve_multi_worker(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scale",
                    "0.02",
                    "--ga-pop",
                    "4",
                    "--ga-gen",
                    "2",
                    "--sessions",
                    "3",
                    "--duration",
                    "15",
                    "--max-batch",
                    "16",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 process workers" in out
        assert "events/s" in out and "batched" in out
        assert "session-0" in out and "session-2" in out

    def test_serve_profile(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scale",
                    "0.02",
                    "--ga-pop",
                    "4",
                    "--ga-gen",
                    "2",
                    "--sessions",
                    "2",
                    "--duration",
                    "10",
                    "--profile",
                    "--profile-top",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "--profile: top 5 functions" in out
        assert "cumulative" in out and "serve_round_robin" in out
        # Training happens outside the profiled window.
        assert "build_embedded_classifier" not in out

    def test_loadgen(self, capsys):
        assert (
            main(
                [
                    "loadgen",
                    "--scale",
                    "0.02",
                    "--ga-pop",
                    "4",
                    "--ga-gen",
                    "2",
                    "--sessions",
                    "2",
                    "--duration",
                    "10",
                    "--steps",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Ramping offered load" in out
        assert "sustained" in out
        assert "max sustained:" in out and "p99" in out


class TestLocalTier:
    """``_local_tier`` builds the tier both ``serve`` paths run: one
    ``StreamGateway`` or a ``ShardedGateway`` of worker processes, each
    journaled when a journal is set."""

    FS = 360.0

    def build(self, embedded_classifier, *argv):
        args = build_parser().parse_args(["serve", *argv])
        return _local_tier(args, embedded_classifier, self.FS, {"n_leads": 1})

    def test_single_process_by_default(self, embedded_classifier):
        from repro.serving import StreamGateway

        context, journal, tier = self.build(embedded_classifier)
        assert journal is None
        assert tier == "single process"
        with context as gateway:
            assert type(gateway) is StreamGateway
            assert gateway.journal is None

    def test_single_process_journal(
        self, embedded_classifier, tmp_path
    ):
        from repro.serving import StreamGateway

        context, journal, tier = self.build(
            embedded_classifier, "--journal", str(tmp_path / "j"),
            "--snapshot-every", "7",
        )
        assert tier == "single process, journaled"
        assert journal.snapshot_every == 7
        with context as gateway:
            assert type(gateway) is StreamGateway
            assert gateway.journal is journal
        journal.close()

    def test_workers_build_a_hash_placed_process_pool(self, embedded_classifier):
        from repro.serving import ShardedGateway

        context, journal, tier = self.build(
            embedded_classifier, "--workers", "2"
        )
        assert journal is None
        assert tier == "2 process workers, hash placement"
        with context as gateway:
            assert type(gateway) is ShardedGateway
            assert gateway.workers == 2
            assert gateway.placement == "hash"

    def test_journaled_pool_heals_itself(self, embedded_classifier, tmp_path):
        from repro.serving import ShardedGateway

        context, journal, tier = self.build(
            embedded_classifier, "--workers", "2", "--journal",
            str(tmp_path / "j"), "--snapshot-every", "5",
        )
        assert tier == "2 process workers, hash placement, journaled"
        with context as gateway:
            assert type(gateway) is ShardedGateway
            assert gateway.journal is journal
            assert journal.snapshot_every == 5
            assert gateway.workers == 2
        journal.close()

    def test_explicit_placement_wins(self, embedded_classifier):
        context, _, tier = self.build(
            embedded_classifier, "--workers", "2", "--placement", "round-robin"
        )
        assert tier == "2 process workers, round-robin placement"
        with context as gateway:
            assert gateway.placement == "round-robin"


class TestTrainAndCodegen:
    def test_train_saves_both_models(self, tmp_path, capsys):
        prefix = str(tmp_path / "model")
        code = main(
            [
                "train",
                "--scale",
                "0.02",
                "--ga-pop",
                "4",
                "--ga-gen",
                "2",
                "--output",
                prefix,
            ]
        )
        assert code == 0
        assert (tmp_path / "model.pipeline.npz").exists()
        assert (tmp_path / "model.embedded.npz").exists()
        out = capsys.readouterr().out
        assert "float:" in out and "embedded:" in out

    def test_codegen_from_saved_model(self, tmp_path, capsys, embedded_classifier):
        from repro.io import save_embedded

        model_path = tmp_path / "m.embedded.npz"
        save_embedded(embedded_classifier, model_path)
        header_path = tmp_path / "classifier.h"
        code = main(["codegen", str(model_path), "--output", str(header_path)])
        assert code == 0
        text = header_path.read_text()
        assert "#ifndef REPRO_RP_CLASSIFIER_H" in text

    def test_codegen_stdout(self, tmp_path, capsys, embedded_classifier):
        from repro.io import save_embedded

        model_path = tmp_path / "m.embedded.npz"
        save_embedded(embedded_classifier, model_path)
        assert main(["codegen", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "rp_classifier_matrix" in out

    def test_report_command(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code = main(
            [
                "report",
                "--scale",
                "0.02",
                "--ga-pop",
                "4",
                "--ga-gen",
                "2",
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "report.md").exists()
        assert (out_dir / "figure5_gaussian.csv").exists()
