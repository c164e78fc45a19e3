"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, TOOLS, main
from repro.core.registry import available_estimators


class TestCliList:
    def test_list_command_prints_experiments_and_estimators(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output
        assert "switch_total" in output

    def test_list_command_covers_tools_and_all_estimators(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in TOOLS:
            assert name in output
        for name in available_estimators():
            assert name in output


class TestCliExamples:
    def test_example1_runs(self, capsys):
        assert main(["example1", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "chao92_total" in output
        assert "true_errors" in output

    def test_example2_runs(self, capsys):
        assert main(["example2", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "false positive rate = 0.01" in output


class TestCliQuality:
    def test_quality_report(self, capsys):
        code = main(
            [
                "quality",
                "--items", "200",
                "--errors", "20",
                "--tasks", "40",
                "--seed", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "estimated total" in output
        assert "quality score" in output


class TestCliStream:
    def test_stream_prints_live_estimate_rows(self, capsys):
        code = main(
            [
                "stream",
                "--items", "150",
                "--errors", "15",
                "--tasks", "30",
                "--report-every", "10",
                "--seed", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "streaming 30 tasks" in output
        for name in ("voting", "chao92", "switch_total"):
            assert name in output
        # One row per report interval: tasks 10, 20 and 30.
        data_rows = [line for line in output.splitlines()[2:] if line.strip()]
        assert len(data_rows) == 3

    def test_stream_respects_estimator_selection(self, capsys):
        code = main(
            [
                "stream",
                "--items", "100",
                "--errors", "10",
                "--tasks", "12",
                "--estimators", "voting", "nominal",
                "--seed", "1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "nominal" in output
        assert "chao92" not in output


class TestCliSweep:
    def test_sweep_prints_series_table(self, capsys):
        code = main(
            [
                "sweep",
                "--items", "150",
                "--errors", "15",
                "--tasks", "30",
                "--permutations", "2",
                "--checkpoints", "4",
                "--seed", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "n_jobs=1" in output
        assert "truth" in output
        for name in ("voting", "chao92", "vchao92", "switch_total"):
            assert name in output

    def test_sweep_parallel_output_matches_serial(self, capsys):
        args = [
            "sweep",
            "--items", "120",
            "--errors", "12",
            "--tasks", "24",
            "--permutations", "3",
            "--checkpoints", "4",
            "--seed", "9",
        ]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--n-jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial.replace("n_jobs=1", "") == parallel.replace("n_jobs=2", "")


class TestCliArgumentErrors:
    """Bad argument values: exit 2, one `error:` line, no traceback."""

    SWEEP_ARGS = [
        "sweep",
        "--items", "40",
        "--errors", "4",
        "--tasks", "8",
        "--checkpoints", "2",
    ]

    def test_sweep_bad_value_exits_2_with_one_line(self, capsys):
        assert main(self.SWEEP_ARGS + ["--permutations", "0"]) == 2
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "num_permutations" in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["scenario", "run", "not-a-scenario"], "unknown scenario"),
            (
                ["stream", "--items", "50", "--errors", "5", "--tasks", "5",
                 "--estimators", "nosuch"],
                "unknown estimator",
            ),
            (["quality", "--items", "10", "--errors", "20", "--tasks", "5"], "num_errors"),
        ],
        ids=["scenario", "stream", "quality"],
    )
    def test_every_command_exits_2_with_one_line(self, args, message, capsys):
        """One error boundary covers every command, not only the store ones."""
        assert main(args) == 2
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "args",
        [SWEEP_ARGS, ["bench", "--workload", "smoke", "--dry-run"]],
        ids=["sweep", "bench"],
    )
    def test_there_is_no_backend_option(self, args, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestCliScenario:
    def test_scenario_list_prints_catalogue_with_tags(self, capsys):
        from repro.scenarios import available_scenarios

        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        for name in available_scenarios():
            assert name in output
        assert "adversarial" in output

    def test_scenario_run_prints_the_golden_bytes(self, capsys):
        """`repro scenario run <name>` stdout == the golden file, byte for byte."""
        from repro.scenarios import read_golden

        assert main(["scenario", "run", "colluding-cliques"]) == 0
        assert capsys.readouterr().out == read_golden("colluding-cliques")

    def test_scenario_run_with_seed_override(self, capsys):
        assert main(["scenario", "run", "fp-heavy", "--seed", "999"]) == 0
        output = capsys.readouterr().out
        import json

        payload = json.loads(output)
        assert payload["seed"] == 999
        assert payload["equivalence"] == {
            "batch_vs_sweep": True,
            "streaming_vs_sweep": True,
            "perm_batch_vs_sweep": True,
        }

    def test_scenario_check_passes_on_committed_goldens(self, capsys):
        assert main(["scenario", "check", "perfect-crowd", "fn-heavy"]) == 0
        output = capsys.readouterr().out
        assert output.count("ok") == 2
        assert "DRIFT" not in output

    def test_scenario_check_drift_says_how_to_re_record(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.scenarios.golden as golden_module

        monkeypatch.setattr(golden_module, "default_golden_dir", lambda: tmp_path)
        assert main(["scenario", "record", "fp-heavy"]) == 0
        golden = tmp_path / "fp-heavy.json"
        golden.write_text(golden.read_text().replace("0", "1", 1))
        capsys.readouterr()
        assert main(["scenario", "check", "fp-heavy"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("DRIFT  fp-heavy")
        assert "re-record with 'python -m repro scenario record'" in captured.err

    def test_scenario_record_writes_requested_goldens(self, capsys, tmp_path, monkeypatch):
        import repro.scenarios.golden as golden_module

        monkeypatch.setattr(golden_module, "default_golden_dir", lambda: tmp_path)
        assert main(["scenario", "record", "fp-heavy"]) == 0
        assert "recorded" in capsys.readouterr().out
        assert (tmp_path / "fp-heavy.json").exists()


class TestCliReplay:
    """`repro replay`: session WAL -> scenario spec / trajectory."""

    @staticmethod
    def make_wal(tmp_path):
        from repro.serving import DirectorySessionStore, EstimationService

        service = EstimationService(DirectorySessionStore(tmp_path / "store"))
        service.create_session("prod", range(10), ["voting", "chao92"])
        service.ingest("prod", [{0: 1, 3: 0}], source="w", sequence=1)
        service.ingest("prod", [{1: 1, 4: 1}], source="w", sequence=2)
        return tmp_path / "store" / "prod.log"

    def test_replay_prints_a_round_tripping_spec(self, capsys, tmp_path):
        import json

        from repro.scenarios import TRACE_TAG, Scenario

        wal = self.make_wal(tmp_path)
        assert main(["replay", str(wal), "--name", "prod-replay"]) == 0
        scenario = Scenario.from_dict(json.loads(capsys.readouterr().out))
        assert scenario.name == "prod-replay"
        assert TRACE_TAG in scenario.tags
        assert scenario.estimators == ("voting", "chao92")
        assert len(scenario.trace.columns) == 2

    def test_replay_run_prints_the_canonical_trajectory(self, capsys, tmp_path):
        import json

        from repro.scenarios.runner import MODES

        wal = self.make_wal(tmp_path)
        code = main(
            ["replay", str(wal), "--name", "prod-replay", "--run",
             "--estimators", "voting"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["modes"] == list(MODES)
        assert all(payload["equivalence"].values())
        assert set(payload["trajectories"]) == {"voting"}

    def test_replay_on_a_bad_log_exits_2_with_one_line(self, capsys, tmp_path):
        broken = tmp_path / "not-a-wal.log"
        broken.write_bytes(b"junk bytes, no frame")
        assert main(["replay", str(broken), "--name", "x"]) == 2
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestCliSession:
    """The `repro session` serving commands against a temporary store."""

    @staticmethod
    def _store_args(tmp_path):
        return ["--store", str(tmp_path / "sessions")]

    def test_create_ingest_estimate_workflow(self, capsys, tmp_path):
        import json

        store = self._store_args(tmp_path)
        assert main(["session", "create", "demo", "--items", "6",
                     "--estimators", "voting", "chao92", *store]) == 0
        assert "created session 'demo'" in capsys.readouterr().out

        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(
            [{"votes": {"0": 1, "1": 0}, "worker": 7}, {"2": 1}]
        ))
        assert main(["session", "ingest", "demo", "--votes", str(batch),
                     "--source", "loader", "--sequence", "1", *store]) == 0
        assert "applied: 2" in capsys.readouterr().out

        # The retried delivery is a no-op.
        assert main(["session", "ingest", "demo", "--votes", str(batch),
                     "--source", "loader", "--sequence", "1", *store]) == 0
        assert "duplicate batch skipped" in capsys.readouterr().out

        assert main(["session", "estimate", "demo", *store]) == 0
        output = capsys.readouterr().out
        assert "voting" in output and "chao92" in output

        assert main(["session", "list", *store]) == 0
        listing = capsys.readouterr().out
        assert "demo" in listing and "2" in listing

    def test_snapshot_export_and_restore_under_new_name(self, capsys, tmp_path):
        import json

        store = self._store_args(tmp_path)
        assert main(["session", "create", "origin", "--item-ids", "3", "5", "9",
                     "--estimators", "voting", *store]) == 0
        batch = tmp_path / "one.json"
        batch.write_text(json.dumps([{"3": 1, "5": 0}]))
        assert main(["session", "ingest", "origin", "--votes", str(batch), *store]) == 0
        capsys.readouterr()

        export = tmp_path / "export"
        assert main(["session", "snapshot", "origin", "--out", str(export), *store]) == 0
        assert "exported" in capsys.readouterr().out
        assert (export / "manifest.json").exists()

        assert main(["session", "restore", "clone", "--from", str(export), *store]) == 0
        assert "restored 'clone'" in capsys.readouterr().out
        assert main(["session", "estimate", "clone", *store]) == 0
        clone_output = capsys.readouterr().out
        assert main(["session", "estimate", "origin", *store]) == 0
        assert clone_output == capsys.readouterr().out

    def test_sessions_accumulate_across_invocations(self, capsys, tmp_path):
        """Each CLI call is a fresh process-equivalent service over the store."""
        import json

        store = self._store_args(tmp_path)
        assert main(["session", "create", "acc", "--items", "4",
                     "--estimators", "voting", *store]) == 0
        batch = tmp_path / "b.json"
        for sequence in (1, 2):
            batch.write_text(json.dumps([{"0": 1}]))
            assert main(["session", "ingest", "acc", "--votes", str(batch),
                         "--source", "s", "--sequence", str(sequence), *store]) == 0
        capsys.readouterr()
        assert main(["session", "list", *store]) == 0
        assert " 2 " in capsys.readouterr().out.replace("\n", " ")

    def test_compact_folds_the_log_into_a_snapshot(self, capsys, tmp_path):
        import json

        from repro.streaming import DirectorySessionStore

        store = self._store_args(tmp_path)
        assert main(["session", "create", "packed", "--items", "4",
                     "--estimators", "voting", *store]) == 0
        batch = tmp_path / "c.json"
        batch.write_text(json.dumps([{"0": 1, "2": 0}]))
        assert main(["session", "ingest", "packed", "--votes", str(batch), *store]) == 0
        directory = DirectorySessionStore(tmp_path / "sessions")
        assert directory.log_size("packed") > 0
        capsys.readouterr()
        assert main(["session", "compact", "packed", *store]) == 0
        assert "compacted 'packed'" in capsys.readouterr().out
        assert directory.log_size("packed") == 0
        assert main(["session", "estimate", "packed", *store]) == 0
        assert "voting" in capsys.readouterr().out

    def test_sharded_store_records_and_reuses_the_shard_count(self, capsys, tmp_path):
        import json

        store = self._store_args(tmp_path)
        assert main(["session", "create", "alpha", "--items", "4",
                     "--estimators", "voting", "--shards", "3", *store]) == 0
        assert (tmp_path / "sessions" / "shards.json").exists()
        batch = tmp_path / "s.json"
        batch.write_text(json.dumps([{"0": 1}]))
        # Later invocations pick the shard count up from the manifest.
        assert main(["session", "ingest", "alpha", "--votes", str(batch), *store]) == 0
        assert main(["session", "create", "beta", "--items", "4",
                     "--estimators", "voting", *store]) == 0
        capsys.readouterr()
        assert main(["session", "list", *store]) == 0
        listing = capsys.readouterr().out
        assert "alpha" in listing and "beta" in listing
        # A mismatching explicit count is an operator error, not a traceback.
        assert main(["session", "list", "--shards", "5", *store]) == 2
        assert "shard count mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, needle",
        [
            (b'{"format_version": 1}', "num_shards"),
            (b'{"format_version": 1, "num_shards": "x"}', "num_shards"),
            (b'{"format_version": 1, "num_shards": true}', "num_shards"),
            (b'{"format_version": 1, "num_shards": 0}', "num_shards"),
            (b'{"format_version": 1, "num_shards": -2}', "num_shards"),
            (b'{"format_version": 1, "num_shards": "\xff"}', "utf-8"),
        ],
        ids=["missing", "string", "bool", "zero", "negative", "non-utf8"],
    )
    def test_a_malformed_shard_manifest_is_one_error_line(
        self, capsys, tmp_path, content, needle
    ):
        root = tmp_path / "sessions"
        root.mkdir()
        (root / "shards.json").write_bytes(content)
        assert main(["session", "list", *self._store_args(tmp_path)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "shards.json" in lines[0] and needle in lines[0]

    @pytest.mark.parametrize("damaged", ["manifest.json", "arrays.npz"])
    def test_a_corrupt_snapshot_export_is_one_error_line(
        self, capsys, tmp_path, damaged
    ):
        store = self._store_args(tmp_path)
        assert main(["session", "create", "origin", "--items", "3",
                     "--estimators", "voting", *store]) == 0
        export = tmp_path / "export"
        assert main(["session", "snapshot", "origin", "--out", str(export), *store]) == 0
        capsys.readouterr()
        (export / damaged).write_bytes(b"{ not a snapshot")
        assert main(["session", "restore", "clone", "--from", str(export), *store]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(export / damaged) in lines[0]
        assert main(["session", "list", *store]) == 0
        assert "clone" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value",
        [
            ("estimators", 5),
            ("format_version", "x"),
            ("state", []),
            ("serving", {"sources": 5}),
        ],
    )
    def test_a_malformed_manifest_field_is_one_error_line(
        self, capsys, tmp_path, field, value
    ):
        import json

        store = self._store_args(tmp_path)
        assert main(["session", "create", "origin", "--items", "3",
                     "--estimators", "voting", *store]) == 0
        export = tmp_path / "export"
        assert main(["session", "snapshot", "origin", "--out", str(export), *store]) == 0
        capsys.readouterr()
        manifest = json.loads((export / "manifest.json").read_text())
        manifest[field] = value
        (export / "manifest.json").write_text(json.dumps(manifest))
        assert main(["session", "restore", "clone", "--from", str(export), *store]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "manifest.json" in lines[0] and repr(field) in lines[0]
        assert main(["session", "list", *store]) == 0
        assert "clone" not in capsys.readouterr().out

    def test_an_old_layout_store_is_one_error_line(self, capsys, tmp_path):
        old = tmp_path / "sessions" / "prod"
        (old / "gen-00000001").mkdir(parents=True)
        (old / "wal-00000001.log").touch()
        assert main(["session", "list", *self._store_args(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(old) in lines[0] and "old store layout" in lines[0]

    def test_unknown_session_fails_with_available_names(self, capsys, tmp_path):
        # Operator-facing store errors surface as a one-line message and a
        # distinct exit code, never as a traceback.
        assert main(["session", "estimate", "ghost", *self._store_args(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "unknown session" in captured.err
        assert captured.err.count("\n") == 1

    def test_no_keep_votes_session_still_estimates(self, capsys, tmp_path):
        import json

        store = self._store_args(tmp_path)
        assert main(["session", "create", "lean", "--items", "3",
                     "--estimators", "voting", "--no-keep-votes", *store]) == 0
        batch = tmp_path / "lean.json"
        batch.write_text(json.dumps([{"0": 1}]))
        assert main(["session", "ingest", "lean", "--votes", str(batch), *store]) == 0
        assert main(["session", "estimate", "lean", *store]) == 0
        assert "1.0" in capsys.readouterr().out

    def _ingest_fails_one_line(self, capsys, tmp_path, batch, needle):
        """A malformed --votes payload: exit 2, one `error:` line, no traceback.

        The payload is diagnosed before the store is consulted, so these
        run against an empty store — regression coverage for the raw
        ``json.JSONDecodeError``/``KeyError`` tracebacks this path used
        to leak.
        """
        store = self._store_args(tmp_path)
        assert main(["session", "ingest", "mal", "--votes", str(batch), *store]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert needle in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_ingest_rejects_invalid_json_with_one_line_error(self, capsys, tmp_path):
        batch = tmp_path / "broken.json"
        batch.write_text('{"oops": ')
        self._ingest_fails_one_line(capsys, tmp_path, batch, "not valid JSON")

    def test_ingest_rejects_non_list_payload_with_one_line_error(self, capsys, tmp_path):
        import json

        batch = tmp_path / "notalist.json"
        batch.write_text(json.dumps({"0": 1}))
        self._ingest_fails_one_line(
            capsys, tmp_path, batch, "must be a JSON list of column objects"
        )

    def test_ingest_rejects_non_integer_votes_with_one_line_error(self, capsys, tmp_path):
        import json

        batch = tmp_path / "badvote.json"
        batch.write_text(json.dumps([{"votes": {"0": "dirty"}}]))
        self._ingest_fails_one_line(
            capsys, tmp_path, batch, "item ids and votes must be integers"
        )

    def test_ingest_rejects_unknown_column_keys_with_one_line_error(self, capsys, tmp_path):
        import json

        batch = tmp_path / "extrakey.json"
        batch.write_text(json.dumps([{"votes": {"0": 1}, "wrker": 3}]))
        self._ingest_fails_one_line(capsys, tmp_path, batch, "unknown key(s)")

    def test_ingest_rejects_missing_votes_file_with_one_line_error(self, capsys, tmp_path):
        self._ingest_fails_one_line(
            capsys, tmp_path, tmp_path / "nope.json", "cannot read --votes file"
        )

    def test_rejected_ingest_leaves_the_session_untouched(self, capsys, tmp_path):
        import json

        store = self._store_args(tmp_path)
        assert main(["session", "create", "mal", "--items", "5",
                     "--estimators", "voting", *store]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('[{"votes": 3}]')
        assert main(["session", "ingest", "mal", "--votes", str(bad), *store]) == 2
        capsys.readouterr()
        assert main(["session", "list", *store]) == 0
        listing = capsys.readouterr().out
        assert "mal" in listing and "0" in listing  # still zero columns


class TestCliServe:
    """`repro serve` argument surface (process behaviour lives in tests/e2e)."""

    def test_serve_is_listed_as_a_tool(self, capsys):
        assert main(["list"]) == 0
        assert "serve" in capsys.readouterr().out

    def test_serve_rejects_unknown_arguments(self):
        with pytest.raises(SystemExit):
            main(["serve", "--no-such-flag"])


class TestCliFigures:
    def test_figure7_small_run(self, capsys):
        assert main(["figure7", "--scenario", "both", "--tasks", "30", "--seed", "2"]) == 0
        output = capsys.readouterr().out
        assert "chao92" in output
        assert "switch_total" in output

    def test_figure5_small_run(self, capsys):
        assert (
            main(["figure5", "--tasks", "40", "--scale", "0.05", "--permutations", "2"]) == 0
        )
        output = capsys.readouterr().out
        assert "voting" in output

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
