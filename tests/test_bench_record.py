"""Tests of the benchmark recording tool (``repro bench``)."""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import bench
from repro.experiments.bench import (
    BenchWorkload,
    HttpWorkload,
    ServingWorkload,
    WalWorkload,
    format_summary,
    load_record,
    regression_failure,
    run_and_record,
    run_workload,
    save_record,
    update_record,
)

#: The one entry schema every family records.
ENTRY_KEYS = {"recorded_at", "machine", "params", "timings_s", "metrics"}

#: The committed performance trajectory.
COMMITTED_RECORD = Path(__file__).resolve().parents[1] / "BENCH_runner.json"

#: A workload small enough for unit tests to time end-to-end.
TINY = BenchWorkload(
    name="runner_tiny_60x20",
    num_items=60,
    num_columns=20,
    num_permutations=2,
    num_checkpoints=4,
    estimators=("voting", "chao92", "switch_total"),
)

#: A serving workload small enough for unit tests to time end-to-end.
TINY_SERVING = ServingWorkload(
    name="serving_tiny_3x20",
    num_sessions=3,
    num_items=40,
    num_columns=20,
    items_per_column=5,
    batch_columns=5,
    estimators=("voting", "chao92"),
)

#: A WAL workload small enough to crash and recover in a unit test.
TINY_WAL = WalWorkload(name="wal_tiny_3x4", num_sessions=3, verify_sample=3)


def _entry(speedup: float) -> dict:
    return {
        "recorded_at": "2026-07-30T00:00:00+00:00",
        "machine": {"usable_cpus": 1},
        "params": {"name": TINY.name, "repeats": 2, "n_jobs": 1},
        "timings_s": {"serial_engine": speedup, "batch_engine": 1.0},
        "metrics": {"batch_vs_serial": speedup},
    }


class TestRunWorkload:
    def test_entry_shape_and_engine_agreement(self):
        entry = run_workload(TINY, repeats=1)
        assert set(entry) == ENTRY_KEYS
        assert entry["params"] == {**asdict(TINY), "repeats": 1, "n_jobs": 1}
        assert set(entry["timings_s"]) == {"serial_engine", "batch_engine"}
        assert all(seconds > 0.0 for seconds in entry["timings_s"].values())
        assert entry["metrics"]["batch_vs_serial"] > 0.0
        assert "parallel_vs_serial" not in entry["metrics"]
        assert entry["machine"]["usable_cpus"] >= 1

    def test_deterministic_matrix(self):
        assert (TINY.build_matrix().values == TINY.build_matrix().values).all()

    def test_wide_workloads_exercise_many_permutations(self):
        # The acceptance-criterion shape: R >= 32 for the compiled-kernel
        # payoff workloads (both the recorded one and the CI smoke).
        assert bench.WORKLOADS["wide"].num_permutations >= 32
        assert bench.WORKLOADS["wide-smoke"].num_permutations >= 32


class TestRunServingWorkload:
    def test_entry_shape_and_throughput(self):
        entry = run_workload(TINY_SERVING, repeats=1)
        assert set(entry) == ENTRY_KEYS
        assert entry["params"]["name"] == TINY_SERVING.name
        assert entry["timings_s"]["ingest_and_estimate"] > 0.0
        assert entry["timings_s"]["snapshot_restore_cycle"] > 0.0
        metrics = entry["metrics"]
        assert metrics["columns_per_s"] > 0.0
        assert metrics["votes_per_s"] > 0.0
        # Every batch gets one computed read and one guaranteed cache hit.
        assert metrics["estimate_cache_hit_rate"] == 0.5
        assert "batch_vs_serial" not in metrics

    def test_deterministic_columns(self):
        assert TINY_SERVING.build_columns() == TINY_SERVING.build_columns()

    def test_serving_entries_are_exempt_from_the_speedup_gate(self):
        entry = run_workload(TINY_SERVING, repeats=1)
        assert regression_failure(entry, entry) is None

    def test_serving_summary_line_mentions_throughput(self):
        entry = run_workload(TINY_SERVING, repeats=1)
        summary = format_summary(entry)
        assert "columns_per_s=" in summary and "snapshot_restore_cycle=" in summary

    def test_run_and_record_serving_workload(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(bench.WORKLOADS, "serving-tiny", TINY_SERVING)
        path = tmp_path / "BENCH.json"
        assert (
            run_and_record(
                workload="serving-tiny", repeats=1, output=str(path), check=True
            )
            == 0
        )
        output = capsys.readouterr().out
        assert f"BENCH {TINY_SERVING.name}:" in output
        record = json.loads(path.read_text())
        assert record["workloads"][TINY_SERVING.name]["baseline"] is not None


#: An HTTP workload small enough for unit tests to serve end-to-end.
TINY_HTTP = HttpWorkload(
    name="http_tiny_1x3",
    fleet=dict(
        num_sessions=1,
        num_workers=3,
        num_items=40,
        batches_per_worker=3,
        columns_per_batch=2,
        items_per_column=5,
        estimators=("voting", "chao92"),
        seed=7,
    ),
)


class TestRunHttpWorkload:
    def test_entry_shape_latency_tail_and_bit_identity(self):
        entry = run_workload(TINY_HTTP)
        assert set(entry) == ENTRY_KEYS
        assert entry["params"]["name"] == TINY_HTTP.name
        assert entry["params"]["fleet"] == TINY_HTTP.fleet
        assert entry["timings_s"]["fleet_wall"] > 0.0
        metrics = entry["metrics"]
        assert metrics["requests"] > metrics["applied_batches"]  # retries happened
        assert metrics["duplicate_acks"] > 0
        assert metrics["requests_per_s"] > 0.0
        # Under 200 requests no tail percentile has ten requests beyond it.
        assert metrics["requests"] < 200
        assert metrics["latency_p50_ms"] > 0.0
        assert "latency_p95_ms" not in metrics and "latency_p99_ms" not in metrics
        # The entry exists only because served == replay held.
        assert metrics["verified_sessions"] == 1
        assert "batch_vs_serial" not in metrics

    def test_http_entries_are_exempt_from_the_speedup_gate(self):
        entry = run_workload(TINY_HTTP)
        assert regression_failure(entry, entry) is None

    def test_http_summary_line_mentions_the_latency_tail(self):
        entry = run_workload(TINY_HTTP)
        summary = format_summary(entry)
        assert "requests_per_s=" in summary and "latency_p50_ms=" in summary
        assert "latency_p95_ms=" not in summary
        assert "verified_sessions=1" in summary

    def test_tail_percentiles_need_ten_requests_beyond(self):
        assert bench.recorded_percentiles(36) == (50,)
        assert bench.recorded_percentiles(199) == (50,)
        assert bench.recorded_percentiles(200) == (50, 95)
        assert bench.recorded_percentiles(999) == (50, 95)
        assert bench.recorded_percentiles(1000) == (50, 95, 99)
        fleet = HttpWorkload(
            name="http_tail_1x4",
            fleet=dict(
                num_sessions=1,
                num_workers=4,
                num_items=40,
                batches_per_worker=45,
                columns_per_batch=1,
                items_per_column=3,
                estimators=("voting",),
                seed=7,
            ),
        )
        metrics = run_workload(fleet)["metrics"]
        assert 200 <= metrics["requests"] < 1000
        assert 0.0 < metrics["latency_p50_ms"] <= metrics["latency_p95_ms"]
        assert "latency_p99_ms" not in metrics

    def test_run_and_record_http_workload(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(bench.WORKLOADS, "http-tiny", TINY_HTTP)
        path = tmp_path / "BENCH.json"
        assert (
            run_and_record(workload="http-tiny", output=str(path), check=True) == 0
        )
        output = capsys.readouterr().out
        assert f"BENCH {TINY_HTTP.name}:" in output
        record = json.loads(path.read_text())
        assert record["workloads"][TINY_HTTP.name]["baseline"] is not None


class TestRecordPersistence:
    def test_first_entry_becomes_baseline(self, tmp_path):
        record = load_record(tmp_path / "BENCH.json")
        first = _entry(2.0)
        assert update_record(record, first) is None
        assert record["workloads"][TINY.name]["baseline"] == first
        second = _entry(2.1)
        assert update_record(record, second) is first
        assert record["workloads"][TINY.name]["history"] == [first, second]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record = load_record(path)
        update_record(record, _entry(2.0))
        save_record(record, path)
        assert load_record(path) == record

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "BENCH.json"
        # 2 is the schema before the one entry schema, 3 the one with a
        # baseline per scan path.
        for version in (1, 2, 3, 999):
            path.write_text(json.dumps({"format_version": version}))
            with pytest.raises(ValueError, match="unsupported benchmark record version"):
                load_record(path)

    def test_committed_record_has_one_baseline_schema(self):
        for name, slot in load_record(COMMITTED_RECORD)["workloads"].items():
            assert set(slot) == {"baseline", "history"}, name
            assert slot["baseline"] in slot["history"], name

    def test_committed_entries_share_one_entry_schema(self):
        record = load_record(COMMITTED_RECORD)
        assert record["format_version"] == 4
        assert "reference" in record
        for name, slot in record["workloads"].items():
            for entry in [slot["baseline"], *slot["history"]]:
                assert set(entry) == ENTRY_KEYS, name
                assert {"name", "repeats", "n_jobs"} <= set(entry["params"]), name
        # Baselines never move, so the migrated values stay pinned.
        workloads = record["workloads"]
        runner = workloads["runner_5000x200"]["baseline"]
        assert runner["metrics"]["batch_vs_serial"] == 1.571
        wal = workloads["wal_100000x12"]["baseline"]
        assert wal["metrics"]["baseline_completed_sessions"] == 33618


class TestRegressionCheck:
    def test_no_baseline_is_not_a_regression(self):
        assert regression_failure(_entry(0.1), None) is None

    def test_within_factor_passes(self):
        # 3x factor: 2.0 baseline allows anything >= 0.667.
        assert regression_failure(_entry(0.7), _entry(2.0)) is None

    def test_beyond_factor_fails(self):
        message = regression_failure(_entry(0.5), _entry(2.0))
        assert message is not None and "regressed" in message

    def test_factor_is_configurable(self):
        assert regression_failure(_entry(1.1), _entry(2.0), factor=2.0) is None
        assert regression_failure(_entry(0.9), _entry(2.0), factor=2.0) is not None


class TestCliFlow:
    def test_run_and_record_writes_and_summarises(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(bench.WORKLOADS, "tiny", TINY)
        path = tmp_path / "BENCH.json"
        assert (
            run_and_record(workload="tiny", repeats=1, output=str(path), check=True)
            == 0
        )
        output = capsys.readouterr().out
        assert f"BENCH {TINY.name}: " in output
        assert "recorded ->" in output
        record = json.loads(path.read_text())
        assert record["format_version"] == bench.FORMAT_VERSION
        assert record["workloads"][TINY.name]["baseline"] is not None

    def test_dry_run_does_not_write(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(bench.WORKLOADS, "tiny", TINY)
        path = tmp_path / "BENCH.json"
        assert (
            run_and_record(workload="tiny", repeats=1, output=str(path), dry_run=True)
            == 0
        )
        assert not path.exists()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_and_record(workload="nope")

    def test_summary_line_mentions_speedup(self):
        assert "batch_vs_serial=1.8" in format_summary(_entry(1.8))

    def test_summary_line_names_the_workload(self):
        assert format_summary(_entry(1.8)).startswith(f"BENCH {TINY.name}: ")


class TestBenchCommandErrors:
    """Bad input to ``repro bench``: exit 2, one line, nothing timed or written."""

    @pytest.fixture
    def measured(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            bench.ServingWorkload, "measure", lambda *args: calls.append(args)
        )
        return calls

    @staticmethod
    def _one_error_line(capsys) -> str:
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err
        assert "BENCH" not in captured.out
        return lines[0]

    def test_bad_factor_is_rejected_before_timing(self, tmp_path, capsys, measured):
        path = tmp_path / "x.json"
        code = main(
            ["bench", "--workload", "serving-smoke", "--check", "--factor", "0",
             "--output", str(path)]
        )
        assert code == 2
        assert "factor" in self._one_error_line(capsys)
        assert not path.exists()
        assert measured == []

    @pytest.mark.parametrize(
        "content", ['{"format_version": 1}', "not json"], ids=["old-version", "not-json"]
    )
    def test_unreadable_record_is_one_error_line(
        self, tmp_path, capsys, measured, content
    ):
        path = tmp_path / "BENCH.json"
        path.write_text(content)
        code = main(["bench", "--workload", "serving-smoke", "--output", str(path)])
        assert code == 2
        assert str(path) in self._one_error_line(capsys)
        assert path.read_text() == content
        assert measured == []


class TestOraclesRefuseWrongAnswers:
    """A workload whose oracle fails raises, and nothing is recorded."""

    def test_runner_engine_disagreement(self, tmp_path, monkeypatch):
        counter = itertools.count()
        monkeypatch.setattr(
            bench, "_series_values", lambda result: {"voting": next(counter)}
        )
        monkeypatch.setitem(bench.WORKLOADS, "tiny", TINY)
        path = tmp_path / "BENCH.json"
        with pytest.raises(RuntimeError, match="refusing to record"):
            run_and_record(workload="tiny", repeats=1, output=str(path))
        assert not path.exists()

    def test_wal_recovery_that_loses_a_record(self, tmp_path, monkeypatch):
        from repro.streaming.store import DirectorySessionStore

        recovery = DirectorySessionStore.recovery

        def drop_last_record(self, name):
            snapshot, records = recovery(self, name)
            return snapshot, records[:-1]

        monkeypatch.setattr(DirectorySessionStore, "recovery", drop_last_record)
        monkeypatch.setitem(bench.WORKLOADS, "wal-tiny", TINY_WAL)
        path = tmp_path / "BENCH.json"
        with pytest.raises(RuntimeError, match="live and recovered sessions disagree"):
            run_and_record(workload="wal-tiny", output=str(path))
        assert not path.exists()


#: sha256 of every registered workload's generated inputs.  Recorded
#: entries are comparable only while a name keeps measuring the same work,
#: so a change to any of these inputs must be deliberate: a new digest
#: here and a new workload name in the record.
INPUT_DIGESTS = {
    "full": "535b7b4bc69db4e2ddf20b0b75201a4266abbe82389a4ff4d4527c8533fb1504",
    "http-load": "0cec42e19d97b7c73166d1afe741838559cb7a47eeeccdaef19c574264a521e5",
    "http-smoke": "3abd9ced8a5d40df903d0bcfe7cdb480f540abd404fca4f4f5e33b46fe77c7a4",
    "proc-shards": "dd03782f5163f357b11e83afcc0404b806faefc76cb121bb1412760da7b13aa3",
    "proc-shards-smoke": "ee526db99da5c52f1ac35fb442e6860f063ee91aa04c36cfd95c39322ec1a478",
    "serving": "d3b5a1bb6910bc0200befc15c18e1c66cb3d6693894169a4c0ae58e4f789493c",
    "serving-smoke": "a42eed2af0b8e1ea1c31081069db1a042a7483575991e278bb7d29af03c5514c",
    "smoke": "a54f2590932c428df06761028414d1baaf6e28d9ff3bb1b22b8a0bba249594c6",
    "wal-100k": "972bafd8b21bd63b223d9b51844b0301ba500b27ad71f431bfe7951a178c7c1e",
    "wal-smoke": "f63bcf35e33aa19b74296ee29745a0d755126049d83d7123ba051b4c31fd2f5d",
    "wide": "a50244b5e0897e1904df81d084e3e5989a1907fc2b6e53da066f54c143e677db",
    "wide-smoke": "6a0bb2cfbaecb8e8db9b0847d47231eb423a0f6ab1d8a42dc51dbe2cb5ae0e17",
}


def _inputs(workload):
    """What a workload feeds the code it times."""
    if isinstance(workload, BenchWorkload):
        return workload.build_matrix().values
    if isinstance(workload, ServingWorkload):
        return workload.build_columns()
    if isinstance(workload, HttpWorkload):
        from repro.serving import FleetConfig

        return asdict(FleetConfig(**workload.fleet))
    # WAL and proc-shards: arithmetic batches (the first 500 sessions).
    return [
        [
            workload.session_name(index),
            [workload.batch(index, batch) for batch in range(workload.num_batches)],
        ]
        for index in range(min(500, workload.num_sessions))
    ]


def _digest(inputs) -> str:
    if isinstance(inputs, np.ndarray):
        payload = f"{inputs.dtype}{inputs.shape}".encode()
        payload += np.ascontiguousarray(inputs).tobytes()
    else:
        payload = json.dumps(inputs).encode()
    return hashlib.sha256(payload).hexdigest()


class TestPinnedWorkloads:
    def test_every_registered_workload_is_pinned(self, capsys):
        assert set(bench.WORKLOADS) == set(INPUT_DIGESTS)
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        usage = capsys.readouterr().out
        assert all(name in usage for name in INPUT_DIGESTS)

    @pytest.mark.parametrize("name", sorted(INPUT_DIGESTS))
    def test_inputs_are_unchanged(self, name):
        assert _digest(_inputs(bench.WORKLOADS[name])) == INPUT_DIGESTS[name]
