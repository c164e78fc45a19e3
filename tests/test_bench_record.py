"""Tests of the benchmark recording tool (``repro bench``)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import state
from repro.experiments import bench
from repro.experiments.bench import (
    BenchWorkload,
    HttpWorkload,
    ServingWorkload,
    format_summary,
    load_record,
    regression_failure,
    run_and_record,
    run_http_workload,
    run_serving_workload,
    run_workload,
    save_record,
    update_record,
)

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


def _entry(speedup: float, backend: str = "numpy") -> dict:
    return {
        "recorded_at": "2026-07-30T00:00:00+00:00",
        "machine": {"usable_cpus": 1},
        "params": {"name": TINY.name},
        "backend": backend,
        "timings_s": {
            "serial_engine": speedup,
            "batch_engine": 1.0,
            "batch_engine_parallel": None,
            "n_jobs": 1,
            "repeats": 2,
        },
        "speedups": {
            "batch_vs_serial": speedup,
            "parallel_vs_serial": None,
        },
    }


class TestRunWorkload:
    def test_entry_shape_and_engine_agreement(self, monkeypatch):
        monkeypatch.setattr(state, "_FUSED_SCANS", False)
        entry = run_workload(TINY, repeats=1)
        assert entry["params"]["name"] == TINY.name
        assert entry["backend"] == "numpy"
        assert entry["timings_s"]["serial_engine"] > 0.0
        assert entry["timings_s"]["batch_engine"] > 0.0
        assert entry["timings_s"]["batch_engine_parallel"] is None
        assert entry["speedups"]["batch_vs_serial"] > 0.0
        assert entry["machine"]["usable_cpus"] >= 1

    def test_entry_names_the_fused_scan_path(self, monkeypatch):
        # The fused kernels run interpreted without numba; the recording
        # still verifies them against the serial engine's reference.
        monkeypatch.setattr(state, "_FUSED_SCANS", True)
        assert run_workload(TINY, repeats=1)["backend"] == "numba"

    def test_deterministic_matrix(self):
        assert (TINY.build_matrix().values == TINY.build_matrix().values).all()

    def test_wide_workloads_exercise_many_permutations(self):
        # The acceptance-criterion shape: R >= 32 for the compiled-kernel
        # payoff workloads (both the recorded one and the CI smoke).
        assert bench.WORKLOADS["wide"].num_permutations >= 32
        assert bench.WORKLOADS["wide-smoke"].num_permutations >= 32


class TestRunServingWorkload:
    def test_entry_shape_and_throughput(self):
        entry = run_serving_workload(TINY_SERVING, repeats=1)
        assert entry["params"]["name"] == TINY_SERVING.name
        assert entry["timings_s"]["ingest_and_estimate"] > 0.0
        assert entry["timings_s"]["snapshot_restore_cycle"] > 0.0
        assert entry["throughput"]["columns_per_s"] > 0.0
        assert entry["throughput"]["votes_per_s"] > 0.0
        # Every batch gets one computed read and one guaranteed cache hit.
        assert entry["throughput"]["estimate_cache_hit_rate"] == 0.5
        assert "speedups" not in entry

    def test_deterministic_columns(self):
        assert TINY_SERVING.build_columns() == TINY_SERVING.build_columns()

    def test_serving_entries_are_exempt_from_the_speedup_gate(self):
        entry = run_serving_workload(TINY_SERVING, repeats=1)
        assert regression_failure(entry, entry) is None

    def test_serving_summary_line_mentions_throughput(self):
        entry = run_serving_workload(TINY_SERVING, repeats=1)
        summary = format_summary(entry)
        assert "col/s" in summary and "snapshot/restore" in summary

    def test_run_and_record_serving_workload(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(bench.SERVING_WORKLOADS, "serving-tiny", TINY_SERVING)
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
        assert record["workloads"][TINY_SERVING.name]["baselines"]["numpy"] is not None


#: An HTTP workload small enough for unit tests to serve end-to-end.
TINY_HTTP = HttpWorkload(
    name="http_tiny_1x3",
    num_sessions=1,
    num_workers=3,
    num_items=40,
    batches_per_worker=3,
    columns_per_batch=2,
    items_per_column=5,
    estimators=("voting", "chao92"),
)


class TestRunHttpWorkload:
    def test_entry_shape_latency_tail_and_bit_identity(self):
        entry = run_http_workload(TINY_HTTP)
        assert entry["params"]["name"] == TINY_HTTP.name
        assert entry["timings_s"]["fleet_wall"] > 0.0
        http = entry["http"]
        assert http["requests"] > http["applied_batches"]  # retries happened
        assert http["duplicate_acks"] > 0
        assert http["requests_per_s"] > 0.0
        assert set(http["latency_ms"]) == {"p50", "p95", "p99"}
        assert http["latency_ms"]["p50"] <= http["latency_ms"]["p99"]
        assert http["bit_identical"] is True
        assert http["verified_sessions"] == TINY_HTTP.num_sessions
        assert "speedups" not in entry

    def test_http_entries_are_exempt_from_the_speedup_gate(self):
        entry = run_http_workload(TINY_HTTP)
        assert regression_failure(entry, entry) is None

    def test_http_summary_line_mentions_the_latency_tail(self):
        entry = run_http_workload(TINY_HTTP)
        summary = format_summary(entry)
        assert "req/s" in summary and "p50/p95/p99" in summary
        assert "bit-identical" in summary

    def test_run_and_record_http_workload(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(bench.HTTP_WORKLOADS, "http-tiny", TINY_HTTP)
        path = tmp_path / "BENCH.json"
        assert (
            run_and_record(workload="http-tiny", output=str(path), check=True) == 0
        )
        output = capsys.readouterr().out
        assert f"BENCH {TINY_HTTP.name}:" in output
        record = json.loads(path.read_text())
        assert record["workloads"][TINY_HTTP.name]["baselines"]["numpy"] is not None


class TestRecordPersistence:
    def test_first_entry_becomes_baseline(self, tmp_path):
        record = load_record(tmp_path / "BENCH.json")
        first = _entry(2.0)
        assert update_record(record, first) is None
        assert record["workloads"][TINY.name]["baselines"] == {"numpy": first}
        second = _entry(2.1)
        assert update_record(record, second) is first
        assert record["workloads"][TINY.name]["history"] == [first, second]

    def test_baselines_are_kept_per_backend(self, tmp_path):
        record = load_record(tmp_path / "BENCH.json")
        numpy_first = _entry(2.0)
        assert update_record(record, numpy_first) is None
        numba_first = _entry(5.0, backend="numba")
        # First numba entry: no numba baseline yet, even though a numpy
        # baseline exists — the gate must never compare across scan paths.
        assert update_record(record, numba_first) is None
        assert update_record(record, _entry(5.2, backend="numba")) is numba_first
        assert update_record(record, _entry(2.1)) is numpy_first
        slot = record["workloads"][TINY.name]
        assert slot["baselines"] == {"numpy": numpy_first, "numba": numba_first}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH.json"
        record = load_record(path)
        update_record(record, _entry(2.0))
        save_record(record, path)
        assert load_record(path) == record

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "BENCH.json"
        # 1 is the schema before the single ``baselines`` table.
        for version in (1, 999):
            path.write_text(json.dumps({"format_version": version}))
            with pytest.raises(ValueError, match="unsupported benchmark record version"):
                load_record(path)

    def test_committed_record_has_one_baseline_schema(self):
        path = Path(__file__).resolve().parents[1] / "BENCH_runner.json"
        for name, slot in load_record(path)["workloads"].items():
            assert set(slot) == {"baselines", "history"}, name
            assert "numpy" in slot["baselines"], name


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
        assert f"BENCH {TINY.name}:" in output
        assert "recorded ->" in output
        record = json.loads(path.read_text())
        assert record["workloads"][TINY.name]["baselines"]["numpy"] is not None

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
        assert "1.80x" in format_summary(_entry(1.8))

    def test_summary_line_tags_the_backend(self):
        assert "[numpy]" in format_summary(_entry(1.8))
        assert "[numba]" in format_summary(_entry(4.0, backend="numba"))
