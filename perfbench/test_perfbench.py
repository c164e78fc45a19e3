"""Tests of the benchmark itself: tiny runs of every workload, the oracles
and the tracer's self-time arithmetic."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import inputs, run
from perfbench.tracer import LAYER_UNITS, Tracer, install

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int, seconds: float = 0.05):
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_printed_metrics():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(LAYER_UNITS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_oracle_and_prints_every_metric(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0, lines
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = run.END_TO_END if not trace else LAYER_UNITS
    assert [(name, metric["unit"]) for name, metric in result["metrics"].items()] == list(
        expected
    )
    for name, unit in expected:
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines)
    if trace:
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert metrics["trace.primary_ops"] > 0
        if workload == "http":
            assert metrics["http.connections_per_request"] == 1.0
        if workload == "workers":
            assert metrics["workers.restarts"] == 0 and metrics["workers.sends"] > 0


def test_corrupted_sweep_fails_the_run(capsys, monkeypatch):
    import repro.experiments.runner as runner

    original = runner._evaluate_permutation_batch

    def corrupted(*args, **kwargs):
        trials = original(*args, **kwargs)
        trials[0]["chao92"][-1] += 1e-9
        return trials

    monkeypatch.setattr(runner, "_evaluate_permutation_batch", corrupted)
    code, lines, result = _run(capsys, "sweep", 0)
    assert code == 1 and result["correct"] is False
    assert any("differs from the serial engine" in line for line in lines)


def test_dropped_column_fails_the_ingest_run(capsys, monkeypatch):
    from repro.streaming import EstimationService

    original = EstimationService.ingest

    def lossy(self, name, columns, *, worker_ids=None, **kwargs):
        return original(self, name, columns[:-1], worker_ids=worker_ids[:-1], **kwargs)

    monkeypatch.setattr(EstimationService, "ingest", lossy)
    code, lines, result = _run(capsys, "ingest", 0)
    assert code == 1 and result["correct"] is False


def test_plan_restates_the_fleet_traffic_model():
    """Per source: every 4th batch arrives after the 5th and is dropped,
    and every 3rd delivery is followed by its retry twin."""
    deliveries = {}
    for op in inputs.ingest_input(seed=3, writes=3000).ops:
        if op.kind == inputs.WRITE:
            deliveries.setdefault(op.source, []).append(op)
    for ops in deliveries.values():
        firsts = [op for index, op in enumerate(ops) if index == 0 or op.sequence != ops[index - 1].sequence]
        for position, op in enumerate(firsts, start=1):
            twins = [other for other in ops if other.sequence == op.sequence]
            assert len(twins) == (2 if position % inputs.DUPLICATE_EVERY == 0 else 1)
            assert not any(twin.applies for twin in twins[1:])
        sequences = [op.sequence for op in firsts]
        late = {op.sequence for op in firsts if not op.applies}
        assert late == {
            sequence
            for sequence in sequences
            if sequence % inputs.REORDER_EVERY == 0 and sequence + 1 in sequences
        }
        for sequence in late:
            assert sequences.index(sequence) == sequences.index(sequence + 1) + 1


def test_chunks_cover_every_item_once():
    from perfbench.workloads import chunks

    for count in (1, 7, 10, 23):
        parts = chunks(range(count))
        assert len(parts) == min(count, 10) and all(parts)
        assert [item for part in parts for item in part] == list(range(count))


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 11.0, 12.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")  # 0
    middle = tracer.begin("middle")  # 1
    inner = tracer.begin("inner")  # 2
    tracer.end(inner)  # 3
    tracer.end(middle)  # 4
    second = tracer.begin("middle")  # 5
    tracer.end(second)  # 7
    tracer.end(outer)  # 10
    root = tracer.begin("outer")  # 11
    tracer.end(root)  # 12
    totals = tracer.totals()
    assert (totals["outer"].calls, totals["outer"].duration, totals["outer"].self_time) == (
        2,
        11.0,
        6.0,
    )
    assert (totals["middle"].calls, totals["middle"].duration, totals["middle"].self_time) == (
        2,
        5.0,
        4.0,
    )
    assert (totals["inner"].duration, totals["inner"].self_time) == (1.0, 1.0)


def test_uninstall_restores_the_unwrapped_code():
    import http.client

    import repro.serving.workers as workers
    from repro.core.state import PermutationBatch
    from repro.experiments.runner import EstimationRunner

    before = (
        EstimationRunner.__dict__["run"],
        PermutationBatch.__dict__["positive_table"],
        workers.write_frame,
        http.client.HTTPConnection.connect,
    )
    uninstall = install(Tracer())
    assert EstimationRunner.__dict__["run"] is not before[0]
    uninstall()
    after = (
        EstimationRunner.__dict__["run"],
        PermutationBatch.__dict__["positive_table"],
        workers.write_frame,
        http.client.HTTPConnection.connect,
    )
    assert all(old is new for old, new in zip(before, after))
