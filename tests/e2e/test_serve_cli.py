"""``repro serve`` as a real subprocess: bind, serve, shut down cleanly.

These are the slowest tests in the suite (each boots a Python
interpreter), so they cover exactly what in-process tests cannot: the
printed banner contract, signal-driven shutdown and process exit codes.
"""

from __future__ import annotations

import json
import re
import signal
import socket
import subprocess
import sys
import urllib.request

from .conftest import repro_env

BANNER = re.compile(r"^serving on (http://[^ ]+)")


def _spawn(*extra, store):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(store), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=repro_env(),
    )


def _url(process) -> str:
    line = process.stdout.readline()
    match = BANNER.match(line)
    assert match, f"expected the serving banner, got {line!r}"
    return match.group(1)


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.load(response)


class TestServeSubprocess:
    def test_serves_a_durable_store_and_shuts_down_on_sigterm(self, tmp_path):
        store = tmp_path / "store"
        process = _spawn(store=store)
        try:
            url = _url(process)
            created = _post(
                url + "/sessions",
                {"name": "s", "items": 30, "estimators": ["voting", "chao92"]},
            )
            assert created == {"session": "s", "num_items": 30, "keep_votes": True}
            ack = _post(
                url + "/sessions/s/batches",
                {"columns": [{"0": 1, "3": 0}], "source": "w", "sequence": 1},
            )
            assert (ack["applied"], ack["duplicate"]) == (1, False)
            # The wire retry contract holds across a real socket too.
            retry = _post(
                url + "/sessions/s/batches",
                {"columns": [{"0": 1, "3": 0}], "source": "w", "sequence": 1},
            )
            assert (retry["applied"], retry["duplicate"]) == (0, True)
        finally:
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=20)
        assert process.returncode == 0, err
        assert "shutdown complete" in out

        # The WAL-backed store survives the process: a second server over
        # the same directory serves the same session.
        process = _spawn(store=store)
        try:
            url = _url(process)
            progress = _get(url + "/sessions/s")["progress"]
            assert progress["num_columns"] == 1
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=20)
        assert process.returncode == 0

    def test_shards_flag_builds_a_sharded_store(self, tmp_path):
        store = tmp_path / "sharded"
        process = _spawn("--shards", "2", store=store)
        try:
            url = _url(process)
            assert _get(url + "/health")["shards"] == 2
            _post(url + "/sessions", {"name": "a", "items": 5})
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=20)
        assert process.returncode == 0
        manifest = json.loads((store / "shards.json").read_text(encoding="utf-8"))
        assert manifest["num_shards"] == 2

    def test_store_errors_exit_2_with_one_line_diagnosis(self, tmp_path):
        store = tmp_path / "broken"
        store.mkdir()
        (store / "shards.json").write_text("{not json", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(store)],
            capture_output=True,
            text=True,
            timeout=30,
            env=repro_env(),
        )
        assert result.returncode == 2
        lines = [line for line in result.stderr.splitlines() if line]
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_occupied_port_exits_2_with_one_line_diagnosis(self, tmp_path):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", str(port), "--store", str(tmp_path / "store"),
                ],
                capture_output=True,
                text=True,
                timeout=30,
                env=repro_env(),
            )
        finally:
            blocker.close()
        assert result.returncode == 2
        lines = [line for line in result.stderr.splitlines() if line]
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_sigint_is_a_clean_shutdown_too(self, tmp_path):
        process = _spawn(store=tmp_path / "store")
        try:
            _url(process)
        finally:
            process.send_signal(signal.SIGINT)
            out, err = process.communicate(timeout=20)
        assert process.returncode == 0, err
        assert "shutdown complete" in out
