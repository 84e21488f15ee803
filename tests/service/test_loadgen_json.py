"""The ``loadgen --json`` stdout contract, end to end through the CLI.

Regression for the interleaving bug: progress lines used to share
stdout with the JSON report, so ``hottiles loadgen --json - | jq``
choked mid-document.  With JSON on stdout every human-readable line now
goes to stderr, and the whole captured stdout must parse with a single
``json.loads``.  Exercised through real subprocesses running the closed
loop against a live in-process server, to cover the actual fd plumbing.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service.httpd import make_server
from repro.service.planner import PlanService
from repro.service.store import PlanStore

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def base_url(tmp_path):
    service = PlanService(store=PlanStore(tmp_path / "plans"), workers=2, queue_depth=8)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.bound_port}"
    server.shutdown()
    server.server_close()
    service.close()


def run_loadgen_cli(base_url, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "loadgen", "--url", base_url,
            "--requests", "6", "--concurrency", "2", "--plans", "2", *argv,
        ],
        capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_json_stdout_parses_whole(base_url):
    proc = run_loadgen_cli(base_url, "--json", "-")
    payload = json.loads(proc.stdout)  # the whole stream, not a prefix
    assert [p["name"] for p in payload["passes"]] == ["cold", "warm"]
    assert all(p["completed"] == 6 for p in payload["passes"])
    assert payload["failed"] == 0
    assert payload["reconciles"] is True
    # Every progress line went to stderr, none leaked into the document.
    assert proc.stdout.lstrip().startswith("{")
    assert "cold:" in proc.stderr
    assert "counters reconcile" in proc.stderr


def test_json_to_file_keeps_progress_on_stdout(base_url, tmp_path):
    out = tmp_path / "report.json"
    proc = run_loadgen_cli(base_url, "--passes", "1", "--json", str(out))
    payload = json.loads(out.read_text())
    assert [p["completed"] for p in payload["passes"]] == [6]
    assert payload["reconciles"] is True
    # File mode: stdout is the human channel again.
    assert "cold:" in proc.stdout
    assert f"report written to {out}" in proc.stdout
    assert "cold:" not in proc.stderr
