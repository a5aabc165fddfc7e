"""``repro serve`` / ``repro work`` CLI surface, plus one real two-process run."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser


def test_serve_parser_flags():
    args = build_parser().parse_args(
        ["serve", "EP", "--socket", "s.sock", "--journal", "j.jsonl",
         "--chunk-size", "4", "--heartbeat-deadline", "5", "--resume",
         "--tests", "12", "--nodes", "3", "--correlation", "0.4"]
    )
    assert args.command == "serve" and args.app == "EP"
    assert args.chunk_size == 4 and args.heartbeat_deadline == 5.0
    assert args.resume and args.nodes == 3


def test_work_parser_flags():
    args = build_parser().parse_args(
        ["work", "--socket", "s.sock", "--name", "w1", "--idle-timeout", "5"]
    )
    assert args.command == "work" and args.name == "w1"
    assert args.idle_timeout == 5.0
    # Retry policy is set only by the presets in repro.service.worker.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["work", "--socket", "s.sock", "--max-retries", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "EP", "--journal", "j.jsonl"],  # --socket is required
        ["serve", "EP", "--socket", "s.sock"],  # --journal is required
        ["work"],  # --socket is required
    ],
)
def test_missing_required_flags_rejected(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def _spawn(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )


@pytest.mark.skipif(os.name == "nt", reason="needs Unix sockets")
def test_serve_and_work_processes_save_the_serial_result(tmp_path):
    """Two real processes; the saved campaign is byte-identical to a
    serial ``--save`` of the same campaign."""
    from repro.apps.registry import get_factory
    from repro.nvct.campaign import CampaignConfig, run_campaign
    from repro.nvct.serialize import save_campaign

    sock = tmp_path / "s.sock"
    saved = tmp_path / "svc.json"
    serve = _spawn(
        ["serve", "EP", "--socket", str(sock), "--journal", str(tmp_path / "j.jsonl"),
         "--tests", "10", "--seed", "3", "--chunk-size", "4", "--save", str(saved)]
    )
    worker = None
    try:
        deadline = time.monotonic() + 60
        while not sock.exists():
            assert proc_alive(serve), serve.communicate()[0].decode()
            assert time.monotonic() < deadline, "scheduler never bound its socket"
            time.sleep(0.05)
        worker = _spawn(["work", "--socket", str(sock), "--name", "w1"])
        out_w, _ = worker.communicate(timeout=240)
        out_s, _ = serve.communicate(timeout=120)
    finally:
        for proc in (serve, worker):
            if proc is not None and proc.poll() is None:
                proc.kill()
    assert worker.returncode == 0, out_w.decode()
    assert serve.returncode == 0, out_s.decode()
    assert b"campaign complete" in out_s
    assert b"committed" in out_w
    assert not list(tmp_path.glob("*.store"))  # the published store went with the campaign

    cfg = CampaignConfig(n_tests=10, seed=3)
    serial = tmp_path / "serial.json"
    save_campaign(run_campaign(get_factory("EP"), cfg), serial)
    assert saved.read_bytes() == serial.read_bytes()


def proc_alive(proc):
    return proc.poll() is None
