"""Launching the program under test and reading what it did.

Every command runs as its own process from the checkout's ``src/``
tree, the way a user runs ``python3 -m repro.cli``.  Wall time is taken
around the process and peak memory from ``wait4``, whose ``ru_maxrss``
covers the process and every child it reaped (its pool workers).
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HARNESS = Path(__file__).resolve().parent / "harness.py"
#: Any one program run is killed after this long; a run must end in 180 s.
KILL_AFTER = 150.0

SETUP_PROBE = (
    "import repro.cli\n"
    "from repro.services.catalog import build_catalog\n"
    "from repro.services.world import build_world\n"
    "build_world(build_catalog())\n"
)


def env() -> dict:
    values = dict(os.environ)
    values["PYTHONPATH"] = str(SRC)
    return values


def repro_argv(args: list, trace_path=None) -> list:
    if trace_path is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(HARNESS), str(trace_path), "--", *args]


@dataclass
class Finished:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes


def reap(proc: subprocess.Popen) -> tuple:
    """Wait for ``proc``; ``(exit code, peak RSS in MB of it and its reaped children)``."""
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run(argv: list, workdir: Path) -> Finished:
    """Run one command to completion, stdout captured to a file."""
    out_path = workdir / f"stdout-{time.monotonic_ns()}"
    with open(out_path, "wb") as out, open(workdir / "stderr.log", "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env(), cwd=ROOT)
        timer = threading.Timer(KILL_AFTER, proc.kill)
        timer.start()
        try:
            code, rss = reap(proc)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    stdout = out_path.read_bytes()
    out_path.unlink()
    return Finished(wall, rss, code, stdout)


def setup_time(workdir: Path) -> float:
    """Time for a fresh interpreter to import the CLI and build the
    catalog and world: the set-up every batch command pays."""
    finished = run([sys.executable, "-c", SETUP_PROBE], workdir)
    if finished.returncode != 0:
        raise RuntimeError("set-up probe failed; see stderr.log")
    return finished.wall_s


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` process, started and stopped by the benchmark."""

    def __init__(self, args: list, workdir: Path, trace_path=None) -> None:
        self.port = free_port()
        argv = repro_argv([*args, "--port", str(self.port)], trace_path)
        self._log = open(workdir / "serve.log", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self._log, stderr=self._log, env=env(), cwd=ROOT)
        self.rss_mb = 0.0
        self.setup_s = self._wait_ready(started)

    def _wait_ready(self, started: float) -> float:
        deadline = started + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up; see serve.log")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=1.0)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("repro serve did not answer /healthz within 60 s")

    def get(self, path: str) -> tuple:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM (the server drains), then reap; the exit code."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            timer = threading.Timer(30.0, self.proc.kill)
            timer.start()
            try:
                _code, self.rss_mb = reap(self.proc)
            finally:
                timer.cancel()
        self._log.close()
        return self.proc.returncode
