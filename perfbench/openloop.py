"""Open-loop HTTP generator for the serve-ingest workload.

Reads (``POST /v1/recommend``) and uploads (``POST /v1/traces``) leave
on a fixed schedule, whether or not earlier ones have answered: the
users are independent, so a stalled server faces a growing queue
instead of a politely slowed client.  Every request is timed from when
it was due, so a stall also charges the requests queued behind it, and
the generator's own lateness (sent minus due) is reported.

An accepted upload is polled (``GET /v1/jobs/{id}``) every
:data:`POLL_INTERVAL` seconds until its job is done; the job's latency
runs from the upload's due time to the poll that sees it done.  Polls
of all jobs together stay under :data:`MAX_POLL_RATE`, so a backlog
stretches the interval instead of multiplying the generator's load.
"""

from __future__ import annotations

import heapq
import http.client
import json
import threading
import time
from dataclasses import dataclass, field

POLL_INTERVAL = 0.005
MAX_POLL_RATE = 100.0
REQUEST_TIMEOUT = 10.0
#: Uploads rotate over this many tenants (X-Client-Id), as independent users would.
TENANTS = 4
#: After the send window, accepted jobs get this long to finish.
DRAIN_SECONDS = 60.0

READ, UPLOAD, POLL = "read", "upload", "poll"


@dataclass
class Job:
    index: int
    due: float
    job_id: str = ""
    etag: str = ""
    done: float = 0.0
    state: str = ""


@dataclass
class LoadResult:
    """Everything one open-loop run observed.  Times are seconds."""

    reads: list = field(default_factory=list)    # (body index, latency or None, bytes)
    jobs: list = field(default_factory=list)     # Job per upload
    lateness: list = field(default_factory=list)  # sent - due, reads and uploads
    errors: list = field(default_factory=list)   # one line per failed request
    max_outstanding: int = 0                     # jobs accepted and not yet seen done

    def read_latencies(self) -> list:
        return [latency for _index, latency, _body in self.reads]

    def job_latencies(self) -> list:
        return [job.done - job.due if job.state == "done" else None for job in self.jobs]


class _Client:
    """One keep-alive connection, reopened after any failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = None

    def request(self, method: str, path: str, body=None, headers=None) -> tuple:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)
        try:
            self.conn.request(method, path, body=body, headers=headers or {})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def run_open_loop(
    host: str,
    port: int,
    read_bodies: list,
    read_choice: list,
    uploads: list,
    read_rate: float,
    upload_rate: float,
    seconds: float,
    threads: int,
) -> LoadResult:
    """Send ``read_choice`` reads (indices into ``read_bodies``) at
    ``read_rate``/s beside ``uploads`` at ``upload_rate``/s for
    ``seconds``, then keep polling until every accepted job is done or
    :data:`DRAIN_SECONDS` pass."""
    result = LoadResult()
    start = time.perf_counter() + 0.05
    schedule: list = []
    reads = int(seconds * read_rate)
    for i in range(reads):
        schedule.append((start + i / read_rate, len(schedule), READ, read_choice[i % len(read_choice)]))
    for j in range(min(len(uploads), int(seconds * upload_rate))):
        due = start + (j + 0.5) / upload_rate
        job = Job(index=j, due=due)
        result.jobs.append(job)
        schedule.append((due, len(schedule), UPLOAD, job))
    heapq.heapify(schedule)
    sequence = [len(schedule)]
    outstanding = [0]
    deadline = start + seconds + DRAIN_SECONDS
    cond = threading.Condition()

    def poll_later(job) -> None:
        interval = max(POLL_INTERVAL, outstanding[0] / MAX_POLL_RATE)
        push(time.perf_counter() + interval, POLL, job)

    def push(due, kind, payload) -> None:
        with cond:
            sequence[0] += 1
            heapq.heappush(schedule, (due, sequence[0], kind, payload))
            cond.notify()

    def take():
        with cond:
            while True:
                if not schedule:
                    if outstanding[0] == 0:
                        return None
                    cond.wait(0.05)
                    continue
                due = schedule[0][0]
                now = time.perf_counter()
                if now > deadline:
                    return None
                if due <= now:
                    return heapq.heappop(schedule)
                cond.wait(due - now)

    def fail(message: str) -> None:
        with cond:
            result.errors.append(message)

    def worker() -> None:
        client = _Client(host, port)
        try:
            while True:
                item = take()
                if item is None:
                    return
                due, _seq, kind, payload = item
                sent = time.perf_counter()
                if kind != POLL:
                    result.lateness.append(sent - due)
                try:
                    if kind == READ:
                        status, body = client.request(
                            "POST", "/v1/recommend", read_bodies[payload],
                            {"Content-Type": "application/json"})
                        ok = status == 200
                        result.reads.append(
                            (payload, time.perf_counter() - due if ok else None, body))
                        if not ok:
                            fail(f"read: HTTP {status}")
                    elif kind == UPLOAD:
                        job = payload
                        status, body = client.request(
                            "POST", "/v1/traces", uploads[job.index],
                            {"Content-Type": "application/octet-stream",
                             "X-Client-Id": f"tenant-{job.index % TENANTS}"})
                        if status != 202:
                            job.state = f"HTTP {status}"
                            fail(f"upload {job.index}: HTTP {status}")
                            continue
                        accepted = json.loads(body)
                        job.job_id, job.etag = accepted["job"], accepted["etag"]
                        with cond:
                            outstanding[0] += 1
                            result.max_outstanding = max(result.max_outstanding, outstanding[0])
                        poll_later(job)
                    else:
                        job = payload
                        status, body = client.request("GET", f"/v1/jobs/{job.job_id}")
                        state = json.loads(body)["state"] if status == 200 else f"HTTP {status}"
                        if state in ("queued", "running"):
                            poll_later(job)
                            continue
                        job.state, job.done = state, time.perf_counter()
                        with cond:
                            outstanding[0] -= 1
                            cond.notify_all()
                        if state != "done":
                            fail(f"job {job.job_id}: {state}")
                except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                    fail(f"{kind}: {type(exc).__name__}: {exc}")
                    if kind == READ:
                        result.reads.append((payload, None, b""))
                        continue
                    if kind == POLL:
                        with cond:
                            outstanding[0] -= 1
                            cond.notify_all()
                    payload.state = "error"
        finally:
            client.close()

    pool = [threading.Thread(target=worker, name=f"openloop-{i}") for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return result
