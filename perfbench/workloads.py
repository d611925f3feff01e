"""The workloads: inputs from a seed, timed runs, references, verdicts.

Each workload returns an :class:`Outcome`.  Its verdict comes from the
program's output bytes compared with a reference for the same seed,
computed outside every timed region:

- studies: ``repro run`` stdout equals the serial-executor stdout, and
  the paper's shape holds (apps leak on more services than web, or on
  as many with more identifier types);
- campaign: stdout, digest line included, equals the serial
  master-reduce stdout;
- serve-ingest: each job result equals an offline ``analyze_dataset``
  of the same upload, and each read equals the recommendation built
  offline with ``repro.core.recommend`` over the same result store.

A traced run (:func:`trace_batch`, :func:`trace_serve`) pins the
serial executor so that every layer's work happens in the one process
the wrappers see.  It also runs the measured configuration and the
serial one untraced: their difference is ``par.overhead_s``, and the
traced minus the untraced serial time is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import programs
import spec
from openloop import run_open_loop

SETUP_REPEATS = 9
SERVE_SETUP_REPEATS = 3

#: Serve-ingest traffic.  The ingest worker sleeps twice each job's
#: time after it (``IngestService.pace``); with one 20 s session per
#: upload the 2-core host kept up with 12 uploads/s and fell behind at
#: 18/s during a slow spell, so 5/s keeps it under half busy.  A 20 s
#: run sends 1200 reads and 100 jobs, so read p99 and job p90 each have
#: at least ten samples beyond them.
READ_RATE = 60.0
UPLOAD_RATE = 5.0
READ_BODIES = 48
UPLOAD_DURATION = 20.0


def program_seed(workload: str, seed: int) -> int:
    """The program's ``--seed`` for a benchmark seed (str seeding is
    hash-seed independent)."""
    return random.Random(f"{workload}|{seed}").randrange(1, 1_000_000)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; ``None`` (a failed request) ranks above
    every latency, since it misses every limit."""
    ranked = sorted(math.inf if v is None else v for v in values)
    if not ranked:
        return math.inf
    return ranked[max(0, math.ceil(q / 100.0 * len(ranked)) - 1)]


@dataclass
class Outcome:
    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    trace_file: str = ""

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failures


# -- batch workloads -----------------------------------------------------------


#: Every campaign user runs four sessions of the base length, so a run's
#: amount of work does not depend on the seed; which services, OSes,
#: media and permissions each user draws still does.
CAMPAIGN_POPULATION = {"services_per_user": [4, 4], "sessions_per_service": [1, 1],
                       "intensity_range": [1.0, 1.0]}


def batch_commands(workload: str, seed: int, workdir: Path) -> tuple:
    """``(CLI-default args, serial reference args)``."""
    program = str(program_seed(workload, seed))
    if workload == "campaign":
        population = workdir / "population.json"
        population.write_text(json.dumps(CAMPAIGN_POPULATION))
        args = ["campaign", "--population", str(spec.CAMPAIGN_USERS), "--seed", program,
                "--population-spec", str(population)]
        return args, args + ["--executor", "serial", "--reduce", "master"]
    args = ["run", "--seed", program]
    if workload == "study-subset":
        args += ["--services", spec.SUBSET]
    return args, args + ["--executor", "serial"]


def _table1_all_rows(stdout: bytes) -> dict:
    """``{medium: (leak %, identifier codes)}`` from Table 1's "All" rows."""
    rows = {}
    for line in stdout.decode("utf-8", "replace").splitlines():
        tokens = line.split()
        if len(tokens) > 5 and tokens[0] == "All" and tokens[1] in ("app", "web") and "±" in tokens:
            rows[tokens[1]] = (float(tokens[4].rstrip("%")), tokens[tokens.index("±") + 2:])
    return rows


def study_shape_holds(stdout: bytes) -> bool:
    """Apps leak on more services than web, or on as many with more
    identifier types (a 3-service subset usually leaks 100% both ways)."""
    rows = _table1_all_rows(stdout)
    if set(rows) != {"app", "web"}:
        return False
    (app_rate, app_ids), (web_rate, web_ids) = rows["app"], rows["web"]
    return app_rate > web_rate or (app_rate == web_rate and len(app_ids) > len(web_ids))


def campaign_digest(stdout: bytes) -> str:
    first = stdout.split(b"\n", 1)[0].decode("utf-8", "replace")
    return first[len("campaign digest "):] if first.startswith("campaign digest ") else ""


def batch_failures(workload: str, outputs: list, reference) -> list:
    """One reason per output (a finished program run) that is wrong."""
    failures = []
    if reference.returncode != 0:
        return [f"reference exited {reference.returncode}"] * len(outputs)
    if workload == "campaign":
        if not campaign_digest(reference.stdout):
            return ["reference printed no campaign digest"] * len(outputs)
    elif not study_shape_holds(reference.stdout):
        return ["reference breaks the apps-leak-more shape"] * len(outputs)
    for number, output in enumerate(outputs):
        if output.returncode != 0:
            failures.append(f"run {number} exited {output.returncode}")
        elif workload == "campaign" and campaign_digest(output.stdout) != campaign_digest(reference.stdout):
            failures.append(f"run {number}: campaign digest differs from the serial master reduce")
        elif output.stdout != reference.stdout:
            failures.append(f"run {number}: stdout differs from the serial reference")
    return failures


def run_batch(workload: str, seed: int, seconds: float, workdir: Path) -> Outcome:
    args, reference_args = batch_commands(workload, seed, workdir)
    outcome = Outcome()
    # Set-up probes interleave with the samples, so both see the same
    # mix of the host's fast and slow spells.
    setups, samples = [], []
    began = time.perf_counter()
    while not samples or time.perf_counter() - began + samples[-1].wall_s <= seconds:
        setups.append(programs.setup_time(workdir))
        samples.append(programs.run(programs.repro_argv(args), workdir))
    while len(setups) < SETUP_REPEATS:
        setups.append(programs.setup_time(workdir))
    reference = programs.run(programs.repro_argv(reference_args), workdir)
    outcome.attempted = len(samples)
    outcome.failures = batch_failures(workload, samples, reference)
    outcome.metrics = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }
    outcome.notes = [
        f"command: repro {' '.join(args)}",
        f"samples: {len(samples)} ({', '.join(f'{s.wall_s:.3f}' for s in samples)} s); "
        f"serial reference {reference.wall_s:.3f} s",
    ]
    return outcome


def trace_batch(workload: str, seed: int, workdir: Path, trace_path: Path) -> Outcome:
    args, reference_args = batch_commands(workload, seed, workdir)
    default = programs.run(programs.repro_argv(args), workdir)
    serial = programs.run(programs.repro_argv(reference_args), workdir)
    traced = programs.run(programs.repro_argv(reference_args, trace_path), workdir)
    outcome = Outcome(attempted=2, trace_file=str(trace_path))
    outcome.failures = batch_failures(workload, [default, traced], serial)
    outcome.layers = json.loads(trace_path.read_text())
    outcome.metrics = layer_metrics(outcome.layers)
    outcome.metrics["par.overhead_s"] = default.wall_s - serial.wall_s
    outcome.metrics["trace.overhead_s"] = traced.wall_s - serial.wall_s
    outcome.notes = [
        f"traced: repro {' '.join(reference_args)} (serial executor pinned)",
        f"untraced CLI default {default.wall_s:.3f} s, untraced serial {serial.wall_s:.3f} s, "
        f"traced serial {traced.wall_s:.3f} s",
    ]
    return outcome


# -- per-layer metrics from a trace ------------------------------------------------

#: Per-layer time metric -> the span whose self time it sums.
_SELF_TIMES = {
    "pii.recon.fit_s": "pii.recon.fit",
    "pii.recon.predict_s": "pii.recon.predict",
    "pii.match_s": "pii.match",
    "trackerdb.categorize_s": "trackerdb.categorize",
    "experiment.simulate.self_s": "experiment.simulate",
    "http.transport_s": "http.transport",
    "proxy.s": "proxy",
    "analysis.aggregate_s": "analysis.aggregate",
    "analysis.render_s": "analysis.render",
    "campaign.merge_s": "campaign.merge",
    "net.codec_s": "net.codec",
    "par.map_s": "par.map",
}


def layer_metrics(trace: dict) -> dict:
    """Every per-layer metric; layers the workload never entered read 0."""
    layers, counts = trace["layers"], trace["counts"]
    metrics = {name: 0 for name, *_rest in spec.PER_LAYER}
    for metric, span in _SELF_TIMES.items():
        metrics[metric] = layers.get(span, {}).get("self_s", 0.0)
    for name in metrics:
        if name in counts:
            metrics[name] = counts[name]
    return metrics


# -- serve-ingest ----------------------------------------------------------------


@dataclass
class ServeInputs:
    result_dir: Path
    read_bodies: list
    read_choice: list
    uploads: list          # framed bundle bytes
    upload_records: list   # the records behind each upload
    expected_reads: list   # response bytes per read body


def serve_inputs(seed: int, seconds: float, workdir: Path) -> ServeInputs:
    """Generate the served result, the read bodies and the uploads,
    and build each read's expected response offline."""
    from repro.core.recommend import Recommender, preferences_from_dict
    from repro.experiment.runner import ExperimentRunner
    from repro.net import codec
    from repro.pii.types import PiiType
    from repro.serve import ResultStore
    from repro.services.catalog import build_catalog
    from repro.services.world import build_world

    rng = random.Random(f"serve-ingest|{seed}")
    result_dir = workdir / "result"
    collected = programs.run(programs.repro_argv(
        ["collect", "--out", str(result_dir), "--services", spec.SUBSET,
         "--seed", str(program_seed("serve-ingest", seed))]), workdir)
    if collected.returncode != 0:
        raise RuntimeError("repro collect failed; see stderr.log")

    bodies = []
    for _ in range(READ_BODIES):
        weights = {t.value: round(rng.random(), 2) for t in rng.sample(list(PiiType), 3)}
        body = {"os": rng.choice(["android", "ios"]),
                "preferences": {"weights": weights,
                                "tracker_aversion": round(rng.uniform(0.0, 2.0), 2)}}
        bodies.append(body)
    read_bodies = [json.dumps(body, sort_keys=True).encode() for body in bodies]
    read_choice = [rng.randrange(READ_BODIES) for _ in range(int(seconds * READ_RATE))]

    # The same evenly spaced cells of the catalog every run, so the mix
    # of upload sizes does not depend on the seed; their traffic does.
    catalog = build_catalog()
    world = build_world(catalog)
    cells = [(service, os_name, medium) for service in catalog
             for os_name in service.oses for medium in ("app", "web")]
    count = int(seconds * UPLOAD_RATE)
    uploads, upload_records = [], []
    for j in range(count):
        service, os_name, medium = cells[j * len(cells) // count]
        runner = ExperimentRunner(world, seed=rng.randrange(1, 1_000_000_000))
        records = [runner.run_session(service, os_name, medium, duration=UPLOAD_DURATION)]
        upload_records.append(records)
        uploads.append(codec.frame(codec.KIND_BUNDLE, codec.encode_bundle(records)))

    snapshot = ResultStore(result_dir, train_recon=True).snapshot
    expected = []
    for body in bodies:
        recommender = Recommender(snapshot.study, preferences_from_dict(body["preferences"]))
        recommendations, summary = [], {"app": 0, "web": 0, "either": 0}
        for result in snapshot.study.services:
            choice = recommender.recommend_service(result, body["os"])
            if choice is not None:
                recommendations.append(choice.to_dict())
                summary[choice.choice] += 1
        payload = {"etag": snapshot.etag, "os": body["os"],
                   "recommendations": recommendations, "summary": summary}
        expected.append(_canonical(payload))
    return ServeInputs(result_dir, read_bodies, read_choice, uploads, upload_records, expected)


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def expected_job_result(job, records: list) -> bytes:
    """Offline analysis of one upload, through the completed-job payload."""
    from repro.core.pipeline import analyze_dataset
    from repro.experiment.dataset import Dataset
    from repro.ingest import job_result_payload
    from repro.services.catalog import build_catalog

    dataset = Dataset()
    for record in records:
        dataset.add(record)
    slugs = {record.service for record in records}
    specs = [service for service in build_catalog() if service.slug in slugs]
    study = analyze_dataset(dataset, specs, train_recon=False, workers=1)
    return _canonical(job_result_payload(job.job_id, job.etag, len(records), study))


@dataclass
class ServeSession:
    setups: list
    load: object
    results: dict     # job id -> (status, body)
    scrape: str
    rss_mb: float
    exit_code: int


def serve_session(inputs: ServeInputs, seconds: float, workdir: Path, executor: str,
                  setups: int = 1, trace_path=None) -> ServeSession:
    times = []
    for attempt in range(setups):
        ingest_dir = workdir / f"ingest-{time.monotonic_ns()}"
        args = ["serve", "--result", str(inputs.result_dir), "--ingest-dir", str(ingest_dir),
                "--ingest-executor", executor]
        server = programs.Server(args, workdir, trace_path if attempt == setups - 1 else None)
        times.append(server.setup_s)
        if attempt < setups - 1:
            server.stop()
    try:
        load = run_open_loop(
            "127.0.0.1", server.port, inputs.read_bodies, inputs.read_choice, inputs.uploads,
            READ_RATE, UPLOAD_RATE, seconds, threads=len(os.sched_getaffinity(0)))
        results = {job.job_id: server.get(f"/v1/jobs/{job.job_id}/result")
                   for job in load.jobs if job.state == "done"}
        scrape = server.get("/metrics")[1].decode("utf-8", "replace")
    finally:
        exit_code = server.stop()
    return ServeSession(times, load, results, scrape, server.rss_mb, exit_code)


def serve_failures(inputs: ServeInputs, session: ServeSession) -> tuple:
    """``(attempted, failure reasons)`` for one session.  Job references
    are computed here, after the load, outside the timed region."""
    load = session.load
    failures = list(load.errors)
    attempted = len(inputs.read_choice) + len(load.jobs)
    failures += ["read never sent"] * (len(inputs.read_choice) - len(load.reads))
    for index, latency, body in load.reads:
        if latency is not None and body != inputs.expected_reads[index]:
            failures.append(f"read of body {index}: response differs from core.recommend")
    for job in load.jobs:
        if job.state != "done":
            if not job.state:
                failures.append(f"upload {job.index}: no result before the drain deadline")
            continue
        status, body = session.results.get(job.job_id, (0, b""))
        upload_hash = hashlib.sha256(inputs.uploads[job.index]).hexdigest()
        if status != 200:
            failures.append(f"job {job.job_id}: result fetch HTTP {status}")
        elif not job.etag or not upload_hash.startswith(job.etag):
            failures.append(f"job {job.job_id}: etag is not the upload's hash")
        elif body != expected_job_result(job, inputs.upload_records[job.index]):
            failures.append(f"job {job.job_id}: result differs from offline analyze")
    if session.exit_code != 0:
        failures.append(f"repro serve exited {session.exit_code}")
    return attempted, failures


def scraped(text: str, name: str) -> float:
    """Sum of every sample of one metric in a Prometheus exposition."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in (" ", "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def _capped(value: float, cap: float) -> float:
    return cap if math.isinf(value) else value


def serve_numbers(session: ServeSession, seconds: float) -> dict:
    load = session.load
    cap = seconds + 60.0
    hits = scraped(session.scrape, "repro_serve_cache_hits_total")
    misses = scraped(session.scrape, "repro_serve_cache_misses_total")
    return {
        "job_p50_s": _capped(percentile(load.job_latencies(), 50), cap),
        "job_p90_s": _capped(percentile(load.job_latencies(), 90), cap),
        "read_p50_ms": _capped(percentile(load.read_latencies(), 50), cap) * 1e3,
        "read_p99_ms": _capped(percentile(load.read_latencies(), 99), cap) * 1e3,
        "lag_p99_ms": percentile(load.lateness, 99) * 1e3,
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "rejected": int(scraped(session.scrape, "repro_serve_ingest_rejected_total")),
        "jobs_done": sum(1 for job in load.jobs if job.state == "done"),
        "max_outstanding": load.max_outstanding,
    }


def _serve_note(numbers: dict, session: ServeSession) -> str:
    return (
        f"reads {len(session.load.reads)} at {READ_RATE:g}/s: p50 {numbers['read_p50_ms']:.2f} ms, "
        f"p99 {numbers['read_p99_ms']:.2f} ms; jobs {len(session.load.jobs)} at {UPLOAD_RATE:g}/s: "
        f"p50 {numbers['job_p50_s']:.3f} s, p90 {numbers['job_p90_s']:.3f} s; "
        f"generator lag p99 {numbers['lag_p99_ms']:.2f} ms; "
        f"max {numbers['max_outstanding']} jobs outstanding; cache hit ratio {numbers['hit_ratio']:.3f}"
    )


def run_serve(seed: int, seconds: float, workdir: Path) -> Outcome:
    inputs = serve_inputs(seed, seconds, workdir)
    session = serve_session(inputs, seconds, workdir, "process", setups=SERVE_SETUP_REPEATS)
    outcome = Outcome()
    outcome.attempted, outcome.failures = serve_failures(inputs, session)
    numbers = serve_numbers(session, seconds)
    outcome.metrics = {
        "wall_s": numbers["job_p50_s"],
        "setup_s": statistics.median(session.setups),
        "peak_rss_mb": session.rss_mb,
    }
    outcome.notes = [
        "command: repro serve --result DIR --ingest-dir DIR --ingest-executor process",
        _serve_note(numbers, session),
        f"read_p50_ms {numbers['read_p50_ms']:.3f} ms, read_p99_ms {numbers['read_p99_ms']:.3f} ms, "
        f"job_p50_s {numbers['job_p50_s']:.4f} s, job_p90_s {numbers['job_p90_s']:.4f} s",
    ]
    return outcome


def trace_serve(seed: int, seconds: float, workdir: Path, trace_path: Path) -> Outcome:
    inputs = serve_inputs(seed, seconds, workdir)
    default = serve_session(inputs, seconds, workdir, "process")
    serial = serve_session(inputs, seconds, workdir, "serial")
    traced = serve_session(inputs, seconds, workdir, "serial", trace_path=trace_path)
    outcome = Outcome(trace_file=str(trace_path))
    for session in (default, serial, traced):
        attempted, failures = serve_failures(inputs, session)
        outcome.attempted += attempted
        outcome.failures += failures
    numbers = serve_numbers(default, seconds)
    serial_p50 = serve_numbers(serial, seconds)["job_p50_s"]
    traced_numbers = serve_numbers(traced, seconds)
    outcome.layers = json.loads(trace_path.read_text())
    outcome.metrics = layer_metrics(outcome.layers)
    outcome.metrics.update({
        "par.overhead_s": numbers["job_p50_s"] - serial_p50,
        "trace.overhead_s": traced_numbers["job_p50_s"] - serial_p50,
        "serve.cache.hit_ratio": numbers["hit_ratio"],
        "serve.read_p50_ms": numbers["read_p50_ms"],
        "serve.read_p99_ms": numbers["read_p99_ms"],
        "ingest.job_p90_s": numbers["job_p90_s"],
        "ingest.jobs_done": numbers["jobs_done"],
        "ingest.rejected": numbers["rejected"],
        "loadgen.lag_p99_ms": numbers["lag_p99_ms"],
    })
    outcome.notes = [
        "latencies from the untraced process-ingest session; layer times and counts from "
        "the traced session (serial ingest pinned)",
        "default: " + _serve_note(numbers, default),
        "traced:  " + _serve_note(traced_numbers, traced),
    ]
    return outcome
