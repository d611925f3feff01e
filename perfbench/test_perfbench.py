"""Canaries for the benchmark's own verdicts and span arithmetic.

    PYTHONPATH=src python3 -m pytest perfbench -q

A verdict that cannot fail is no verdict: each test feeds the checks
real program output with one byte flipped, or one job result missing,
and requires a failing verdict that counts in ``failed_frac``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import programs  # noqa: E402
import workloads  # noqa: E402
from openloop import Job, LoadResult  # noqa: E402
from tracer import Tracer  # noqa: E402


def flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


@pytest.fixture(scope="module")
def study_output(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("study")
    args = ["run", "--services", "weather,grubhub,cnn", "--duration", "60", "--no-recon",
            "--executor", "serial"]
    finished = programs.run(programs.repro_argv(args), workdir)
    assert finished.returncode == 0
    return finished


def test_study_verdict_passes_on_identical_output(study_output):
    assert workloads.study_shape_holds(study_output.stdout)
    assert workloads.batch_failures("study-subset", [study_output], study_output) == []


@pytest.mark.parametrize("where", [0, 0.5, -2])
def test_one_flipped_byte_fails_the_study_verdict(study_output, where):
    stdout = study_output.stdout
    at = int(len(stdout) * where) if isinstance(where, float) else where % len(stdout)
    sample = programs.Finished(1.0, 1.0, 0, flip(stdout, at))
    outcome = workloads.Outcome(attempted=2)
    outcome.failures = workloads.batch_failures("study-subset", [study_output, sample], study_output)
    assert not outcome.correct
    assert outcome.failed == 1


def test_flipped_campaign_digest_fails():
    reference = programs.Finished(1.0, 1.0, 0, b"campaign digest 00ab\npopulation: 4 users\n")
    sample = programs.Finished(1.0, 1.0, 0, flip(reference.stdout, len("campaign digest 00a")))
    failures = workloads.batch_failures("campaign", [reference, sample], reference)
    assert failures == ["run 1: campaign digest differs from the serial master reduce"]


def test_shape_check_rejects_web_leaking_more():
    table = (b"All             app    3   12.3   66.7%    7.0 \xc2\xb1 2.2  D E L\n"
             b"All             web    3   12.3  100.0%    2.0 \xc2\xb1 0.8  E G\n")
    assert not workloads.study_shape_holds(table)


@pytest.fixture(scope="module")
def served_upload(tmp_path_factory):
    """One real upload, its server-side result stand-in, and a read."""
    from repro.experiment.runner import ExperimentRunner
    from repro.net import codec
    from repro.services.catalog import build_catalog
    from repro.services.world import build_world
    import hashlib

    catalog = build_catalog()
    service = next(s for s in catalog if s.slug == "cnn")
    record = ExperimentRunner(build_world([service]), seed=5).run_session(
        service, "android", "app", duration=30.0)
    upload = codec.frame(codec.KIND_BUNDLE, codec.encode_bundle([record]))
    job = Job(index=0, due=0.0, job_id="00000001-abc", etag=hashlib.sha256(upload).hexdigest()[:16],
              done=0.05, state="done")
    result = workloads.expected_job_result(job, [record])
    read = b'{"etag":"x","os":"android"}\n'
    inputs = workloads.ServeInputs(Path("."), [b"{}"], [0], [upload], [[record]], [read])
    load = LoadResult(reads=[(0, 0.001, read)], jobs=[job])
    return inputs, load, {job.job_id: (200, result)}


def _session(load, results):
    return workloads.ServeSession([1.0], load, results, "", 1.0, 0)


def test_serve_verdict_passes_on_matching_bytes(served_upload):
    inputs, load, results = served_upload
    assert workloads.serve_failures(inputs, _session(load, results)) == (2, [])


def test_missing_job_result_fails(served_upload):
    inputs, load, _results = served_upload
    attempted, failures = workloads.serve_failures(inputs, _session(load, {}))
    assert (attempted, len(failures)) == (2, 1)


def test_flipped_job_result_byte_fails(served_upload):
    inputs, load, results = served_upload
    (job_id, (status, body)), = results.items()
    _attempted, failures = workloads.serve_failures(
        inputs, _session(load, {job_id: (status, flip(body, len(body) // 2))}))
    assert failures == [f"job {job_id}: result differs from offline analyze"]


def test_flipped_read_byte_fails(served_upload):
    inputs, load, results = served_upload
    index, latency, body = load.reads[0]
    flipped = LoadResult(reads=[(index, latency, flip(body, 3))], jobs=load.jobs)
    _attempted, failures = workloads.serve_failures(inputs, _session(flipped, results))
    assert len(failures) == 1


def test_refused_requests_rank_above_every_latency():
    assert workloads.percentile([0.1, None, 0.2], 50) == 0.2
    assert workloads.percentile([0.1, None], 99) == float("inf")


def test_self_time_subtracts_children_and_generator_steps():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        leaf_span()

    def produce():
        for _ in range(2):
            time.sleep(0.01)
            yield 1

    leaf_span = tracer.wrap(leaf, "leaf", {"calls": "leaf.calls"})
    outer_span = tracer.wrap(outer, "outer", {})
    gen_span = tracer.wrap(produce, "gen", {})
    outer_span()
    for _ in gen_span():
        time.sleep(0.03)  # consumer work between steps is not the producer's
    table = tracer.layer_table()
    assert table["leaf"]["calls"] == 1 and tracer.count("leaf.calls") == 1
    assert 0.009 < table["outer"]["self_s"] < 0.019
    assert table["outer"]["total_s"] >= 0.029
    assert 0.019 < table["gen"]["self_s"] < 0.05
