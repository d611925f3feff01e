"""The pipeline stages as tasks, and the context they run on.

Every stage :mod:`repro.par` fans out is a pure function of one item
and a read-only :class:`Context` (service specs, trained ReCon, a batch
map's records, a campaign's bound sampler).  A :class:`Task` names that
function together with how its result crosses a process boundary:

- in-process (serial, threads, a degenerate pool) the executor builds
  its own :class:`Context`, passes it to ``task.run`` and uses the
  result as-is — no module state, so concurrent callers never share a
  context, and no codec or ``to_dict`` round trip;
- a process pool installs one :class:`Context` per worker through the
  pool initializer (:func:`init_worker`; under ``fork`` inherited from
  the parent without serialization), runs :func:`remote` there, and
  ships ``task.encode(result)`` back for ``task.decode`` in the parent.
  The wire forms are the JSON-safe dicts the streaming checkpoints pin
  round-trip-faithful, exact ``KIND_CAGG`` blobs for campaign partials,
  and pickled ``TrainingExample`` lists for the labeling stage.

A batch map's records ride the context, and its tasks name a record by
index (:data:`ANALYZE`, :data:`LABEL`, :data:`RESCAN`): forked workers
read the parent's records in place, spawned ones unpickle the list
once.  Ingest's persistent pool sees records that arrive after the
pool started, so it ships each as one codec blob (:data:`ANALYZE_BLOB`).
Worker-side caches (matcher, categorizer, decode memos) warm up
per-process and are reused across that worker's tasks.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional


class Task(NamedTuple):
    """``run(context, item)`` computes one result; a process pool ships
    ``encode(result)`` and rebuilds it with ``decode`` (``None``: the
    result pickles as-is).  With ``name``, a streamed or submitted item
    that fails raises ``ExecutorError`` naming it as ``name(item)``."""

    run: Callable
    encode: Optional[Callable] = None
    decode: Optional[Callable] = None
    name: Optional[Callable] = None


class Context:
    """What a task reads besides its item.  ``config`` is the JSON-safe
    :meth:`CampaignContext.config` dict, so fork and spawn workers build
    identical campaign contexts from it."""

    def __init__(self, specs=(), recon=None, records=None, config=None) -> None:
        self.specs_by_slug = {spec.slug: spec for spec in specs}
        self.recon = recon
        self.records = records
        self.campaign = None
        if config is not None:
            from ..campaign.engine import CampaignContext

            self.campaign = CampaignContext.from_config(list(specs), config)


#: The context of *this* pool worker process; ``None`` in any process
#: that is not one (in-process runs pass their context explicitly).
_WORKER_CONTEXT: Optional[Context] = None


def init_worker(fields: dict) -> None:
    """Pool initializer: build this worker's :class:`Context`."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = Context(**fields)


def remote(task: Task, item):
    """Run ``task`` in a pool worker; returns the result's wire form."""
    result = task.run(_WORKER_CONTEXT, item)
    return result if task.encode is None else task.encode(result)


def _analyze(context: Context, record):
    from ..core.pipeline import analyze_session

    spec = context.specs_by_slug[record.service]
    return analyze_session(record, spec, recon=context.recon)


def _analyze_index(context: Context, index: int):
    return _analyze(context, context.records[index])


def _analyze_blob(context: Context, blob: bytes):
    from ..net import codec

    return _analyze(context, codec.decode_record(blob))


def _to_dict(result) -> dict:
    return result.to_dict()


def _analysis_from_dict(payload: dict):
    from ..core.pipeline import SessionAnalysis

    return SessionAnalysis.from_dict(payload)


def _label_index(context: Context, index: int) -> list:
    from ..core.pipeline import label_record

    return label_record(context.records[index])


def _rescan_index(context: Context, index: int) -> tuple:
    from ..core.pipeline import rescan_session

    record = context.records[index]
    spec = context.specs_by_slug[record.service]
    return rescan_session(record, spec, recon=context.recon)


def _encode_rescan(result: tuple) -> tuple:
    leaks, false_positives = result
    return [leak.to_dict() for leak in leaks], false_positives


def _decode_rescan(payload: tuple) -> tuple:
    from ..core.leaks import LeakRecord

    leaks, false_positives = payload
    return [LeakRecord.from_dict(entry) for entry in leaks], false_positives


def _aggregate(context: Context, blob: bytes):
    from ..analysis.columnar import aggregate_blob

    return aggregate_blob(blob)


def _aggregate_from_dict(payload: dict):
    from ..analysis.columnar import StudyAggregate

    return StudyAggregate.from_dict(payload)


def _merge(context: Context, blobs: list) -> bytes:
    """Fold a window of KIND_CAGG blobs (in order) into one merged blob;
    exact, so a tree of these merges equals the serial left fold."""
    from ..campaign.engine import merge_campaigns
    from ..net import codec

    return codec.encode_campaign(
        merge_campaigns(codec.decode_campaign(blob) for blob in blobs)
    )


def _shard(context: Context, shard_range: tuple):
    """Simulate one ``[start, stop)`` user range."""
    return context.campaign.run_shard(*shard_range)


def _shard_name(shard_range: tuple) -> str:
    start, stop = shard_range
    return f"campaign shard [{start}, {stop})"


def _timed_shard(context: Context, shard_range: tuple) -> tuple:
    """``(elapsed_seconds, partial)``, timed where the shard runs, so the
    adaptive planner sees simulation cost, not queueing delay."""
    began = time.perf_counter()
    partial = _shard(context, shard_range)
    return time.perf_counter() - began, partial


def _encode_campaign(partial) -> bytes:
    from ..net import codec

    return codec.encode_campaign(partial)


def _decode_campaign(blob: bytes):
    from ..net import codec

    return codec.decode_campaign(blob)


def _encode_timed(result: tuple) -> tuple:
    elapsed, partial = result
    return elapsed, _encode_campaign(partial)


def _decode_timed(payload: tuple) -> tuple:
    elapsed, blob = payload
    return elapsed, _decode_campaign(blob)


ANALYZE = Task(_analyze_index, _to_dict, _analysis_from_dict)
ANALYZE_BLOB = Task(_analyze_blob, _to_dict, _analysis_from_dict)
LABEL = Task(_label_index)
RESCAN = Task(_rescan_index, _encode_rescan, _decode_rescan)
AGGREGATE = Task(_aggregate, _to_dict, _aggregate_from_dict)
MERGE = Task(_merge)
CAMPAIGN_SHARD = Task(_shard, _encode_campaign, _decode_campaign, _shard_name)
CAMPAIGN_CHUNK = Task(_timed_shard, _encode_timed, _decode_timed, _shard_name)
