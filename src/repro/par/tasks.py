"""Module-level task functions for the process-pool backend.

A :class:`~concurrent.futures.ProcessPoolExecutor` can only ship
module-level callables, so the per-session pipeline stages live here as
plain functions:

- the *context* every task needs (service specs, trained ReCon
  classifier) is installed once per worker by :func:`init_worker` via
  the pool's initializer — under the ``fork`` start method it is
  inherited from the parent without any serialization at all;
- a batch map hands :func:`init_worker` its whole record list too, and
  each task names its record by index (:func:`analyze_index`,
  :func:`label_index`, :func:`rescan_index`): forked workers read the
  parent's records in place, spawned ones unpickle the list once;
- a stream of records not known up front (ingest's persistent pool,
  ``imap_analyze``) ships each session as one compact codec blob
  (:mod:`repro.net.codec`) to :func:`analyze_blob`;
- *results* return as the JSON-safe dict forms the streaming
  checkpoints already pin round-trip-faithful
  (:meth:`SessionAnalysis.to_dict` / :meth:`LeakRecord.to_dict`), plus
  pickled :class:`TrainingExample` lists for the labeling stage.

Worker-side caches (matcher, categorizer, decode memos) warm up
per-process and are reused across that worker's tasks.
"""

from __future__ import annotations

_CONTEXT = {"specs_by_slug": None, "recon": None, "records": None, "campaign": None}


def init_worker(specs: list, recon, records: list = None) -> None:
    """Pool initializer: install the per-worker analysis context, and
    the records a batch map's index tasks read."""
    _CONTEXT["specs_by_slug"] = {spec.slug: spec for spec in specs}
    _CONTEXT["recon"] = recon
    _CONTEXT["records"] = records


def init_campaign(specs: list, config: dict) -> None:
    """Pool initializer for campaign shards: rebuild the bound context
    (sampler + specs + fold mode) once per worker.  ``config`` is the
    JSON-safe :meth:`CampaignContext.config` dict, so fork and spawn
    workers construct identical contexts."""
    from ..campaign.engine import CampaignContext

    _CONTEXT["campaign"] = CampaignContext.from_config(specs, config)


def campaign_shard(payload) -> bytes:
    """Simulate one shard of users; returns the exact
    (partials-preserving) KIND_CAGG blob from
    :func:`repro.net.codec.encode_campaign`, so the parent's merge of
    shipped partials stays bit-identical to an in-process reduction —
    one ``bytes`` object is far cheaper to pickle than the dict form."""
    from ..net import codec

    start, stop = payload
    return codec.encode_campaign(_CONTEXT["campaign"].run_shard(start, stop))


def campaign_chunk(payload) -> tuple:
    """Timed variant for the adaptive planner: simulate one contiguous
    user range and return ``(elapsed_seconds, blob)``.  The wall time is
    measured inside the worker, so the parent's feedback loop sees pure
    simulation cost, not queueing delay."""
    import time

    from ..net import codec

    start, stop = payload
    began = time.perf_counter()
    partial = _CONTEXT["campaign"].run_shard(start, stop)
    return time.perf_counter() - began, codec.encode_campaign(partial)


def campaign_merge_blobs(blobs: list) -> bytes:
    """Worker-side tree reduction: fold a window of KIND_CAGG blobs (in
    the given order) into one merged blob.  Context-free — the blobs
    are self-contained — and exact, so a tree of these merges is
    bit-identical to the master's serial left fold."""
    from ..campaign.engine import merge_campaigns
    from ..net import codec

    return codec.encode_campaign(
        merge_campaigns(codec.decode_campaign(blob) for blob in blobs)
    )


def _analyze(record) -> dict:
    from ..core.pipeline import analyze_session

    spec = _CONTEXT["specs_by_slug"][record.service]
    return analyze_session(record, spec, recon=_CONTEXT["recon"]).to_dict()


def analyze_index(index: int) -> dict:
    """Full per-session analysis; returns ``SessionAnalysis.to_dict()``."""
    return _analyze(_CONTEXT["records"][index])


def analyze_blob(blob: bytes) -> dict:
    """:func:`analyze_index` for a codec-encoded record."""
    from ..net import codec

    return _analyze(codec.decode_record(blob))


def label_index(index: int) -> list:
    """ReCon labeling; returns the session's ``TrainingExample`` list."""
    from ..core.pipeline import label_record

    return label_record(_CONTEXT["records"][index])


def rescan_index(index: int) -> dict:
    """Deferred matching∪ReCon re-scan (streaming finalize stage)."""
    from ..core.pipeline import rescan_session

    record = _CONTEXT["records"][index]
    spec = _CONTEXT["specs_by_slug"][record.service]
    leaks, false_positives = rescan_session(record, spec, recon=_CONTEXT["recon"])
    return {
        "leaks": [leak.to_dict() for leak in leaks],
        "recon_false_positives": false_positives,
    }


def aggregate_batch_blob(blob: bytes) -> dict:
    """Columnar kernel over one batch blob; returns the exact
    (partials-preserving) ``StudyAggregate.to_dict()`` form, so merging
    the shipped partials in the parent stays bit-identical to an
    in-process reduction.  Context-free: the blob is self-contained."""
    from ..analysis.columnar import aggregate_blob

    return aggregate_blob(blob).to_dict()
