"""Executor backends: one interface, three ways to spend cores.

The pipeline's fan-out points (:func:`analyze_dataset`,
:func:`train_recon_on_dataset`, the streaming finalizer's journal
replay) all map a pure per-session function over an ordered list of
records.  An :class:`Executor` owns *how* that map runs:

- :class:`SerialExecutor` — plain loop, zero overhead, the reference;
- :class:`ThreadExecutor` — ``ThreadPoolExecutor``; threads share the
  GIL, so this only helps where C-level work releases it (kept as the
  legacy ``workers=N`` behavior);
- :class:`ProcessExecutor` — ``ProcessPoolExecutor``; the only backend
  where ``--workers N`` means N cores for this pure-Python CPU-bound
  pipeline.  Context (specs + ReCon, and a batch map's records)
  installs once per worker through the pool initializer, streamed
  records ship as compact codec blobs (:mod:`repro.net.codec`), and
  results come back as JSON-safe dicts.

Every backend returns results aligned with the *input* record order,
and the QA oracle pins all of them byte-identical to serial for any
worker count.  The process backend additionally requires hash-seed
independence from the stages it runs (see the sorted-iteration notes
in :mod:`repro.pii.recon`), because a spawned worker gets its own
string-hash seed.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Optional, Union

from . import tasks

EXECUTOR_NAMES = ("serial", "thread", "process")


class ExecutorError(Exception):
    """Raised for unknown backend names or misconfigured executors."""


class Executor:
    """Maps per-session pipeline stages over ordered session records."""

    name = "abstract"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))

    def map_analyze(self, records: list, specs: list, recon) -> list:
        """Full analysis per record -> ``list[SessionAnalysis]``."""
        raise NotImplementedError

    def map_label(self, records: list) -> list:
        """ReCon labeling per record -> ``list[list[TrainingExample]]``."""
        raise NotImplementedError

    def map_rescan(self, records: list, specs: list, recon) -> list:
        """Deferred re-scan per record -> ``list[(leaks, false_positives)]``."""
        raise NotImplementedError

    def map_aggregate(self, blobs: list) -> list:
        """Columnar kernel per batch blob -> ``list[StudyAggregate]``."""
        raise NotImplementedError

    def map_sessions(self, shard_ranges, specs: list, config: dict):
        """Campaign fan-out: simulate whole session-shards.

        ``shard_ranges`` is an iterable of ``(start, stop)`` user-id
        ranges; yields one :class:`~repro.campaign.engine.CampaignAggregate`
        per shard, *streaming* in input order — at most a bounded
        window of shards is in flight, so the caller folds partials as
        they arrive and the full population never materializes.
        """
        raise NotImplementedError

    def imap_analyze(self, records, specs: list, recon):
        """Streaming :meth:`map_analyze`: yield one
        :class:`~repro.core.pipeline.SessionAnalysis` per record, in
        input order, with at most a bounded window in flight.  The
        ingest worker loop consumes this so a job's progress can be
        journaled (and the job parked for resume) between records
        instead of only after a whole batch.
        """
        raise NotImplementedError

    def session_pool(self, specs: list, config: dict):
        """Context manager over a persistent campaign worker pool.

        Yields a :class:`SessionPool` handle whose ``submit((start,
        stop))`` returns a future resolving to ``(elapsed_seconds,
        CampaignAggregate)`` — the low-level API the adaptive campaign
        driver uses when the *next* chunk's size depends on how long
        completed chunks took.  Exiting the context shuts the pool down
        (cancelling queued work), so an early-exiting driver leaks no
        threads or processes.
        """
        raise NotImplementedError

    def map_merge(self, blob_windows: list) -> list:
        """Campaign tree reduction: fold each window (an ordered list
        of KIND_CAGG blobs) into one merged blob.  Context-free — the
        blobs are self-contained — so the process backend needs no pool
        initializer and the merge work lands on the workers instead of
        the coordinator."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} workers={self.workers}>"


class SessionPool:
    """Handle yielded by :meth:`Executor.session_pool`.

    ``submit`` returns immediately with a future-like object;
    ``workers`` is the effective parallelism (1 for the serial backend)
    the driver sizes its in-flight window from.
    """

    def __init__(self, workers: int, submit_fn) -> None:
        self.workers = workers
        self._submit = submit_fn

    def submit(self, shard_range):
        """Schedule one ``(start, stop)`` user range; the returned
        future's ``result()`` is ``(elapsed_seconds, aggregate)``."""
        return self._submit(shard_range)


def _shard_error(item, exc) -> "ExecutorError":
    start, stop = item
    return ExecutorError(f"campaign shard [{start}, {stop}) failed: {exc}")


class _ShardFuture:
    """Future wrapper: annotates failures with the shard range and
    post-processes successful payloads (blob decode for the process
    backend)."""

    __slots__ = ("_item", "_future", "_decode")

    def __init__(self, item, future, decode=None) -> None:
        self._item = item
        self._future = future
        self._decode = decode

    def result(self):
        try:
            payload = self._future.result()
        except ExecutorError:
            raise
        except Exception as exc:
            raise _shard_error(self._item, exc) from exc
        return self._decode(payload) if self._decode is not None else payload


def _timed_shard(context, shard_range):
    start, stop = shard_range
    began = time.perf_counter()
    partial = context.run_shard(start, stop)
    return time.perf_counter() - began, partial


def _immediate_shard(context, shard_range) -> "_ShardFuture":
    """Serial ``submit``: run now, park value/error in a done future."""
    future: Future = Future()
    try:
        future.set_result(_timed_shard(context, shard_range))
    except Exception as exc:  # annotated by _ShardFuture at result()
        future.set_exception(exc)
    return _ShardFuture(shard_range, future)


def _stream_windowed(pool, fn, items, window: int):
    """Submit ``items`` to ``pool`` keeping at most ``window`` futures
    outstanding; yield results in submission order.  The bounded window
    is what makes the session fan-out streaming: upstream shard
    descriptors are consumed lazily and downstream results are folded
    before later shards are even submitted."""
    from collections import deque

    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _stream_shards(pool, fn, ranges, window: int, decode=None):
    """Campaign variant of :func:`_stream_windowed`: results come back
    through :class:`_ShardFuture`, so a worker failure surfaces as
    :class:`ExecutorError` naming the failing ``[start, stop)`` range
    instead of a bare traceback from deep inside the fold."""
    from collections import deque

    pending = deque()
    for item in ranges:
        pending.append(_ShardFuture(item, pool.submit(fn, item), decode))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


class SerialExecutor(Executor):
    """In-order, in-process reference backend."""

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(1)

    def map_analyze(self, records: list, specs: list, recon) -> list:
        from ..core.pipeline import analyze_session

        by_slug = {spec.slug: spec for spec in specs}
        return [
            analyze_session(record, by_slug[record.service], recon=recon)
            for record in records
        ]

    def map_label(self, records: list) -> list:
        from ..core.pipeline import label_record

        return [label_record(record) for record in records]

    def map_rescan(self, records: list, specs: list, recon) -> list:
        from ..core.pipeline import rescan_session

        by_slug = {spec.slug: spec for spec in specs}
        return [
            rescan_session(record, by_slug[record.service], recon=recon)
            for record in records
        ]

    def map_aggregate(self, blobs: list) -> list:
        from ..analysis.columnar import aggregate_blob

        return [aggregate_blob(blob) for blob in blobs]

    def map_sessions(self, shard_ranges, specs: list, config: dict):
        from ..campaign.engine import CampaignContext

        context = CampaignContext.from_config(list(specs), config)
        for start, stop in shard_ranges:
            try:
                yield context.run_shard(start, stop)
            except Exception as exc:
                raise _shard_error((start, stop), exc) from exc

    def imap_analyze(self, records, specs: list, recon):
        from ..core.pipeline import analyze_session

        by_slug = {spec.slug: spec for spec in specs}
        for record in records:
            yield analyze_session(record, by_slug[record.service], recon=recon)

    @contextlib.contextmanager
    def session_pool(self, specs: list, config: dict):
        from ..campaign.engine import CampaignContext

        context = CampaignContext.from_config(list(specs), config)
        yield SessionPool(1, lambda item: _immediate_shard(context, item))

    def map_merge(self, blob_windows: list) -> list:
        return [tasks.campaign_merge_blobs(window) for window in blob_windows]


class ThreadExecutor(Executor):
    """Thread-pool backend (the pre-existing ``workers=N`` behavior)."""

    name = "thread"

    def _map(self, fn, items: list) -> list:
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(fn, items))

    def map_analyze(self, records: list, specs: list, recon) -> list:
        from ..core.pipeline import analyze_session

        by_slug = {spec.slug: spec for spec in specs}
        return self._map(
            lambda record: analyze_session(record, by_slug[record.service], recon=recon),
            records,
        )

    def map_label(self, records: list) -> list:
        from ..core.pipeline import label_record

        return self._map(label_record, records)

    def map_rescan(self, records: list, specs: list, recon) -> list:
        from ..core.pipeline import rescan_session

        by_slug = {spec.slug: spec for spec in specs}
        return self._map(
            lambda record: rescan_session(record, by_slug[record.service], recon=recon),
            records,
        )

    def map_aggregate(self, blobs: list) -> list:
        from ..analysis.columnar import aggregate_blob

        return self._map(aggregate_blob, blobs)

    def map_sessions(self, shard_ranges, specs: list, config: dict):
        from ..campaign.engine import CampaignContext

        context = CampaignContext.from_config(list(specs), config)
        ranges = list(shard_ranges)
        if self.workers <= 1 or len(ranges) <= 1:
            for start, stop in ranges:
                try:
                    yield context.run_shard(start, stop)
                except Exception as exc:
                    raise _shard_error((start, stop), exc) from exc
            return
        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            yield from _stream_shards(
                pool,
                lambda item: context.run_shard(item[0], item[1]),
                ranges,
                self.workers * 2,
            )
        finally:
            # Runs on early generator close too: cancel queued shards,
            # wait out in-flight ones, leak no threads.
            pool.shutdown(wait=True, cancel_futures=True)

    @contextlib.contextmanager
    def session_pool(self, specs: list, config: dict):
        from ..campaign.engine import CampaignContext

        context = CampaignContext.from_config(list(specs), config)
        if self.workers <= 1:
            yield SessionPool(1, lambda item: _immediate_shard(context, item))
            return
        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            yield SessionPool(
                self.workers,
                lambda item: _ShardFuture(
                    item, pool.submit(_timed_shard, context, item)
                ),
            )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def map_merge(self, blob_windows: list) -> list:
        return self._map(tasks.campaign_merge_blobs, blob_windows)

    def imap_analyze(self, records, specs: list, recon):
        from ..core.pipeline import analyze_session

        by_slug = {spec.slug: spec for spec in specs}
        records = list(records)
        if self.workers <= 1 or len(records) <= 1:
            for record in records:
                yield analyze_session(record, by_slug[record.service], recon=recon)
            return
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            yield from _stream_windowed(
                pool,
                lambda record: analyze_session(
                    record, by_slug[record.service], recon=recon
                ),
                records,
                self.workers * 2,
            )


def _mp_context():
    """Prefer ``fork`` (context inherits free); fall back to ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ProcessExecutor(Executor):
    """Process-pool backend: true multi-core for pure-Python stages.

    A fresh pool is created per map call because the worker context
    (specs, trained ReCon, the records) differs between stages.  Starting
    the pool itself is cheap: about 0.02 s for 2 ``fork`` workers on a
    2-core host.  What a pool used to cost was moving the sessions, and
    two things keep that down:

    - the record list rides the pool initializer and tasks name records
      by index, so forked workers read the parent's records in place
      instead of decoding a codec blob each; under ``spawn`` the list
      is pickled once per worker;
    - the parent's heap is frozen (:func:`gc.freeze`) while the pool
      lives, so a child's collector never walks, and so never copies,
      the pages it inherited.

    On the 3-service subset (2 cores, Python 3.11, median of 5 warm
    runs) that took the 2-worker analyze stage from 0.45 s to 0.26 s and
    the label stage from 0.44 s to 0.31 s.
    """

    name = "process"

    def _run(self, task_fn, records: list, specs: list, recon) -> list:
        if not records:
            return []
        context = (list(specs), recon, records)
        indices = range(len(records))
        workers = min(self.workers, len(records))
        if workers <= 1:
            # Degenerate pool sizes skip the pool entirely; results are
            # byte-identical either way, this is purely less overhead.
            tasks.init_worker(*context)
            try:
                return [task_fn(index) for index in indices]
            finally:
                tasks.init_worker([], None)
        gc.freeze()
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_mp_context(),
                initializer=tasks.init_worker,
                initargs=context,
            ) as pool:
                return list(pool.map(task_fn, indices))
        finally:
            gc.unfreeze()

    def map_analyze(self, records: list, specs: list, recon) -> list:
        from ..core.pipeline import SessionAnalysis

        payloads = self._run(tasks.analyze_index, records, specs, recon)
        return [SessionAnalysis.from_dict(payload) for payload in payloads]

    def map_label(self, records: list) -> list:
        return self._run(tasks.label_index, records, [], None)

    def map_rescan(self, records: list, specs: list, recon) -> list:
        from ..core.leaks import LeakRecord

        payloads = self._run(tasks.rescan_index, records, specs, recon)
        return [
            (
                [LeakRecord.from_dict(entry) for entry in payload["leaks"]],
                payload["recon_false_positives"],
            )
            for payload in payloads
        ]

    def map_aggregate(self, blobs: list) -> list:
        from ..analysis.columnar import StudyAggregate, aggregate_blob

        if not blobs:
            return []
        workers = min(self.workers, len(blobs))
        if workers <= 1:
            # Same degenerate-pool shortcut as _run: skip IPC entirely.
            return [aggregate_blob(blob) for blob in blobs]
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
        ) as pool:
            return [
                StudyAggregate.from_dict(payload)
                for payload in pool.map(tasks.aggregate_batch_blob, blobs)
            ]

    def map_sessions(self, shard_ranges, specs: list, config: dict):
        from ..net import codec

        ranges = list(shard_ranges)
        if not ranges:
            return
        workers = min(self.workers, len(ranges))
        if workers <= 1:
            # Degenerate pool sizes skip IPC entirely; results are
            # byte-identical either way, this is purely less overhead.
            tasks.init_campaign(list(specs), config)
            for item in ranges:
                try:
                    yield codec.decode_campaign(tasks.campaign_shard(item))
                except Exception as exc:
                    raise _shard_error(item, exc) from exc
            return
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=tasks.init_campaign,
            initargs=(list(specs), config),
        )
        try:
            yield from _stream_shards(
                pool,
                tasks.campaign_shard,
                ranges,
                workers * 2,
                decode=codec.decode_campaign,
            )
        finally:
            # Runs on early generator close too: cancel queued shards,
            # wait out in-flight ones, leave no orphaned processes.
            pool.shutdown(wait=True, cancel_futures=True)

    @contextlib.contextmanager
    def session_pool(self, specs: list, config: dict):
        from ..campaign.engine import CampaignContext
        from ..net import codec

        if self.workers <= 1:
            context = CampaignContext.from_config(list(specs), config)
            yield SessionPool(1, lambda item: _immediate_shard(context, item))
            return

        def decode(payload):
            elapsed, blob = payload
            return elapsed, codec.decode_campaign(blob)

        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_mp_context(),
            initializer=tasks.init_campaign,
            initargs=(list(specs), config),
        )
        try:
            yield SessionPool(
                self.workers,
                lambda item: _ShardFuture(
                    item, pool.submit(tasks.campaign_chunk, item), decode
                ),
            )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def map_merge(self, blob_windows: list) -> list:
        if not blob_windows:
            return []
        workers = min(self.workers, len(blob_windows))
        if workers <= 1:
            # Same degenerate-pool shortcut as _run: skip IPC entirely.
            return [tasks.campaign_merge_blobs(window) for window in blob_windows]
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
        ) as pool:
            return list(pool.map(tasks.campaign_merge_blobs, blob_windows))

    def imap_analyze(self, records, specs: list, recon):
        from ..core.pipeline import SessionAnalysis
        from ..net import codec

        records = list(records)
        if not records:
            return
        workers = min(self.workers, len(records))
        blobs = [codec.encode_record(record) for record in records]
        if workers <= 1:
            # Degenerate pool sizes skip IPC entirely; results are
            # byte-identical either way, this is purely less overhead.
            tasks.init_worker(specs, recon)
            for blob in blobs:
                yield SessionAnalysis.from_dict(tasks.analyze_blob(blob))
            return
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=tasks.init_worker,
            initargs=(list(specs), recon),
        ) as pool:
            for payload in _stream_windowed(
                pool, tasks.analyze_blob, blobs, workers * 2
            ):
                yield SessionAnalysis.from_dict(payload)


def default_executor_name() -> str:
    """The ``auto`` policy: ``process`` when the host has cores to use."""
    return "process" if (os.cpu_count() or 1) > 1 else "serial"


def resolve_executor(
    executor: Union[Executor, str, None],
    workers: int = 1,
) -> Executor:
    """Turn an executor spec into a backend instance.

    ``None`` keeps the legacy library behavior (threads when
    ``workers > 1``, else serial) so existing callers are unchanged.
    ``"auto"`` applies the CLI default policy: process on multi-core
    hosts — with every core when ``workers`` was left at 1 — serial
    otherwise.  A string picks a backend explicitly; an
    :class:`Executor` instance passes through.
    """
    if isinstance(executor, Executor):
        return executor
    cpus = os.cpu_count() or 1
    if executor is None:
        return ThreadExecutor(workers) if workers > 1 else SerialExecutor()
    if executor == "auto":
        if cpus > 1:
            return ProcessExecutor(workers if workers > 1 else cpus)
        return ThreadExecutor(workers) if workers > 1 else SerialExecutor()
    if executor == "serial":
        return SerialExecutor()
    if executor == "thread":
        return ThreadExecutor(workers)
    if executor == "process":
        return ProcessExecutor(workers)
    raise ExecutorError(
        f"unknown executor {executor!r} (choose one of {EXECUTOR_NAMES} or 'auto')"
    )
