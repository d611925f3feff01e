"""Executor backends: one set of pipeline stages, three ways to spend cores.

The pipeline's fan-out points (:func:`analyze_dataset`,
:func:`train_recon_on_dataset`, the streaming finalizer's journal
replay, campaign shards and merges, ingest jobs) all map a pure
per-item task (:mod:`repro.par.tasks`) over an ordered list.  Each
stage is written once, on :class:`Executor`, over three fan-out
primitives that each backend supplies:

- ``_batch`` — map a task over a list, results in input order;
- ``_open`` — a live :class:`Pool` whose ``submit(task, item)`` returns
  a future; its ``imap`` is the one bounded-window stream in input
  order, and the same handle serves the persistent pools
  (:meth:`Executor.session_pool`, :meth:`Executor.open_pool`).

The backends:

- :class:`SerialExecutor` — plain loop, zero overhead, the reference;
  it is also what every backend runs when a pool could use at most one
  worker;
- :class:`ThreadExecutor` — ``ThreadPoolExecutor``; threads share the
  GIL, so this only helps where C-level work releases it (kept as the
  legacy ``workers=N`` behavior);
- :class:`ProcessExecutor` — ``ProcessPoolExecutor``; the only backend
  where ``--workers N`` means N cores for this pure-Python CPU-bound
  pipeline.  The task context (specs + ReCon, and a batch map's
  records) installs once per worker through the pool initializer, and
  results come back in their wire form (:class:`repro.par.tasks.Task`).

Every backend returns results aligned with the *input* order, and the
QA oracle pins all of them byte-identical to serial for any worker
count.  The process backend additionally requires hash-seed
independence from the stages it runs (see the sorted-iteration notes
in :mod:`repro.pii.recon`), because a spawned worker gets its own
string-hash seed.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import multiprocessing
import os
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Union

from . import tasks

EXECUTOR_NAMES = ("serial", "thread", "process")


class ExecutorError(Exception):
    """Raised for unknown backend names, misconfigured executors, and
    failed campaign shards (naming the ``[start, stop)`` range)."""


class Pool:
    """A live worker pool whose workers hold one task context.

    ``submit(task, item)`` returns a future whose ``result()`` is
    ``task.run(context, item)``.  ``workers`` is the effective
    parallelism callers size their in-flight windows from.  Used as a
    context manager, exiting cancels queued work and waits out the
    in-flight items, so an early exit leaks no threads or processes.
    """

    def __init__(self, workers: int, submit, shutdown=None, window: int = 0) -> None:
        self.workers = workers
        self._submit = submit
        self._shutdown = shutdown
        self._window = window or 2 * workers

    def submit(self, task: tasks.Task, item):
        """Schedule ``task`` on ``item``; returns its future."""
        future = self._submit(task, item)
        return future if task.name is None else _Named(future, task.name(item))

    def imap(self, task: tasks.Task, items):
        """Results of ``task`` over ``items`` in input order, with at
        most a bounded window in flight: ``items`` are consumed lazily
        and each result is handed on before later items are submitted."""
        pending = deque()
        for item in items:
            pending.append(self.submit(task, item))
            if len(pending) >= self._window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        if self._shutdown is not None:
            self._shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True, cancel_futures=True)


class _Named:
    """A future whose failure, in its task or in the pool running it (a
    worker killed mid-shard), raises :class:`ExecutorError` naming the
    item instead of a bare traceback from deep inside the fold."""

    __slots__ = ("_future", "_name")

    def __init__(self, future, name: str) -> None:
        self._future = future
        self._name = name

    def result(self):
        try:
            return self._future.result()
        except ExecutorError:
            raise
        except Exception as exc:
            raise ExecutorError(f"{self._name} failed: {exc}") from exc


class SessionPool:
    """Handle yielded by :meth:`Executor.session_pool`.

    ``submit((start, stop))`` returns immediately with a future-like
    object; ``workers`` is the effective parallelism (1 for the serial
    backend) the driver sizes its in-flight window from.
    """

    def __init__(self, pool: Pool) -> None:
        self.workers = pool.workers
        self._pool = pool

    def submit(self, shard_range):
        """Schedule one ``(start, stop)`` user range; the returned
        future's ``result()`` is ``(elapsed_seconds, aggregate)``."""
        return self._pool.submit(tasks.CAMPAIGN_CHUNK, shard_range)


class Executor:
    """Maps per-session pipeline stages over ordered session records."""

    name = "abstract"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))

    # -- fan-out primitives: each backend supplies these ----------------------

    def _batch(self, task: tasks.Task, context: dict, items: list, workers: int) -> list:
        """``task`` over ``items`` on a ``workers``-wide pool whose tasks
        see ``tasks.Context(**context)``."""
        raise NotImplementedError

    def _open(self, context: dict, workers: int) -> Pool:
        """A live ``workers``-wide :class:`Pool` over that context."""
        raise NotImplementedError

    def _fanout(self, count: int) -> tuple:
        """``(backend, workers)`` for ``count`` items: the serial loop
        whenever a pool could use at most one worker.  Results are
        byte-identical either way; this only skips the pool's cost."""
        workers = min(self.workers, count)
        return (self, workers) if workers > 1 else (SerialExecutor(), 1)

    def _map(self, task: tasks.Task, context: dict, items) -> list:
        backend, workers = self._fanout(len(items))
        return backend._batch(task, context, items, workers)

    def _stream(self, task: tasks.Task, context: dict, items):
        items = list(items)
        backend, workers = self._fanout(len(items))
        with backend._open(context, workers) as pool:
            yield from pool.imap(task, items)

    # -- the pipeline stages ---------------------------------------------------

    def map_analyze(self, records: list, specs: list, recon) -> list:
        """Full analysis per record -> ``list[SessionAnalysis]``."""
        context = dict(specs=specs, recon=recon, records=records)
        return self._map(tasks.ANALYZE, context, range(len(records)))

    def map_label(self, records: list) -> list:
        """ReCon labeling per record -> ``list[list[TrainingExample]]``."""
        return self._map(tasks.LABEL, dict(records=records), range(len(records)))

    def map_rescan(self, records: list, specs: list, recon) -> list:
        """Deferred re-scan per record -> ``list[(leaks, false_positives)]``."""
        context = dict(specs=specs, recon=recon, records=records)
        return self._map(tasks.RESCAN, context, range(len(records)))

    def map_aggregate(self, blobs: list) -> list:
        """Columnar kernel per batch blob -> ``list[StudyAggregate]``."""
        return self._map(tasks.AGGREGATE, {}, blobs)

    def map_sessions(self, shard_ranges, specs: list, config: dict):
        """Campaign fan-out: simulate whole session-shards.

        ``shard_ranges`` is an iterable of ``(start, stop)`` user-id
        ranges; yields one :class:`~repro.campaign.engine.CampaignAggregate`
        per shard, *streaming* in input order — at most a bounded
        window of shards is in flight, so the caller folds partials as
        they arrive and the full population never materializes.  A
        failing shard raises :class:`ExecutorError` naming its range.
        """
        context = dict(specs=specs, config=config)
        yield from self._stream(tasks.CAMPAIGN_SHARD, context, shard_ranges)

    def imap_analyze(self, records, specs: list, recon):
        """Streaming :meth:`map_analyze`: yield one
        :class:`~repro.core.pipeline.SessionAnalysis` per record, in
        input order, with at most a bounded window in flight.  The
        ingest worker loop consumes this so a job's progress can be
        journaled (and the job parked for resume) between records
        instead of only after a whole batch.
        """
        records = list(records)
        context = dict(specs=specs, recon=recon, records=records)
        yield from self._stream(tasks.ANALYZE, context, range(len(records)))

    @contextlib.contextmanager
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
        backend, workers = self._fanout(self.workers)
        with backend._open(dict(specs=specs, config=config), workers) as pool:
            yield SessionPool(pool)

    def map_merge(self, blob_windows: list) -> list:
        """Campaign tree reduction: fold each window (an ordered list
        of KIND_CAGG blobs) into one merged blob.  Context-free — the
        blobs are self-contained — so the merge work lands on the
        workers instead of the coordinator."""
        return self._map(tasks.MERGE, {}, blob_windows)

    def open_pool(self, specs: list) -> Pool:
        """A long-lived analysis :class:`Pool` over ``specs`` for records
        that arrive after it starts (submit :data:`tasks.ANALYZE_BLOB`
        with a codec-encoded record).  It keeps real workers even at
        ``workers=1``, taking the analysis off the caller's interpreter;
        the caller shuts it down."""
        return self._open(dict(specs=specs), self.workers)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} workers={self.workers}>"


def _run_now(context: tasks.Context, task: tasks.Task, item) -> Future:
    """Inline ``submit``: run now, park the value or error in a done future."""
    future: Future = Future()
    try:
        future.set_result(task.run(context, item))
    except Exception as exc:  # raised again by result(), like a pool's
        future.set_exception(exc)
    return future


class SerialExecutor(Executor):
    """In-order, in-process reference backend."""

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(1)

    def _batch(self, task, context, items, workers):
        bound = tasks.Context(**context)
        return [task.run(bound, item) for item in items]

    def _open(self, context, workers):
        # A window of one keeps a stream lazy: each item runs only when
        # its result is asked for.
        return Pool(1, functools.partial(_run_now, tasks.Context(**context)), window=1)


class ThreadExecutor(Executor):
    """Thread-pool backend (the pre-existing ``workers=N`` behavior)."""

    name = "thread"

    def _batch(self, task, context, items, workers):
        run = functools.partial(task.run, tasks.Context(**context))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, items))

    def _open(self, context, workers):
        bound = tasks.Context(**context)
        pool = ThreadPoolExecutor(max_workers=workers)
        return Pool(
            workers, lambda task, item: pool.submit(task.run, bound, item), pool.shutdown
        )


def _mp_context():
    """Prefer ``fork`` (context inherits free); fall back to ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _Decoded:
    """A process pool's future, decoding the shipped result in the parent."""

    __slots__ = ("_future", "_decode")

    def __init__(self, future, decode) -> None:
        self._future = future
        self._decode = decode

    def result(self):
        payload = self._future.result()
        return payload if self._decode is None else self._decode(payload)


class ProcessExecutor(Executor):
    """Process-pool backend: true multi-core for pure-Python stages.

    A batch map starts a fresh pool per call because the task context
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

    def _executor(self, context: dict, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=tasks.init_worker,
            initargs=(context,),
        )

    def _batch(self, task, context, items, workers):
        gc.freeze()
        try:
            with self._executor(context, workers) as pool:
                payloads = list(pool.map(functools.partial(tasks.remote, task), items))
        finally:
            gc.unfreeze()
        if task.decode is None:
            return payloads
        return [task.decode(payload) for payload in payloads]

    def _open(self, context, workers):
        pool = self._executor(context, workers)
        return Pool(
            workers,
            lambda task, item: _Decoded(pool.submit(tasks.remote, task, item), task.decode),
            pool.shutdown,
        )


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
