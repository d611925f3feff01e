"""Pluggable execution engine: serial / thread / process backends.

Every per-session pipeline stage (analyze, ReCon labeling, journal
re-scan, columnar aggregation, campaign shards and merges) is a pure
task over one item (:mod:`repro.par.tasks`), and :class:`Executor`
writes each stage once over the fan-out primitives its backends
supply: a batch map and a live :class:`Pool` (submit, plus one
bounded-window stream).  The batch pipeline, the streaming finalizer,
campaigns, ingest and the QA oracle all route through it, and every
backend is pinned byte-identical for any worker count.
"""

from .executor import (
    EXECUTOR_NAMES,
    Executor,
    ExecutorError,
    Pool,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_executor_name,
    resolve_executor,
)

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "ExecutorError",
    "Pool",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "default_executor_name",
    "resolve_executor",
]
