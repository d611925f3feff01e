"""Spans and counts recorded from outside the program.

:func:`instrument` replaces the public layer functions of ``repro``
with thin wrappers that record a span (name, start, end, parent) per
call and the counts named in :data:`LAYERS`.  Nothing under ``src/``
changes: the wrappers are installed in the benchmark's own process, or
in the harness process that runs a traced command (see ``harness.py``).

Spans are kept in memory and written out once, at the end.  A layer's
self time is its span's duration minus the time its child spans cover;
spans nest per thread, so children never overlap and the subtraction is
exact.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict


def _frozen_features(args, result):
    return frozenset(result)


def _host(args, result):
    return args[1].lower()


def _output_bytes(args, result):
    return len(result)


def _input_bytes(args, result):
    return len(args[0])


def _queue_depth(args, result):
    return args[0].pending()


# (module, attribute path, span name, options).  Options:
#   calls     counter bumped once per call
#   distinct  (counter, key(args, result)): number of distinct keys
#   add       (counter, amount(args, result)): summed amount
#   maximum   (counter, value(args, result)): largest value seen
LAYERS = [
    ("repro.experiment.runner", "ExperimentRunner.run_session", "experiment.simulate",
     {"calls": "experiment.sessions"}),
    # Server-side handling inside the simulated world is simulation too;
    # without this span it would land in the proxy's self time.
    ("repro.http.transport", "Network.dispatch", "experiment.simulate", {}),
    ("repro.http.session", "ClientSession.send", "http.transport", {}),
    ("repro.proxy.meddle", "ProxyConnection.send", "proxy", {}),
    ("repro.pii.matcher", "GroundTruthMatcher.match_request", "pii.match",
     {"calls": "pii.match.calls"}),
    # Building the per-session Aho-Corasick automaton is matching work too.
    ("repro.pii.matcher", "matcher_for", "pii.match", {}),
    ("repro.pii.detector", "PiiDetector.scan_trace", "pii.detect", {}),
    ("repro.pii.recon", "featurize", "pii.recon.featurize",
     {"calls": "pii.recon.featurize.calls",
      "distinct": ("pii.recon.featurize.distinct", _frozen_features)}),
    ("repro.pii.recon", "ReconClassifier.fit", "pii.recon.fit", {}),
    ("repro.pii.recon", "DecisionTree.fit", "pii.recon.fit",
     {"calls": "pii.recon.tree_fits"}),
    ("repro.pii.recon", "ReconClassifier.predict", "pii.recon.predict", {}),
    ("repro.trackerdb.categorize", "Categorizer.categorize_host", "trackerdb.categorize",
     {"calls": "trackerdb.categorize.calls",
      "distinct": ("trackerdb.categorize.distinct_hosts", _host)}),
    ("repro.core.pipeline", "analyze_session", "core.analyze_session", {}),
    ("repro.core.pipeline", "label_record", "core.label_record", {}),
    ("repro.services.world", "build_world", "experiment.simulate", {}),
    ("repro.campaign.engine", "CampaignContext.run_shard", "campaign.shard", {}),
    ("repro.campaign.engine", "CampaignContext.fold_user", "analysis.aggregate", {}),
    ("repro.analysis.columnar", "study_aggregate", "analysis.aggregate", {}),
    ("repro.analysis.columnar", "encode_cells", "analysis.aggregate", {}),
    ("repro.analysis.columnar", "aggregate_blob", "analysis.aggregate", {}),
    ("repro.analysis.columnar", "merge_aggregates", "analysis.aggregate", {}),
    ("repro.analysis.tables", "table1", "analysis.render", {}),
    ("repro.analysis.tables", "table2", "analysis.render", {}),
    ("repro.analysis.tables", "table3", "analysis.render", {}),
    ("repro.analysis.tables", "render_table1", "analysis.render", {}),
    ("repro.analysis.tables", "render_table2", "analysis.render", {}),
    ("repro.analysis.tables", "render_table3", "analysis.render", {}),
    ("repro.campaign.report", "render_campaign", "analysis.render", {}),
    ("repro.campaign.engine", "CampaignAggregate.merge", "campaign.merge",
     {"calls": "campaign.merge.calls"}),
    ("repro.net.codec", "encode_record", "net.codec",
     {"add": ("net.codec.bytes", _output_bytes)}),
    ("repro.net.codec", "encode_bundle", "net.codec",
     {"add": ("net.codec.bytes", _output_bytes)}),
    ("repro.net.codec", "encode_campaign", "net.codec",
     {"add": ("net.codec.bytes", _output_bytes)}),
    ("repro.net.codec", "decode_record", "net.codec",
     {"add": ("net.codec.bytes", _input_bytes)}),
    ("repro.net.codec", "decode_bundle", "net.codec",
     {"add": ("net.codec.bytes", _input_bytes)}),
    ("repro.net.codec", "decode_campaign", "net.codec",
     {"add": ("net.codec.bytes", _input_bytes)}),
    ("repro.serve.app", "ServeApp.handle", "serve.handle", {}),
    ("repro.ingest.service", "IngestService.submit", "ingest.submit", {}),
    # The job worker's unit of work; the service has no public per-job call.
    ("repro.ingest.service", "IngestService._process", "ingest.job",
     {"calls": "ingest.jobs"}),
    ("repro.ingest.queue", "TenantQueue.push", "ingest.queue",
     {"maximum": ("ingest.queue_depth.max", _queue_depth)}),
]

_MAP_METHODS = ("map_analyze", "map_label", "map_rescan", "map_aggregate",
                "map_sessions", "imap_analyze", "map_merge")
for _backend in ("SerialExecutor", "ThreadExecutor", "ProcessExecutor"):
    for _method in _MAP_METHODS:
        LAYERS.append(("repro.par.executor", f"{_backend}.{_method}", "par.map",
                       {"calls": "par.map.calls"}))


class Tracer:
    """In-memory span and count store shared by every wrapper."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent span or None, thread id]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.keys: dict = defaultdict(set)
        self.maxima: dict = {}
        self._local = threading.local()

    def _observe(self, options: dict, args, result) -> None:
        if "calls" in options:
            self.counts[options["calls"]] += 1
        if "distinct" in options:
            name, key = options["distinct"]
            self.keys[name].add(key(args, result))
        if "add" in options:
            name, amount = options["add"]
            self.counts[name] += amount(args, result)
        if "maximum" in options:
            name, value = options["maximum"]
            self.maxima[name] = max(self.maxima.get(name, 0), value(args, result))

    def wrap(self, fn, name: str, options: dict):
        """A wrapper recording one span per call (per step, for a
        generator, so the consumer's work between steps is not billed
        to the producer).  Kept lean: it runs on every hot call."""
        spans, local, clock, thread = self.spans, self._local, time.perf_counter_ns, threading.get_ident
        observe = self._observe if options else None

        def open_span() -> list:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span = [name, clock(), 0, stack[-1] if stack else None, thread()]
            stack.append(span)
            return span

        def close_span(span: list) -> None:
            span[2] = clock()
            local.stack.pop()
            spans.append(span)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if observe:
                    observe(options, args, None)
                inner = fn(*args, **kwargs)
                while True:
                    span = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(span)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(span)
            if observe:
                observe(options, args, result)
            return result

        return wrapper

    # -- reading -------------------------------------------------------------

    def count(self, name: str) -> int:
        if name in self.keys:
            return len(self.keys[name])
        if name in self.maxima:
            return self.maxima[name]
        return self.counts.get(name, 0)

    def layer_table(self) -> dict:
        """``{span name: {"calls", "total_s", "self_s"}}``."""
        child_ns: Counter = Counter()
        for _name, start, end, parent, _tid in self.spans:
            if parent is not None:
                child_ns[id(parent)] += end - start
        table: dict = {}
        for span in self.spans:
            name, start, end = span[0], span[1], span[2]
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[id(span)]) / 1e9
        return table

    def dump(self, path: str) -> None:
        """Write spans as Chrome trace-event JSON plus the counts."""
        pid = os.getpid()
        ids = {id(span): number for number, span in enumerate(self.spans, 1)}
        events = [
            {"name": name, "ph": "X", "ts": start / 1e3, "dur": (end - start) / 1e3,
             "pid": pid, "tid": tid,
             "args": {"id": ids[id(span)], "parent": ids[id(parent)] if parent else 0}}
            for span in self.spans
            for name, start, end, parent, tid in [span]
        ]
        counts = {name: self.count(name)
                  for name in set(self.counts) | set(self.keys) | set(self.maxima)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "counts": counts, "layers": self.layer_table()}, handle)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def instrument(tracer: Tracer) -> None:
    """Install a wrapper for every entry of :data:`LAYERS`.

    A class attribute is replaced on the class.  A module-level function
    is replaced in every loaded ``repro`` module that holds it, so
    ``from .x import f`` call sites see the wrapper too.
    """
    importlib.import_module("repro.cli")
    for module_name, path, name, options in LAYERS:
        owner, attr = _resolve(module_name, path)
        original = inspect.getattr_static(owner, attr)
        wrapper = tracer.wrap(original, name, options)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
