"""What the benchmark measures: workloads, metrics, and their links.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/run.py --manifest``).  Its schema holds only a
name, unit and direction per per-layer metric, so the prediction of
which end-to-end metric each layer metric should move, and on which
workload, lives here in :data:`PER_LAYER` and is printed with every
traced run.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: Subset study and serve result store: the 3-service subset the
#: ROADMAP's "subset study ≥2× faster" target names.
SUBSET = "weather,grubhub,cnn"
#: Users per campaign sample.  A 64-user sample takes about 4 s on 2
#: cores and its serial master-reduce reference about 6 s, so a 20 s run
#: holds four or five samples; at 128 users it held two, and the
#: run-to-run spread of wall_s doubled.
CAMPAIGN_USERS = 64

WORKLOADS = {
    "study-subset": "repro run on weather,grubhub,cnn with ReCon: pool start-up outweighs the analysis, "
                    "so executor overhead dominates; the study-full path at small scale",
    "campaign": "repro campaign over 64 simulated users: simulation, matching, categorizing, columnar "
                "folds, cohort merges and codec IPC; ReCon never runs",
    "serve-ingest": "repro serve with an open loop of cached recommend reads beside distinct trace "
                    "uploads: HTTP front door, serve cache, ingest queue and journal, persistent pool",
}

#: Runnable by name but left out of BENCHMARK.json: one run is a 33 s
#: sample plus a 35 s serial reference on 2 cores, so the 22 runs a
#: benchmark round makes per workload would take about 25 minutes.
EXTRA_WORKLOADS = {
    "study-full": "repro run over all 50 services with ReCon: the paper's end-to-end path",
}

# (name, unit, better, bound, definition)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25,
     "median time from input to complete result: one repro run or repro campaign "
     "invocation; for serve-ingest one upload, from its due time until its result is ready"),
    ("setup_s", "s", "lower", 0.25,
     "median time from program start to ready: import plus catalog and world build; "
     "for serve-ingest, until /healthz answers with the store loaded"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "largest resident set of any of the program's processes, pool children included"),
]

_BATCH = "study-subset, campaign"
# (name, unit, better, should move, should not move)
PER_LAYER = [
    ("pii.recon.fit_s", "s", "lower", "wall_s on study-subset (and study-full)", "campaign, serve-ingest"),
    ("pii.recon.tree_fits", "count", "lower", "wall_s on study-subset (and study-full)", "campaign, serve-ingest"),
    ("pii.recon.featurize.calls", "count", "lower", "wall_s on study-subset (and study-full)", "campaign, serve-ingest"),
    ("pii.recon.featurize.distinct", "count", "lower", "wall_s on study-subset (and study-full)", "campaign, serve-ingest"),
    ("pii.recon.predict_s", "s", "lower", "wall_s on study-subset (and study-full)", "campaign, serve-ingest"),
    ("pii.match_s", "s", "lower", "wall_s on campaign and study-full; wall_s (job p50) on serve-ingest", "-"),
    ("pii.match.calls", "count", "lower", "wall_s on campaign and study-full; wall_s (job p50) on serve-ingest", "-"),
    ("trackerdb.categorize_s", "s", "lower", "wall_s on campaign", "serve.read_p99_ms on serve-ingest"),
    ("trackerdb.categorize.calls", "count", "lower", "wall_s on campaign", "serve.read_p99_ms on serve-ingest"),
    ("trackerdb.categorize.distinct_hosts", "count", "lower", "wall_s on campaign", "serve.read_p99_ms on serve-ingest"),
    ("experiment.simulate.self_s", "s", "lower", "wall_s on campaign and study-full", "serve-ingest"),
    ("experiment.sessions", "count", "lower", "wall_s on campaign and study-full", "serve-ingest"),
    ("http.transport_s", "s", "lower", "wall_s on campaign and study-full", "serve-ingest"),
    ("proxy.s", "s", "lower", "wall_s on campaign and study-full", "serve-ingest"),
    ("analysis.aggregate_s", "s", "lower", "wall_s on campaign", "study-full (small share)"),
    ("analysis.render_s", "s", "lower", "wall_s on campaign", "study-full (small share)"),
    ("campaign.merge_s", "s", "lower", "wall_s on campaign", "study-full (small share)"),
    ("campaign.merge.calls", "count", "lower", "wall_s on campaign", "study-full (small share)"),
    ("net.codec_s", "s", "lower", "wall_s (job p50) on serve-ingest; wall_s on campaign", "study-subset"),
    ("net.codec.bytes", "bytes", "lower", "wall_s (job p50) on serve-ingest; wall_s on campaign", "study-subset"),
    ("par.map_s", "s", "lower", "wall_s and setup_s on study-subset", "study-full (amortized)"),
    ("par.map.calls", "count", "lower", "wall_s and setup_s on study-subset", "study-full (amortized)"),
    ("par.overhead_s", "s", "lower", "wall_s and setup_s on study-subset", "study-full (amortized)"),
    ("serve.cache.hit_ratio", "ratio", "higher", "serve.read_p99_ms and ingest.job_p90_s on serve-ingest", _BATCH),
    ("serve.read_p50_ms", "ms", "lower", "serve.read_p99_ms on serve-ingest", _BATCH),
    ("serve.read_p99_ms", "ms", "lower", "serve.read_p99_ms on serve-ingest", _BATCH),
    ("ingest.job_p90_s", "s", "lower", "ingest.job_p90_s on serve-ingest", _BATCH),
    ("ingest.queue_depth.max", "count", "lower", "serve.read_p99_ms and ingest.job_p90_s on serve-ingest", _BATCH),
    ("ingest.jobs_done", "count", "higher", "serve.read_p99_ms and ingest.job_p90_s on serve-ingest", _BATCH),
    ("ingest.rejected", "count", "lower", "serve.read_p99_ms and ingest.job_p90_s on serve-ingest", _BATCH),
    ("loadgen.lag_p99_ms", "ms", "lower", "serve.read_p99_ms and ingest.job_p90_s on serve-ingest", _BATCH),
    ("trace.overhead_s", "s", "lower", "nothing: the cost of the wrappers themselves", "every workload"),
]

#: Counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = [
    "pii.recon.tree_fits", "pii.recon.featurize.calls", "pii.recon.featurize.distinct",
    "pii.match.calls", "trackerdb.categorize.calls", "trackerdb.categorize.distinct_hosts",
    "experiment.sessions", "campaign.merge.calls", "par.map.calls",
]


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _definition in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves, _steady in PER_LAYER
        ],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2, ensure_ascii=False) + "\n"
