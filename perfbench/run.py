"""The repository's benchmark: one command for the paths users run.

    python3 perfbench/run.py --workload study-subset --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report
    python3 perfbench/run.py --manifest                # rewrite BENCHMARK.json

``--trace 0`` measures the end-to-end metrics of :data:`spec.END_TO_END`
with nothing wrapped.  ``--trace 1`` makes the separate traced run:
per-layer metrics, the self-time table per layer, and the spans as
Chrome trace-event JSON under ``.perfbench/traces/``.  Either way the
program's outputs are checked against a reference computed outside the
timed region, and the last line of stdout is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

Run from the root of a checkout: the program is imported from its
``src/`` tree, and everything the benchmark writes stays under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

import programs
import spec
import workloads

STATE = programs.ROOT / ".perfbench"


def host_record(names: list, seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=programs.ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "not a git checkout"
    source = hashlib.sha256()
    for path in sorted(programs.SRC.rglob("*.py")):
        source.update(path.relative_to(programs.SRC).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "source_sha256": source.hexdigest(),
        "seeds": {name: {"benchmark": seed, "program": workloads.program_seed(name, seed)}
                  for name in names},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workdir = STATE / f"work-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    trace_path = STATE / "traces" / f"{name}-seed{seed}.json"
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        if name == "serve-ingest":
            if trace:
                return workloads.trace_serve(seed, seconds, workdir, trace_path)
            return workloads.run_serve(seed, seconds, workdir)
        if trace:
            return workloads.trace_batch(name, seed, workdir, trace_path)
        return workloads.run_batch(name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, outcome, trace: bool) -> None:
    verdict = "PASS" if outcome.correct else "FAIL"
    print(f"== {name}: verdict {verdict}; {outcome.failed} of {outcome.attempted} "
          f"operations failed (failed_frac {outcome.failed / max(1, outcome.attempted):.4f})")
    for failure in outcome.failures[:20]:
        print(f"   failure: {failure}")
    for note in outcome.notes:
        print(f"   {note}")
    if not trace:
        for metric, unit, _better, bound, definition in spec.END_TO_END:
            print(f"   {metric:<14} {outcome.metrics[metric]:>12.4f} {unit:<5} "
                  f"(bound {bound:.0%}) {definition}")
        return
    print(f"   spans: {outcome.trace_file}")
    print(f"   {'layer span':<24} {'calls':>8} {'self s':>9} {'total s':>9}")
    for span, row in sorted(outcome.layers["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"   {span:<24} {row['calls']:>8} {row['self_s']:>9.4f} {row['total_s']:>9.4f}")
    print(f"   {'per-layer metric':<36} {'value':>14}  should move / should not move; "
          "* = repeats exactly for a seed")
    for metric, unit, _better, moves, steady in spec.PER_LAYER:
        value = outcome.metrics[metric]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        exact = "*" if metric in spec.EXACT_COUNTS else " "
        print(f"   {metric:<36} {shown:>14}{exact}{unit:<6} {moves} / {steady}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = list(spec.WORKLOADS) + list(spec.EXTRA_WORKLOADS)
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        (programs.ROOT / "BENCHMARK.json").write_text(spec.manifest_text(), encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (programs.SRC / "repro" / "cli.py").is_file():
        print(f"no program to measure: {programs.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if "PYTHONHASHSEED" not in os.environ:
        # One hash seed for this process and every program it starts, so
        # references built here and the program's own bytes agree even
        # where the program iterates sets (recommendation scores sum over
        # a set of PII types, so their last float digits depend on it).
        os.environ["PYTHONHASHSEED"] = str(args.seed % 4294967296)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(programs.SRC))

    chosen = names if args.workload == "all" else [args.workload]
    print("host: " + json.dumps(host_record(chosen, args.seed), sort_keys=True))
    trace = bool(args.trace)
    outcomes = {}
    for name in chosen:
        outcomes[name] = run_workload(name, args.seed, args.seconds, trace)
        report(name, outcomes[name], trace)

    wanted = [m[0] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
    units = {m[0]: m[1] for m in spec.PER_LAYER + [e[:2] for e in spec.END_TO_END]}

    def metric(outcome, name):
        return {"value": outcome.metrics[name], "unit": units[name]}

    if len(chosen) == 1:
        metrics = {name: metric(outcomes[chosen[0]], name) for name in wanted}
    else:
        metrics = {f"{workload}.{name}": metric(outcome, name)
                   for workload, outcome in outcomes.items() for name in wanted}
    print(json.dumps({
        "correct": all(o.correct for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
