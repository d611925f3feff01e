"""Run one ``repro`` command with the layer wrappers installed.

    PYTHONPATH=src python3 perfbench/harness.py TRACE.json -- run --services cnn

The command runs in this process exactly as ``python3 -m repro.cli``
would run it; when it returns (for ``serve``, after SIGTERM has drained
it) the recorded spans and counts are written to ``TRACE.json``.
"""

from __future__ import annotations

import sys

from tracer import Tracer, instrument


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: harness.py TRACE.json -- <repro arguments>")
    tracer = Tracer()
    instrument(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
