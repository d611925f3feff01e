"""The benchmark's tracer names real functions.

``perfbench/tracer.py`` wraps the layer functions listed in its
``LAYERS`` by module and attribute name.  A rename in ``src/`` would
only surface when ``perfbench/run.py --trace 1`` runs; this test
resolves every name statically and installs nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_name_resolves():
    layers = _layers()
    assert layers
    missing = []
    for module_name, path, _span, _options in layers:
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = inspect.getattr_static(owner, part)
        except AttributeError:
            missing.append(f"{module_name}:{path}")
            continue
        if not callable(owner):
            missing.append(f"{module_name}:{path} (not callable)")
    assert missing == [], f"perfbench/tracer.py names that no longer exist: {missing}"
