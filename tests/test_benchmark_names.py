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


def test_traced_methods_are_wrapped_once():
    """``instrument()`` wraps ``Class.method`` on each class it names.
    A method that class inherits from another class it also names would
    be wrapped twice, so each call would count twice (``par.map.calls``).
    So each traced method lives on its own class, or on a base class
    the tracer does not name (``Executor`` for the executor backends)."""
    layers = _layers()
    traced = {}
    for module_name, path, _span, _options in layers:
        parts = path.split(".")
        if len(parts) == 2:
            traced.setdefault((module_name, parts[1]), set()).add(parts[0])
    shared = []
    for (module_name, method), classes in traced.items():
        module = importlib.import_module(module_name)
        for name in classes:
            klass = getattr(module, name)
            if method in vars(klass):
                continue
            for base in klass.__mro__[1:]:
                if base.__name__ in classes:
                    shared.append(f"{module_name}:{name}.{method} (from {base.__name__})")
    assert shared == [], f"traced methods wrapped twice: {shared}"
