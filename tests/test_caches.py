"""Global state no test can forget to reset.

Every module-level memo under ``repro`` — a dict named ``*_CACHE`` or
``*_MEMO``, or an ``functools.lru_cache`` — must be emptied by
``tests/conftest.py``'s ``reset_caches``.  Otherwise one test's entries
leak into the next, a latent test-order bug.
"""

from __future__ import annotations

import importlib
import pkgutil
import re

import repro

from .conftest import reset_caches

_CACHE_NAME = re.compile(r"_(CACHE|MEMO)$")


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


def _caches():
    """``(dicts, lru_caches)`` as ``{qualified name: object}`` maps."""
    dicts, lrus = {}, {}
    for module in _modules():
        for name, value in vars(module).items():
            if isinstance(value, dict) and _CACHE_NAME.search(name):
                dicts[f"{module.__name__}.{name}"] = value
            elif hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                if getattr(value, "__module__", None) == module.__name__:
                    lrus[f"{module.__name__}.{name}"] = value
    return dicts, lrus


def test_inventory_is_not_empty():
    """The scan itself works: the known caches are found."""
    dicts, lrus = _caches()
    assert "repro.pii.matcher._MATCHER_CACHE" in dicts
    assert "repro.http.url._PARSE_CACHE" in dicts
    assert "repro.pii.structure._INTERESTING_MEMO" in dicts
    assert "repro.trackerdb.psl.domain_key" in lrus


def test_every_cache_is_reset(monkeypatch):
    dicts, lrus = _caches()
    sentinel = object()
    for cache in dicts.values():
        cache[sentinel] = None
    cleared = set()
    for name, cached in lrus.items():
        monkeypatch.setattr(
            cached,
            "cache_clear",
            lambda name=name, original=cached.cache_clear: (
                cleared.add(name),
                original(),
            ),
            raising=False,
        )
    reset_caches()
    missed = sorted(name for name, cache in dicts.items() if sentinel in cache)
    missed += sorted(set(lrus) - cleared)
    assert missed == [], f"not reset by tests/conftest.py reset_caches: {missed}"
