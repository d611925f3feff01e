"""Shared fixtures.

``mini_study`` runs the pipeline over a 6-service cross-section once per
session; analysis-level tests share it.  ``echo_world`` provides a tiny
network with a single echo server for transport/proxy tests.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pipeline import run_study
from repro.http.message import Response
from repro.http.transport import Network
from repro.net.clock import SimClock
from repro.proxy.meddle import InterceptionProxy
from repro.services.catalog import build_catalog
from repro.tls.handshake import ServerTlsProfile

MINI_SLUGS = ("weather", "yelp", "grubhub", "cnn", "priceline", "netflix")


@pytest.fixture
def rng():
    return random.Random(42)


@pytest.fixture(autouse=True)
def _hermetic_caches():
    """Reset module-level memo caches after every test.

    The fast-path engines memoize aggressively (matcher automata,
    decoded bodies, cookie parses, filter verdicts).  The caches are
    content-keyed, so they cannot change *results* — but a test that
    asserts on cache behaviour, or one that monkeypatches something a
    cached value baked in, must not see another test's entries.
    """
    yield
    reset_caches()


def reset_caches() -> None:
    """Empty every module-level memo under ``repro``.  A new cache must
    be added here; ``tests/test_caches.py`` fails until it is."""
    from repro.core import pipeline
    from repro.http import body, cookies, url
    from repro.pii import encodings, matcher, structure
    from repro.services import webtracker
    from repro.trackerdb import easylist, psl

    matcher._MATCHER_CACHE.clear()
    pipeline._CATEGORIZER_CACHE.clear()
    body._DECODE_CACHE.clear()
    cookies._COOKIE_PARSE_CACHE.clear()
    url._ENCODE_CACHE.clear()
    url._ENCODE_QUERY_CACHE.clear()
    url._QUERY_CACHE.clear()
    url._PARSE_CACHE.clear()
    structure._INTERESTING_MEMO.clear()
    webtracker._BLOB_CACHE.clear()
    encodings._variant_items.cache_clear()
    psl.same_party.cache_clear()
    psl.domain_key.cache_clear()
    if easylist._compiled is not None:
        easylist._compiled._verdicts.clear()


class EchoHandler:
    """Returns a JSON echo of the request; used across transport tests."""

    def __init__(self) -> None:
        self.requests = []

    def handle(self, request):
        self.requests.append(request)
        body = f'{{"path": "{request.url.path}", "method": "{request.method}"}}'.encode()
        return Response.build(200, body, "application/json")


@pytest.fixture
def echo_handler():
    return EchoHandler()


@pytest.fixture
def echo_world(echo_handler):
    """(network, clock, proxy) with one echo server at api.example.com."""
    network = Network()
    network.register(
        "api.example.com", echo_handler, tls=ServerTlsProfile.standard("api.example.com")
    )
    network.register(
        "*.cdn.example.com", echo_handler, tls=ServerTlsProfile.standard("cdn.example.com")
    )
    clock = SimClock()
    proxy = InterceptionProxy(network, clock)
    return network, clock, proxy


@pytest.fixture(scope="session")
def mini_catalog():
    by_slug = {spec.slug: spec for spec in build_catalog()}
    return [by_slug[slug] for slug in MINI_SLUGS]


@pytest.fixture(scope="session")
def mini_study(mini_catalog):
    """A small but complete study (app+web, both OSes, ReCon trained)."""
    return run_study(services=mini_catalog, seed=2016, train_recon=True)


@pytest.fixture(scope="session")
def full_catalog():
    return build_catalog()
