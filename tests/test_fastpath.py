"""Equivalence and property tests for the fast-path detection engine.

Every fast path in the detection stack is pinned to its original
implementation, kept in :mod:`repro.qa.reference`: the Aho–Corasick
matcher against the per-form scan (``LinearGroundTruthMatcher``), and
the indexed EasyList engine against the whole-list probe
(``match_linear``).  These tests pin the equivalences — the
optimizations must change *how fast* answers arrive, never *which*
answers (§3.2 fidelity: same matches, faster search) — plus the
determinism of the ``workers`` analysis fan-out.
"""

from __future__ import annotations

import string

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pipeline import analyze_dataset, run_study
from repro.experiment.runner import ExperimentRunner
from repro.net.flow import CapturedRequest
from repro.pii.automaton import AhoCorasick
from repro.pii.encodings import encode_value, variants
from repro.pii.matcher import GroundTruthMatcher, matcher_for
from repro.pii.types import PiiType
from repro.qa.reference import LinearGroundTruthMatcher, match_linear
from repro.services.catalog import build_catalog
from repro.services.world import build_world
from repro.trackerdb.easylist import bundled_easylist

# ---------------------------------------------------------------------------
# Automaton unit tests


class TestAhoCorasick:
    def test_overlapping_patterns_all_found(self):
        ac = AhoCorasick(["he", "she", "his", "hers"])
        assert ac.find_all("ushers") == {"he", "she", "hers"}

    def test_iter_matches_reports_overlaps_with_positions(self):
        ac = AhoCorasick(["he", "she", "hers"])
        matches = sorted(ac.iter_matches("ushers"))
        assert matches == [(1, "she"), (2, "he"), (2, "hers")]

    def test_duplicates_and_empties_dropped(self):
        ac = AhoCorasick(["abc", "", "abc", "bc"])
        assert ac.patterns == ("abc", "bc")
        assert len(ac) == 2

    def test_no_hit_returns_empty_set(self):
        ac = AhoCorasick(["needle", "pin"])
        assert ac.find_all("a perfectly ordinary haystack") == set()

    def test_pattern_inside_larger_text(self):
        ac = AhoCorasick(["token=secret"])
        assert ac.find_all("https://x.example/?token=secret&y=1") == {
            "token=secret"
        }

    def test_hex_digest_found_without_individual_shingle(self):
        # 32+ char pure-hex patterns are prescreened as a class, not one
        # shingle each — the class probe must not lose them.
        digest = "d41d8cd98f00b204e9800998ecf8427e"
        ac = AhoCorasick([digest])
        assert ac._shingles == ()  # screened by the class regex alone
        assert ac.find_all(f"uid={digest}&x=1") == {digest}
        assert ac.find_all("uid=none") == set()

    def test_long_digit_run_found_without_individual_shingle(self):
        imei = "358240051234567"
        ac = AhoCorasick([imei])
        assert ac._shingles == ()
        assert ac.find_all(f"imei={imei}") == {imei}
        assert ac.find_all("imei=00000") == set()

    def test_mixed_class_and_plain_patterns(self):
        digest = "a" * 40  # pure hex, sha1-length
        ac = AhoCorasick([digest, "plainword", "1234567890123456"])
        assert ac.find_all(f"x={digest}") == {digest}
        assert ac.find_all("has plainword inside") == {"plainword"}
        assert ac.find_all("n=1234567890123456") == {"1234567890123456"}

    @settings(max_examples=60, deadline=None)
    @given(
        patterns=st.lists(
            st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=12),
            min_size=1,
            max_size=8,
        ),
        text=st.text(alphabet=string.ascii_lowercase + string.digits + ":/?=&.", max_size=120),
    )
    def test_find_all_agrees_with_naive_substring_search(self, patterns, text):
        ac = AhoCorasick(patterns)
        expected = {p for p in ac.patterns if p in text}
        assert ac.find_all(text) == expected


# ---------------------------------------------------------------------------
# Fast matcher vs. the linear reference scan

_GROUND_TRUTH = {
    PiiType.EMAIL: ["signup1234@testmail.example"],
    PiiType.UNIQUE_ID: ["358240051234567", "aa:bb:cc:dd:ee:ff"],
    PiiType.LOCATION: ["42.361500", "-71.058900", "02115"],
    PiiType.NAME: ["Jordan"],
    PiiType.PASSWORD: ["pwSecretXYZ"],
}


def _match_keys(matches):
    return sorted((m.pii_type.value, m.value, m.encoding, m.source, m.key) for m in matches)


pii_values = st.text(
    alphabet=string.ascii_letters + string.digits + "@._-",
    min_size=8,
    max_size=24,
).filter(lambda v: v.strip("._-@") == v and len(set(v)) > 3)


class TestFastSlowMatcherEquivalence:
    def _pair(self, ground_truth):
        return (
            GroundTruthMatcher(ground_truth),
            LinearGroundTruthMatcher(ground_truth),
        )

    def test_identical_on_planted_forms(self):
        fast, slow = self._pair(_GROUND_TRUTH)
        texts = []
        for values in _GROUND_TRUTH.values():
            for value in values:
                for form in variants(value):
                    texts.append(f"https://t.example/c?x={form}&junk=0")
        texts += [
            "plain text with nothing in it",
            "uid=d41d8cd98f00b204e9800998ecf8427e",
            "lat=42.3614&lon=-71.0590",
            "JORDAN went to jordan",
        ]
        for text in texts:
            assert _match_keys(fast.match_text(text)) == _match_keys(
                slow.match_text(text)
            ), text

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        value=pii_values,
        encoding=st.sampled_from(
            ["identity", "base64", "hex", "md5", "sha1", "sha256", "urlencoded"]
        ),
        prefix=st.text(alphabet=string.printable, max_size=30),
        suffix=st.text(alphabet=string.printable, max_size=30),
    )
    def test_identical_on_random_embeddings(self, value, encoding, prefix, suffix):
        fast, slow = self._pair({PiiType.EMAIL: [value]})
        text = prefix + encode_value(value, encoding) + suffix
        assert _match_keys(fast.match_text(text)) == _match_keys(slow.match_text(text))

    @settings(max_examples=40, deadline=None)
    @given(noise=st.text(alphabet=string.ascii_letters + string.digits + "&=?/:.", max_size=80))
    def test_identical_on_noise(self, noise):
        fast, slow = self._pair(_GROUND_TRUTH)
        assert _match_keys(fast.match_text(noise)) == _match_keys(slow.match_text(noise))

    def test_match_request_identical(self):
        fast, slow = self._pair(_GROUND_TRUTH)
        request = CapturedRequest(
            "POST",
            "https://ads.example/collect?email=signup1234%40testmail.example&zip=02115",
            headers=[
                ("Host", "ads.example"),
                ("Cookie", "uid=358240051234567"),
                ("X-Device", "aa:bb:cc:dd:ee:ff"),
            ],
            body=b'{"name": "Jordan", "lat": 42.3615, "password": "pwSecretXYZ"}',
        )
        assert _match_keys(fast.match_request(request)) == _match_keys(
            slow.match_request(request)
        )
        # Memoized second call must answer identically.
        assert _match_keys(fast.match_request(request)) == _match_keys(
            slow.match_request(request)
        )

    def test_memos_keyed_on_every_component(self):
        """Requests and texts that differ in one part only — URL, a header
        name, a header value, the body, letter case — through one memoized
        matcher: every answer equals a fresh unmemoized scan."""
        fast, slow = self._pair(_GROUND_TRUTH)
        url = "https://t.example/c?x=1&email=signup1234%40testmail.example"
        headers = [("Host", "t.example"), ("X-Device", "aa:bb:cc:dd:ee:ff")]
        body = b'{"name": "Jordan"}'
        requests = [
            CapturedRequest("POST", url, headers=headers, body=body),
            CapturedRequest("POST", url + "&zip=02115", headers=headers, body=body),
            CapturedRequest(
                "POST", url, headers=[("Host", "t.example"), ("Cookie", "uid=1")], body=body
            ),
            CapturedRequest(
                "POST",
                url,
                headers=[("Host", "t.example"), ("X-Id", "aa:bb:cc:dd:ee:ff")],
                body=body,
            ),
            CapturedRequest("POST", url, headers=headers, body=b'{"pw": "pwSecretXYZ"}'),
        ]
        for request in requests * 2:
            assert _match_keys(fast.match_request(request)) == _match_keys(
                slow.match_request(request)
            ), request
        for text in ("name=JORDAN&more", "name=Jordan&more", "name=jordan&more") * 2:
            assert _match_keys(fast.match_text(text)) == _match_keys(
                slow.match_text(text)
            ), text


# ---------------------------------------------------------------------------
# Indexed EasyList vs. linear reference


def _probe_urls_for(rule):
    """Synthesize URLs likely to exercise ``rule`` through the index."""
    urls = []
    if rule.anchor_domain:
        urls.append(f"https://{rule.anchor_domain}/x.js")
        urls.append(f"https://sub.{rule.anchor_domain}/pixel?id=1")
    body = rule.raw.lstrip("@").split("$", 1)[0].strip("|")
    cleaned = body.replace("||", "").replace("*", "x").replace("^", "/")
    if cleaned:
        if "://" not in cleaned:
            urls.append(f"https://host.example/{cleaned.lstrip('/')}")
        else:
            urls.append(cleaned)
    return urls


class TestFilterIndexEquivalence:
    def test_every_bundled_rule_agrees_with_linear(self):
        compiled = bundled_easylist()
        contexts = [
            ("", "other"),
            ("news-site.example", "script"),
            ("host.example", "image"),
        ]
        probed = 0
        for rule in compiled.blocking + compiled.exceptions:
            for url in _probe_urls_for(rule):
                for page_host, rtype in contexts:
                    assert compiled.match(url, page_host, rtype) is (
                        match_linear(compiled, url, page_host, rtype)
                    ), (rule.raw, url, page_host, rtype)
                    probed += 1
        assert probed > len(compiled)  # every rule contributed probes

    @settings(max_examples=80, deadline=None)
    @given(
        host=st.from_regex(r"[a-z]{3,10}\.(com|net|example)", fullmatch=True),
        path=st.text(alphabet=string.ascii_lowercase + string.digits + "/-_.", max_size=40),
        page_host=st.sampled_from(["", "news-site.example", "weather-now.example"]),
        rtype=st.sampled_from(["script", "image", "xmlhttprequest", "other"]),
    )
    def test_random_urls_agree_with_linear(self, host, path, page_host, rtype):
        compiled = bundled_easylist()
        url = f"https://{host}/{path.lstrip('/')}"
        assert compiled.match(url, page_host, rtype) is match_linear(
            compiled, url, page_host, rtype
        )

    def test_verdict_memo_stable_across_repeats(self):
        compiled = bundled_easylist()
        url = "https://metrics.doubleclick.example/pixel?id=9"
        first = compiled.match(url, "news-site.example", "image")
        for _ in range(3):
            assert compiled.match(url, "news-site.example", "image") is first


# ---------------------------------------------------------------------------
# Parallel analysis determinism + end-to-end fast/slow agreement


def _study_fingerprint(study):
    out = []
    for result in study.services:
        for (os_name, medium), analysis in sorted(result.sessions.items()):
            out.append(
                (
                    result.spec.slug,
                    os_name,
                    medium,
                    analysis.flows_total,
                    sorted(analysis.aa_domains),
                    analysis.aa_flows,
                    analysis.aa_bytes,
                    sorted(analysis.third_party_domains),
                    sorted(
                        (leak.pii_type.value, leak.domain, leak.category)
                        for leak in analysis.leaks
                    ),
                    analysis.recon_false_positives,
                )
            )
    return out


class TestParallelAnalysis:
    def _dataset(self):
        specs = [s for s in build_catalog() if s.slug in ("weather", "cnn")]
        world = build_world(specs)
        runner = ExperimentRunner(world, seed=2016)
        return runner.run_study(specs, duration=40.0), specs

    def test_workers_do_not_change_results(self):
        dataset, specs = self._dataset()
        serial = analyze_dataset(dataset, specs, train_recon=False, workers=1)
        threaded = analyze_dataset(dataset, specs, train_recon=False, workers=4)
        assert _study_fingerprint(serial) == _study_fingerprint(threaded)

    def test_run_study_accepts_workers(self):
        specs = [s for s in build_catalog() if s.slug == "weather"]
        study = run_study(
            services=specs, seed=2016, duration=40.0, train_recon=False, workers=2
        )
        assert _study_fingerprint(study)

    def test_collected_traffic_fast_slow_identical(self):
        """End to end: every captured request matches identically under
        the automaton fast path and the per-form reference scan."""
        dataset, _ = self._dataset()
        checked = 0
        for record in dataset:
            fast = matcher_for(record.ground_truth)
            slow = LinearGroundTruthMatcher(record.ground_truth)
            for flow in record.trace:
                if not flow.decrypted:
                    continue
                for txn in flow.transactions:
                    assert _match_keys(fast.match_request(txn.request)) == _match_keys(
                        slow.match_request(txn.request)
                    )
                    checked += 1
        assert checked > 50
