"""Ground-truth string matching over captured traffic.

The controlled-experiment half of §3.2's detection methodology: because
every piece of PII on the test device is known, the matcher can search
each request for every encoded variant of every known value.  GPS
coordinates get special treatment — services transmit them "with
arbitrary precision", so numeric tokens are compared within a tolerance
instead of textually.

Searching is the pipeline's hot path, so the default implementation is a
single-pass multi-pattern scan over an Aho–Corasick automaton built once
per ground-truth set (see :mod:`repro.pii.automaton`), with a per-matcher
memo of scanned texts — captured traffic repeats header and cookie
values thousands of times.  The original per-form scan survives only
as the reference in :mod:`repro.qa.reference`; the equivalence tests
and the QA oracle assert both return identical matches (§3.2 fidelity:
same matches, faster search).

Case handling is explicit: every form is searched case-insensitively
(hosts uppercase MACs, lowercase e-mails, etc.), *except* that the pure
case-variant encodings — ``uppercase`` always, and ``identity`` when a
distinct ``lowercase`` form of the same value is registered — match
case-sensitively only.  This keeps one occurrence from being reported
once per case variant (the seed double-counted ``"john"`` as both an
identity and a lowercase hit) while preserving recall: the
case-insensitive representative of each value always fires.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..net.flow import CapturedRequest
from . import encodings
from .automaton import AhoCorasick
from .structure import extract_fields, searchable_text
from .types import PiiType

# A coordinate token: optional sign, digits, a dot, 2+ decimals.
_COORD_RE = re.compile(r"-?\d{1,3}\.\d{2,}")
GPS_TOLERANCE = 0.02

# Forms whose hit is decided case-insensitively vs. case-sensitively.
_CI = "ci"
_CS = "cs"

# Memo bound: one entry per distinct scanned text.  Traces repeat texts
# heavily (cookies, user-agents, beacon bodies); the cap only exists to
# bound pathological streams of unique texts.
_MEMO_MAX = 65536


@dataclass(frozen=True)
class PiiMatch:
    """One detected occurrence of a ground-truth value in a request."""

    pii_type: PiiType
    value: str  # the ground-truth value (not the encoded form)
    encoding: str
    source: str  # structure source, or "text" for raw scans
    key: str = ""


class GroundTruthMatcher:
    """Searches requests for known PII values under common encodings."""

    def __init__(self, ground_truth: dict, include_hashes: bool = True) -> None:
        """``ground_truth`` maps :class:`PiiType` to lists of raw values."""
        self._forms: dict = {}  # encoded form -> (PiiType, value, encoding)
        self._digit_forms: list = []  # (compiled regex, PiiType, value, encoding)
        self._coords: list = []  # (float value, raw string) for LOCATION
        has_lower: set = set()  # (PiiType, value) with a distinct LOWER form
        for pii_type, values in ground_truth.items():
            for value in values:
                if pii_type == PiiType.LOCATION and _looks_like_coordinate(value):
                    self._coords.append((float(value), value))
                    continue
                for form, encoding in encodings.variants(
                    value, include_hashes=include_hashes
                ).items():
                    if form.isdigit() and len(form) < 10:
                        # Short digit strings (ZIP codes, short phone
                        # fragments) need digit boundaries or they match
                        # inside random numeric identifiers.
                        pattern = re.compile(rf"(?<!\d){re.escape(form)}(?!\d)")
                        self._digit_forms.append(
                            (form, pattern, pii_type, value, encoding)
                        )
                    else:
                        self._forms.setdefault(form, (pii_type, value, encoding))
                        if encoding == encodings.LOWER:
                            has_lower.add((pii_type, value))

        # Scan plan: (form, lowered form, type, value, encoding, mode),
        # in registration order so this scan and the reference linear
        # scan report matches identically ordered.
        self._plan: list = []
        for form, (pii_type, value, encoding) in self._forms.items():
            if encoding == encodings.UPPER or (
                encoding == encodings.IDENTITY and (pii_type, value) in has_lower
            ):
                mode = _CS
            else:
                mode = _CI
            self._plan.append((form, form.lower(), pii_type, value, encoding, mode))
        self._automaton = AhoCorasick(low for _, low, *_ in self._plan)
        self._memo: dict = {}
        self._request_memo: dict = {}

    def match_text(self, text: str) -> list:
        """Scan free text; returns deduplicated :class:`PiiMatch` list."""
        if len(text) < encodings.MIN_SEARCHABLE_LENGTH:
            # Nothing searchable is this short: forms and digit forms are
            # at least MIN_SEARCHABLE_LENGTH chars, coordinates at least
            # four ("0.00").
            return []
        cached = self._memo.get(text)
        if cached is None:
            if len(self._memo) >= _MEMO_MAX:
                self._memo.clear()
            cached = self._memo[text] = tuple(self._scan(text))
        return list(cached)

    def _scan(self, text: str) -> list:
        """One automaton pass, then confirm rare candidates."""
        found: dict = {}
        lowered = text.lower()
        candidates = self._automaton.find_all(lowered)
        if candidates:
            for form, low, pii_type, value, encoding, mode in self._plan:
                if low not in candidates:
                    continue
                if mode == _CS and form not in text:
                    continue
                found[(pii_type, value, encoding)] = PiiMatch(
                    pii_type=pii_type, value=value, encoding=encoding, source="text"
                )
        self._scan_extras(text, found)
        return list(found.values())

    def _scan_extras(self, text: str, found: dict) -> None:
        """Digit-boundary and GPS-tolerance cases, shared with the
        reference scan."""
        for form, pattern, pii_type, value, encoding in self._digit_forms:
            # C-speed substring prescreen; the regex only confirms the
            # digit boundaries once the literal is known to occur.
            if form in text and pattern.search(text):
                found[(pii_type, value, encoding)] = PiiMatch(
                    pii_type=pii_type, value=value, encoding=encoding, source="text"
                )
        if not self._coords or "." not in text:
            # Every coordinate token contains a dot; skip the regex when
            # the text cannot possibly hold one.
            return
        tokens = _COORD_RE.findall(text)
        if not tokens:
            return
        for coord, raw in self._coords:
            for token in tokens:
                try:
                    if abs(float(token) - coord) <= GPS_TOLERANCE:
                        found[(PiiType.LOCATION, raw, "coordinate")] = PiiMatch(
                            pii_type=PiiType.LOCATION,
                            value=raw,
                            encoding="coordinate",
                            source="text",
                        )
                        break
                except ValueError:
                    continue

    def match_request(self, request: CapturedRequest) -> list:
        """Scan a captured request, attributing hits to structured keys.

        Structure-attributed matches replace their text-scan twins, so a
        value found in the query string reports ``source="query"`` and
        the parameter name rather than a bare text hit.

        Results are memoized per request content — traces repeat beacon
        and heartbeat requests heavily, and the matches are pure
        functions of (url, headers, body).
        """
        # Captured headers are already (name, value) tuples, so one
        # outer tuple() makes the list hashable.
        memo_key = (request.url, tuple(request.headers), request.body)
        cached = self._request_memo.get(memo_key)
        if cached is not None:
            return list(cached)
        by_identity = {}
        for match in self.match_text(searchable_text(request)):
            by_identity[(match.pii_type, match.value, match.encoding)] = match
        for field in extract_fields(request):
            for match in self.match_text(field.value):
                key = (match.pii_type, match.value, match.encoding)
                by_identity[key] = PiiMatch(
                    pii_type=match.pii_type,
                    value=match.value,
                    encoding=match.encoding,
                    source=field.source,
                    key=field.key,
                )
        matches = list(by_identity.values())
        if len(self._request_memo) >= _MEMO_MAX:
            self._request_memo.clear()
        self._request_memo[memo_key] = tuple(matches)
        return matches

    def types_in_request(self, request: CapturedRequest) -> set:
        """Convenience: the set of PII types present in a request."""
        return {match.pii_type for match in self.match_request(request)}


# One matcher per distinct ground-truth set: construction (hash digests,
# automaton build) dominates per-session cost, and study runs reuse the
# same ground truth across many scans.
_MATCHER_CACHE: dict = {}
_MATCHER_CACHE_MAX = 256


def matcher_for(ground_truth: dict, include_hashes: bool = True) -> GroundTruthMatcher:
    """Cached :class:`GroundTruthMatcher` factory, keyed by content."""
    key = (
        include_hashes,
        tuple(
            sorted(
                (pii_type.value, tuple(values))
                for pii_type, values in ground_truth.items()
            )
        ),
    )
    matcher = _MATCHER_CACHE.get(key)
    if matcher is None:
        if len(_MATCHER_CACHE) >= _MATCHER_CACHE_MAX:
            _MATCHER_CACHE.clear()
        matcher = _MATCHER_CACHE[key] = GroundTruthMatcher(
            ground_truth, include_hashes=include_hashes
        )
    return matcher


def _looks_like_coordinate(value: str) -> bool:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return False
    return "." in value and -180.0 <= number <= 180.0
