"""Ground-truth string matching over captured traffic.

The controlled-experiment half of §3.2's detection methodology: because
every piece of PII on the test device is known, the matcher can search
each request for every encoded variant of every known value.  GPS
coordinates get special treatment — services transmit them "with
arbitrary precision", so numeric tokens are compared within a tolerance
instead of textually.

Searching is the pipeline's hot path, so matching probes one flat
literal set per ground-truth set (see :mod:`repro.pii.automaton`): a
C-speed substring test per lowered form, cheap to build because every
session's ground truth differs.  A per-matcher memo of scanned texts
and requests sits above it — captured traffic repeats header and
cookie values thousands of times.  The plain per-form scan lives on
only as the reference in :mod:`repro.qa.reference`; the equivalence
tests and the QA oracle assert both return identical matches (§3.2
fidelity: same matches, faster search).

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
from typing import Optional

from ..net.flow import CapturedRequest
from . import encodings
from .automaton import FormSet
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
        self._forms_lowered = FormSet(low for _, low, *_ in self._plan)
        self._coord_probes = tuple(
            sorted({probe for coord, _ in self._coords for probe in _coord_probes(coord)})
        )
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
        """One probe per lowered form, then confirm rare candidates."""
        found: dict = {}
        lowered = text.lower()
        candidates = self._forms_lowered.find_all(lowered)
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
        if not any(map(text.__contains__, self._coord_probes)):
            # No token near a known coordinate can occur; skip the regex.
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

    def match_request(self, request: CapturedRequest, parsed: Optional[tuple] = None) -> list:
        """Scan a captured request, attributing hits to structured keys.

        Structure-attributed matches replace their text-scan twins, so a
        value found in the query string reports ``source="query"`` and
        the parameter name rather than a bare text hit.

        Results are memoized per request content — traces repeat beacon
        and heartbeat requests heavily, and the matches are pure
        functions of (url, headers, body).  ``parsed`` is the request's
        :func:`repro.pii.recon.parse_request` pair when the caller
        already has it; otherwise a memo miss extracts the fields here.
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
        fields = parsed[1] if parsed is not None else extract_fields(request)
        for field in fields:
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


# One matcher per distinct ground-truth set.  Ground truth is per
# session (email, username and password are per service), and building
# a matcher is cheap, so the cache pays when one record is scanned
# twice: ``label_record`` and then ``analyze_session`` of a ReCon
# training record share a matcher, and the second pass hits its memos.
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


def _coord_probes(coord: float) -> set:
    """``"<n>."`` for each integer part ``n`` that a coordinate token
    within :data:`GPS_TOLERANCE` of ``coord`` can carry.

    A token's digits before the dot, leading zeros dropped, end with
    ``n``, so the text holds ``"<n>."`` too.  The interval is widened
    to twice the tolerance so float rounding at its ends drops nothing.
    """
    low, high = coord - 2 * GPS_TOLERANCE, coord + 2 * GPS_TOLERANCE
    nearest = 0.0 if low <= 0.0 <= high else min(abs(low), abs(high))
    return {f"{n}." for n in range(int(nearest), int(max(abs(low), abs(high))) + 1)}


def _looks_like_coordinate(value: str) -> bool:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return False
    return "." in value and -180.0 <= number <= 180.0
