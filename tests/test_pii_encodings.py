"""Tests for PII encodings, structure extraction, and the matcher."""

import base64
import hashlib

import pytest
from hypothesis import example, given, strategies as st

from repro.net.flow import CapturedRequest
from repro.pii import encodings
from repro.pii.matcher import GroundTruthMatcher
from repro.pii.structure import BODY, COOKIE, HEADER, QUERY, extract_fields, searchable_text
from repro.pii.types import PiiType


class TestEncodings:
    def test_identity_and_case_variants(self):
        forms = encodings.variants("MyValue42", include_hashes=False)
        assert forms["MyValue42"] == encodings.IDENTITY
        assert forms["myvalue42"] == encodings.LOWER
        assert forms["MYVALUE42"] == encodings.UPPER

    def test_base64_and_hex(self):
        forms = encodings.variants("hello@x.com", include_hashes=False)
        assert base64.b64encode(b"hello@x.com").decode() in forms
        assert b"hello@x.com".hex() in forms

    def test_hashes_present(self):
        value = "device-123"
        forms = encodings.variants(value)
        assert hashlib.md5(value.encode()).hexdigest() in forms
        assert hashlib.sha1(value.encode()).hexdigest() in forms
        assert hashlib.sha256(value.encode()).hexdigest() in forms

    def test_hash_of_lowercased_value_included(self):
        value = "AA:BB:CC:DD:EE:FF"
        forms = encodings.variants(value)
        assert hashlib.md5(value.lower().encode()).hexdigest() in forms

    def test_short_forms_dropped(self):
        forms = encodings.variants("ab", include_hashes=False)
        assert "ab" not in forms  # too short to search safely

    def test_digits_only_variant_for_formatted_phone(self):
        forms = encodings.variants("617-555-0199", include_hashes=False)
        assert forms.get("6175550199") == encodings.DIGITS_ONLY

    def test_encode_value_named(self):
        assert encodings.encode_value("x y", encodings.URLENCODED) == "x%20y"
        with pytest.raises(ValueError):
            encodings.encode_value("x", "rot13")

    def test_none_value(self):
        assert encodings.variants(None) == {}

    @given(st.text(min_size=4, max_size=20))
    def test_every_variant_maps_to_named_encoding(self, value):
        for form, name in encodings.variants(value).items():
            assert isinstance(name, str) and name
            assert len(form) >= encodings.MIN_SEARCHABLE_LENGTH


class TestStructure:
    def _request(self):
        return CapturedRequest(
            method="POST",
            url="https://api.e.com/v2/track?uid=abc123&lat=42.36",
            headers=[
                ("Host", "api.e.com"),
                ("Cookie", "sid=s1; uid=u2"),
                ("X-Device-Id", "dev9"),
                ("User-Agent", "ua/1"),
                ("Accept", "*/*"),
                ("Content-Type", "application/json"),
            ],
            body=b'{"user": {"email": "a@b.c"}}',
        )

    def test_query_fields(self):
        fields = extract_fields(self._request())
        assert any(f.source == QUERY and f.key == "uid" and f.value == "abc123" for f in fields)

    def test_body_json_flattened(self):
        fields = extract_fields(self._request())
        assert any(f.source == BODY and f.key == "user.email" and f.value == "a@b.c" for f in fields)

    def test_cookie_fields(self):
        fields = extract_fields(self._request())
        cookies = [f for f in fields if f.source == COOKIE]
        assert ("sid", "s1") in [(f.key, f.value) for f in cookies]

    def test_interesting_headers_only(self):
        fields = extract_fields(self._request())
        header_keys = {f.key for f in fields if f.source == HEADER}
        assert "x-device-id" in header_keys
        assert "user-agent" in header_keys
        assert "accept" not in header_keys

    def test_opaque_body_becomes_raw_field(self):
        request = CapturedRequest("POST", "https://e.com/", headers=[("Content-Type", "text/plain")], body=b"free text")
        fields = extract_fields(request)
        assert any(f.key == "_raw" and "free text" in f.value for f in fields)

    def test_searchable_text_includes_all_parts(self):
        text = searchable_text(self._request())
        assert "uid=abc123" in text
        assert "a@b.c" in text
        assert "X-Device-Id: dev9" in text

    def test_bad_url_no_crash(self):
        # A schemeless target parses as a relative path; nothing crashes
        # and only path-segment fields come back.
        request = CapturedRequest("GET", "not-a-url", headers=[], body=b"")
        fields = extract_fields(request)
        assert all(f.source == "path" for f in fields)


class TestMatcher:
    TRUTH = {
        PiiType.EMAIL: ["signup1234@testmail.example"],
        PiiType.UNIQUE_ID: ["358240051234567", "aa:bb:cc:dd:ee:ff"],
        PiiType.LOCATION: ["42.361500", "-71.058900", "02115"],
        PiiType.PASSWORD: ["pwSecretXYZ"],
    }

    def _matcher(self):
        return GroundTruthMatcher(self.TRUTH)

    def _request(self, url, body=b"", content_type=""):
        headers = [("Host", "x.example")]
        if content_type:
            headers.append(("Content-Type", content_type))
        return CapturedRequest("POST" if body else "GET", url, headers=headers, body=body)

    def test_plain_match_in_query(self):
        matches = self._matcher().match_request(
            self._request("https://t.example/c?email=signup1234%40testmail.example")
        )
        types = {m.pii_type for m in matches}
        assert PiiType.EMAIL in types

    def test_match_attributed_to_key(self):
        matches = self._matcher().match_request(
            self._request("https://t.example/c?em=signup1234@testmail.example")
        )
        email = next(m for m in matches if m.pii_type == PiiType.EMAIL)
        assert email.key == "em"
        assert email.source == QUERY

    def test_md5_hashed_email_detected(self):
        digest = hashlib.md5(b"signup1234@testmail.example").hexdigest()
        matches = self._matcher().match_request(self._request(f"https://t.example/c?h={digest}"))
        email = next(m for m in matches if m.pii_type == PiiType.EMAIL)
        assert email.encoding == encodings.MD5

    def test_base64_imei_detected(self):
        blob = base64.b64encode(b"358240051234567").decode()
        matches = self._matcher().match_request(self._request(f"https://t.example/c?d={blob}"))
        assert any(m.pii_type == PiiType.UNIQUE_ID and m.encoding == encodings.BASE64 for m in matches)

    def test_uppercased_mac_detected(self):
        matches = self._matcher().match_text("mac=AA:BB:CC:DD:EE:FF")
        assert any(m.pii_type == PiiType.UNIQUE_ID for m in matches)

    def test_gps_matched_within_tolerance(self):
        matches = self._matcher().match_text("lat=42.3622&lon=-71.0581")
        assert any(m.pii_type == PiiType.LOCATION and m.encoding == "coordinate" for m in matches)

    def test_gps_not_matched_outside_tolerance(self):
        matches = self._matcher().match_text("lat=42.9999&lon=-70.0000")
        assert not any(m.encoding == "coordinate" for m in matches)

    @given(
        coord=st.floats(min_value=-180.0, max_value=180.0),
        offset=st.floats(min_value=-0.05, max_value=0.05),
        decimals=st.integers(min_value=2, max_value=6),
        pad=st.sampled_from(["", "0", "00", "1", "9", "-", "x", "."]),
    )
    @example(coord=42.985, offset=0.015, decimals=2, pad="")  # "43.00" across the integer
    @example(coord=-42.985, offset=-0.015, decimals=2, pad="")
    @example(coord=7.5, offset=0.0, decimals=2, pad="00")  # "007.50"
    def test_gps_prescreen_never_drops_a_token(self, coord, offset, decimals, pad):
        # Tokens near a known coordinate, with prefixes that change how
        # the token regex splits them (leading zeros, extra digits, a
        # sign): the matcher's substring prescreen must agree with a
        # plain tolerance check over every regex token.
        from repro.pii.matcher import _COORD_RE, GPS_TOLERANCE

        raw = f"{coord:.6f}"
        text = f"lat={pad}{float(raw) + offset:.{decimals}f}&v=1"
        expected = any(
            abs(float(token) - float(raw)) <= GPS_TOLERANCE for token in _COORD_RE.findall(text)
        )
        matches = GroundTruthMatcher({PiiType.LOCATION: [raw]}).match_text(text)
        assert any(m.encoding == "coordinate" for m in matches) == expected

    def test_zip_needs_digit_boundaries(self):
        # "02115" buried inside a longer number must not match.
        assert not any(
            m.pii_type == PiiType.LOCATION
            for m in self._matcher().match_text("id=90211567")
        )
        assert any(
            m.pii_type == PiiType.LOCATION
            for m in self._matcher().match_text("zip=02115&x=1")
        )

    def test_password_in_json_body(self):
        request = self._request(
            "https://api.taplytics.example/e",
            body=b'{"password": "pwSecretXYZ"}',
            content_type="application/json",
        )
        matches = self._matcher().match_request(request)
        password = next(m for m in matches if m.pii_type == PiiType.PASSWORD)
        assert password.key == "password"

    def test_no_false_positive_on_clean_request(self):
        matches = self._matcher().match_request(self._request("https://t.example/c?x=1&y=benign"))
        assert matches == []

    def test_types_in_request_helper(self):
        types = self._matcher().types_in_request(
            self._request("https://t.example/?zip=02115")
        )
        assert types == {PiiType.LOCATION}

    def test_hashes_can_be_disabled(self):
        matcher = GroundTruthMatcher(self.TRUTH, include_hashes=False)
        digest = hashlib.md5(b"signup1234@testmail.example").hexdigest()
        assert matcher.match_text(f"h={digest}") == []
