"""Multi-pattern literal search as a flat set of C-speed substring probes.

The ground-truth matcher needs to answer, per captured request, "which of
the ~10² encoded PII forms occur in this text?".  :class:`FormSet`
answers it with one ``str.__contains__`` probe per form, run by
``filter`` so the loop stays in C.  Each probe is CPython's fast
substring search, so the whole question costs about as much as
screening the text by one prefix shingle per form would.

Building one is a partition of the pattern list, with no per-character
state.  That matters because every session carries its own ground
truth (email, username and password are per service), so a matcher is
built per session and scanned only over that session's traffic.  An
Aho–Corasick trie of the same patterns holds ~4,400 dict nodes and
costs more to build than every scan it would serve.

Long pure-hex patterns (hash digests, the bulk of every ground-truth
set) and long pure-digit patterns (IMEI-style identifiers) are probed
only when one regex finds a run of their character class in the text:
any occurrence of such a pattern is also such a run, so a miss is an
exact negative, and most texts carry no run at all.
"""

from __future__ import annotations

import re
from typing import Iterable, Tuple

# Every class pattern (32+ hex chars, or 15+ digits) contains a 15-char
# hex run, so a text without one holds none of them.  One charset branch
# scans about twice as fast as the exact two-branch alternation, and on
# captured traffic it gates the same texts.
_CLASS_RE = re.compile(r"[0-9a-f]{15}")
_HEX_CHARS = frozenset("0123456789abcdef")
_DIGIT_CHARS = frozenset("0123456789")


def _is_class_pattern(pattern: str) -> bool:
    return (len(pattern) >= 32 and _HEX_CHARS.issuperset(pattern)) or (
        len(pattern) >= 15 and _DIGIT_CHARS.issuperset(pattern)
    )


class FormSet:
    """Literal pattern set built once, scanned many times.

    ``find_all(text)`` returns the set of distinct patterns occurring in
    ``text``, overlapping occurrences included (the boolean-per-pattern
    semantics the matcher needs).  Matching is exact (case-sensitive);
    callers that want case-insensitive search pass lowered patterns and
    lowered text.
    """

    def __init__(self, patterns: Iterable[str]) -> None:
        # Deduplicate, preserve insertion order, drop empties.
        self.patterns: Tuple[str, ...] = tuple(p for p in dict.fromkeys(patterns) if p)
        self._plain = tuple(p for p in self.patterns if not _is_class_pattern(p))
        self._classed = tuple(p for p in self.patterns if _is_class_pattern(p))

    def __len__(self) -> int:
        return len(self.patterns)

    def find_all(self, text: str) -> set:
        """Distinct patterns occurring anywhere in ``text``."""
        found = set(filter(text.__contains__, self._plain))
        if self._classed and _CLASS_RE.search(text):
            found.update(filter(text.__contains__, self._classed))
        return found
