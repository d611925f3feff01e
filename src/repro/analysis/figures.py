"""Figure generators: the six panels of Figure 1.

Each generator returns a :class:`FigureSeries` per OS containing the raw
per-service values and the empirical CDF/PDF points exactly as plotted:

- 1a: CDF of (app − web) unique A&A domains contacted
- 1b: CDF of (app − web) flows to A&A domains
- 1c: CDF of (app − web) megabytes to A&A domains
- 1d: CDF of (app − web) domains receiving PII
- 1e: PDF of (app − web) distinct leaked identifiers
- 1f: CDF of the Jaccard index of leaked identifier sets
"""

from __future__ import annotations

from dataclasses import dataclass

from . import columnar
from .stats import cdf_at, cdf_points, pdf_histogram

OSES = ("android", "ios")


@dataclass
class FigureSeries:
    """One OS curve of one figure panel."""

    figure: str
    os_name: str
    values: list
    points: list  # (x, percent) pairs — CDF steps or PDF bins
    kind: str = "cdf"

    def percent_leq(self, x: float) -> float:
        """CDF convenience: percent of services with value <= x."""
        if self.kind != "cdf":
            raise ValueError("percent_leq only applies to CDF series")
        return cdf_at(self.values, x)

    @property
    def n(self) -> int:
        return len(self.values)


def _jaccard(diff):
    if diff.app_leak_types or diff.web_leak_types:
        return diff.jaccard_identifiers
    return None


#: Panel id -> (kind, per-diff value; ``None`` leaves the service out).
_PANELS = {
    "1a": ("cdf", lambda d: d.aa_domains),
    "1b": ("cdf", lambda d: d.aa_flows),
    "1c": ("cdf", lambda d: d.aa_megabytes),
    "1d": ("cdf", lambda d: d.leak_domains),
    "1e": ("pdf", lambda d: d.leak_identifiers),
    "1f": ("cdf", _jaccard),
}


def _panel_from_diffs(figure: str, diffs_by_os: dict) -> dict:
    """One panel's series per OS from per-OS
    :class:`~repro.core.compare.CellDiff` lists (shared with the
    row-wise reference in :mod:`repro.qa.reference`)."""
    kind, extract = _PANELS[figure]
    points = cdf_points if kind == "cdf" else pdf_histogram
    out = {}
    for os_name in OSES:
        values = [extract(d) for d in diffs_by_os[os_name]]
        values = [v for v in values if v is not None]
        out[os_name] = FigureSeries(
            figure=figure,
            os_name=os_name,
            values=values,
            points=points(values),
            kind=kind,
        )
    return out


def _panel(figure: str, study) -> dict:
    agg = columnar.ensure_aggregate(study)
    return _panel_from_diffs(
        figure, {os_name: columnar.aggregate_diffs(agg, os_name) for os_name in OSES}
    )


def fig1a(study) -> dict:
    """(App − Web) A&A domains contacted, per OS."""
    return _panel("1a", study)


def fig1b(study) -> dict:
    """(App − Web) flows to A&A domains, per OS."""
    return _panel("1b", study)


def fig1c(study) -> dict:
    """(App − Web) MB of traffic to A&A domains, per OS."""
    return _panel("1c", study)


def fig1d(study) -> dict:
    """(App − Web) count of domains receiving PII, per OS."""
    return _panel("1d", study)


def fig1e(study) -> dict:
    """PDF of (App − Web) distinct leaked identifier counts, per OS."""
    return _panel("1e", study)


def fig1f(study) -> dict:
    """CDF of the Jaccard index of leaked identifier sets, per OS.

    Services with no leaks on either medium (Jaccard of two empty sets)
    are excluded, matching a plot of observed leak overlap.
    """
    return _panel("1f", study)


ALL_FIGURES = {
    "1a": fig1a,
    "1b": fig1b,
    "1c": fig1c,
    "1d": fig1d,
    "1e": fig1e,
    "1f": fig1f,
}


def render_series(series: FigureSeries, width: int = 60) -> str:
    """ASCII rendering of one curve, for the bench harness output."""
    lines = [f"Figure {series.figure} ({series.os_name}, n={series.n}, {series.kind})"]
    if not series.points:
        lines.append("  (no data)")
        return "\n".join(lines)
    for x, pct in series.points:
        bar = "#" * int(pct / 100.0 * width)
        if isinstance(x, float):
            lines.append(f"  {x:10.2f} {pct:6.1f}% {bar}")
        else:
            lines.append(f"  {x:10d} {pct:6.1f}% {bar}")
    return "\n".join(lines)
