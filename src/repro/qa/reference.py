"""Reference implementations the product's fast paths are pinned against.

The product keeps one path per stage: the columnar aggregation engine
(:mod:`repro.analysis.columnar`), the literal-set PII matcher and the
indexed EasyList engine.  The plain implementations they replaced live
here, used only by the QA oracle, the tests and the benchmarks as the
expected side of every equivalence pin:

- Tables 1–3, the Figure 1 panels, tracker reach and drift computed by
  walking the ``SessionAnalysis``/``LeakRecord`` object graph.  Only
  the row builders are shared with the product, so a wrong reduction
  in the columnar engine shows up as a byte difference;
- :func:`study_aggregate`, the same walk folded straight into a
  :class:`~repro.analysis.columnar.StudyAggregate` — no codec, no
  kernel — and :class:`RowsCampaignContext`, whose per-user fold does
  the same for campaigns;
- :class:`LinearGroundTruthMatcher`, the per-form substring scan;
- :func:`match_linear`, the whole-list EasyList probe;
- :class:`ReferenceDecisionTree`, the ReCon trainer that counts every
  split by a pass over the node's samples, and
  :class:`ReferenceReconClassifier`, which fits its trees with it.

``python -m repro.qa.reference analyze DATASET`` prints the report
``repro analyze DATASET`` prints, computed through this module: the
row-wise tables over sessions detected by :class:`LinearGroundTruthMatcher`.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, defaultdict
from functools import partial

from ..analysis.columnar import CellAggregate, ServiceMeta, StudyAggregate
from ..analysis.figures import _PANELS, OSES, _panel_from_diffs
from ..analysis.longitudinal import _drift, _drift_summary
from ..analysis.reach import TrackerReach, _reach_summary, _reach_table
from ..analysis.tables import (
    CATEGORY_ORDER,
    _finish_table1_row,
    _table2_rows,
    _table3_buckets,
    _table3_rows,
    render_table1,
    render_table3,
)
from ..campaign.engine import CampaignContext
from ..core.compare import study_diffs
from ..experiment.dataset import APP, WEB
from ..pii import encodings
from ..pii.matcher import _CS, GroundTruthMatcher, PiiMatch
from ..pii.recon import DecisionTree, ReconClassifier, _entropy, _Node
from ..trackerdb.abpfilter import _host_of, same_party
from ..trackerdb.easylist import bundled_easylist
from ..trackerdb.psl import domain_key

# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def _fold(study: StudyAggregate, metas: list, cells: list) -> None:
    """Fold ``(order, analysis)`` pairs into ``study`` object by object
    (the same groupings and Moments updates the columnar kernel makes)."""
    for meta in metas:
        mine = study.services.get(meta.slug)
        if mine is None or meta.order < mine.order:
            study.services[meta.slug] = meta
    moments = study.moments
    for order, analysis in cells:
        cell = CellAggregate(analysis.service, analysis.os_name, analysis.medium, order)
        cell.flows_total = analysis.flows_total
        cell.aa_flows = analysis.aa_flows
        cell.aa_bytes = analysis.aa_bytes
        cell.aa_domains = set(analysis.aa_domains)
        groups: dict = {}
        for leak in analysis.leaks:
            key = (
                leak.observation.domain,
                leak.observation.hostname,
                leak.observation.pii_type,
            )
            groups[key] = groups.get(key, 0) + 1
        cell.leak_groups = groups
        existing = study.cells.get(cell.key)
        if existing is None:
            study.cells[cell.key] = cell
        else:
            existing.merge(cell)
        moments["flows_total"].add(cell.flows_total)
        moments["aa_flows"].add(cell.aa_flows)
        moments["aa_bytes"].add(cell.aa_bytes)
        moments["leak_events"].add(len(analysis.leaks))


def study_aggregate(study) -> StudyAggregate:
    """A study's aggregate, built without the columnar codec or kernel."""
    metas = [
        ServiceMeta.from_spec(result.spec, index)
        for index, result in enumerate(study.services)
    ]
    analyses = [
        analysis for result in study.services for analysis in result.sessions.values()
    ]
    agg = StudyAggregate()
    _fold(agg, metas, list(enumerate(analyses)))
    return agg


class RowsCampaignContext(CampaignContext):
    """A campaign context whose per-user fold walks objects instead of
    encoding a columnar batch."""

    def _fold_cells(self, study: StudyAggregate, cells: list) -> None:
        _fold(study, self.metas, cells)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def _medium_union(result, medium: str, os_name, attribute: str) -> set:
    out: set = set()
    for (osn, med), analysis in result.sessions.items():
        if med == medium and (os_name is None or osn == os_name):
            out |= getattr(analysis, attribute)
    return out


def _row(group: str, medium: str, results: list, os_name: str = None):
    leak_domain_counts = []
    identifiers: set = set()
    leaking = 0
    for result in results:
        types = _medium_union(result, medium, os_name, "leak_types")
        if types:
            leaking += 1
            leak_domain_counts.append(
                len(_medium_union(result, medium, os_name, "leak_domains"))
            )
            identifiers |= types
    return _finish_table1_row(
        group,
        medium,
        len(results),
        sum(r.spec.rank for r in results),
        leaking,
        leak_domain_counts,
        identifiers,
    )


def table1(study) -> list:
    rows = []
    all_results = study.services
    for medium in (APP, WEB):
        rows.append(_row("All", medium, all_results))
    for os_name, label in (("android", "Android"), ("ios", "iOS")):
        tested = [r for r in all_results if os_name in r.spec.oses]
        for medium in (APP, WEB):
            rows.append(_row(label, medium, tested, os_name=os_name))
    for category in CATEGORY_ORDER:
        members = [r for r in all_results if r.spec.category == category]
        if not members:
            continue
        for medium in (APP, WEB):
            rows.append(_row(category, medium, members))
    return rows


# ---------------------------------------------------------------------------
# Tables 2 and 3
# ---------------------------------------------------------------------------


def table2(study, top: int = 20) -> list:
    easylist = bundled_easylist()
    contact: dict = defaultdict(lambda: {APP: set(), WEB: set()})
    leaks: dict = defaultdict(lambda: {APP: defaultdict(int), WEB: defaultdict(int)})
    identifiers: dict = defaultdict(lambda: {APP: set(), WEB: set()})
    for result in study.services:
        page_host = result.spec.domain
        for (os_name, medium), analysis in result.sessions.items():
            for domain in analysis.aa_domains:
                contact[domain][medium].add(result.spec.slug)
            for record in analysis.leaks:
                host = record.observation.hostname
                if not easylist.matches(f"https://{host}/", page_host=page_host):
                    continue
                leaks[record.domain][medium][result.spec.slug] += 1
                identifiers[record.domain][medium].add(record.pii_type)
    return _table2_rows(contact, leaks, identifiers, top)


def table3(study) -> list:
    per_type = _table3_buckets()
    for result in study.services:
        slug = result.spec.slug
        for (os_name, medium), analysis in result.sessions.items():
            for record in analysis.leaks:
                bucket = per_type[record.pii_type]
                bucket["svc"][medium].add(slug)
                bucket["leaks"][medium][slug] += 1
                bucket["domains"][medium].add(record.domain)
    return _table3_rows(per_type)


# ---------------------------------------------------------------------------
# Figure 1, reach, drift
# ---------------------------------------------------------------------------


def _panel(figure: str, study) -> dict:
    return _panel_from_diffs(
        figure, {os_name: study_diffs(study, os_name) for os_name in OSES}
    )


ALL_FIGURES = {key: partial(_panel, key) for key in _PANELS}


def tracker_reach(study) -> dict:
    reaches: dict = {}
    for result in study.services:
        slug = result.spec.slug
        for (os_name, medium), analysis in result.sessions.items():
            # Sorted: entry creation order breaks the summary's ties.
            for domain in sorted(analysis.aa_domains):
                entry = reaches.get(domain)
                if entry is None:
                    entry = reaches[domain] = TrackerReach(domain=domain)
                (entry.services_app if medium == APP else entry.services_web).add(slug)
            for record in analysis.leaks:
                entry = reaches.get(record.domain)
                if entry is None:
                    continue  # non-A&A recipient (identity providers)
                (entry.types_app if medium == APP else entry.types_web).add(
                    record.pii_type
                )
    return reaches


def summarize_reach(study):
    return _reach_summary(tracker_reach(study))


def render_reach(study, top: int = 15) -> str:
    return _reach_table(tracker_reach(study), top)


def _medium_metrics(result, medium: str) -> tuple:
    types: set = set()
    aa_domains: set = set()
    events = 0
    for (os_name, med), analysis in result.sessions.items():
        if med != medium:
            continue
        types |= analysis.leak_types
        aa_domains |= analysis.aa_domains
        events += len(analysis.leaks)
    return types, aa_domains, events


def diff_studies(before, after) -> list:
    before_by_slug = {r.spec.slug: r for r in before.services}
    drifts = []
    for result in after.services:
        earlier = before_by_slug.get(result.spec.slug)
        if earlier is None:
            continue
        for medium in (APP, WEB):
            drifts.append(
                _drift(
                    result.spec.slug,
                    medium,
                    _medium_metrics(earlier, medium),
                    _medium_metrics(result, medium),
                )
            )
    return drifts


def summarize_drift(before, after):
    return _drift_summary(diff_studies(before, after))


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


class LinearGroundTruthMatcher(GroundTruthMatcher):
    """The ground-truth matcher with the per-form substring scan in
    place of the literal-set probe, and no memos: every text and every
    request is scanned afresh, so a wrong memo key or a stale memo entry
    in the product shows up as a difference."""

    def match_text(self, text: str) -> list:
        if len(text) < encodings.MIN_SEARCHABLE_LENGTH:
            return []
        return self._scan(text)

    def match_request(self, request, parsed=None) -> list:
        self._memo.clear()
        self._request_memo.clear()
        return super().match_request(request, parsed=parsed)

    def _scan(self, text: str) -> list:
        found: dict = {}
        lowered = text.lower()
        for form, low, pii_type, value, encoding, mode in self._plan:
            # Case-insensitive for every form, except the pure
            # case-variant encodings which must match exactly.
            hit = (form in text) if mode == _CS else (low in lowered)
            if hit:
                found[(pii_type, value, encoding)] = PiiMatch(
                    pii_type=pii_type, value=value, encoding=encoding, source="text"
                )
        self._scan_extras(text, found)
        return list(found.values())


class ReferenceDecisionTree(DecisionTree):
    """:class:`DecisionTree` with the per-sample trainer the bitset one
    replaced: every candidate split is counted by walking the node's
    samples, vocabulary counts walk every sample, and each child gets
    the parent's whole remaining vocabulary."""

    def fit(self, samples: list, labels: list) -> "ReferenceDecisionTree":
        if len(samples) != len(labels):
            raise ValueError("samples and labels must align")
        if not samples:
            raise ValueError("cannot fit an empty training set")
        counts: Counter = Counter()
        for features in samples:
            counts.update(features)
        vocabulary = sorted(f for f, _ in counts.most_common(self.max_features))
        self._root = self._grow_samples(samples, labels, vocabulary, depth=0)
        return self

    def _grow_samples(self, samples: list, labels: list, vocabulary: list, depth: int) -> _Node:
        positives = sum(labels)
        total = len(labels)
        probability = positives / total if total else 0.0
        if (
            depth >= self.max_depth
            or total < 2 * self.min_samples_leaf
            or positives == 0
            or positives == total
        ):
            return _Node(probability=probability)

        parent_entropy = _entropy(positives, total)
        best_feature = None
        best_gain = 1e-9
        for feature in vocabulary:
            pos_with = pos_without = n_with = 0
            for features, label in zip(samples, labels):
                if feature in features:
                    n_with += 1
                    pos_with += label
                else:
                    pos_without += label
            n_without = total - n_with
            if n_with < self.min_samples_leaf or n_without < self.min_samples_leaf:
                continue
            children_entropy = (
                n_with / total * _entropy(pos_with, n_with)
                + n_without / total * _entropy(pos_without, n_without)
            )
            gain = parent_entropy - children_entropy
            if gain > best_gain:
                best_gain = gain
                best_feature = feature
        if best_feature is None:
            return _Node(probability=probability)

        with_samples, with_labels, without_samples, without_labels = [], [], [], []
        for features, label in zip(samples, labels):
            if best_feature in features:
                with_samples.append(features)
                with_labels.append(label)
            else:
                without_samples.append(features)
                without_labels.append(label)
        remaining = [f for f in vocabulary if f != best_feature]
        return _Node(
            feature=best_feature,
            present=self._grow_samples(with_samples, with_labels, remaining, depth + 1),
            absent=self._grow_samples(without_samples, without_labels, remaining, depth + 1),
            probability=probability,
        )


class ReferenceReconClassifier(ReconClassifier):
    """:class:`ReconClassifier` whose trees the reference trainer fits."""

    tree_class = ReferenceDecisionTree


def tree_shape(tree: DecisionTree) -> tuple:
    """A fitted tree as nested ``(feature, probability, present,
    absent)`` tuples; a leaf is ``(None, probability)``."""

    def walk(node: _Node) -> tuple:
        if node.is_leaf:
            return (None, node.probability)
        return (node.feature, node.probability, walk(node.present), walk(node.absent))

    return walk(tree._root)


def classifier_trees(classifier: ReconClassifier) -> dict:
    """``{(domain, PII type value): tree_shape}`` over every tree of a
    fitted classifier; the global trees have domain ``""``."""
    trees = {("", pii_type.value): tree for pii_type, tree in classifier._global.items()}
    for (domain, pii_type), tree in classifier._specialists.items():
        trees[(domain, pii_type.value)] = tree
    return {key: tree_shape(tree) for key, tree in sorted(trees.items())}


def match_linear(filters, url: str, page_host: str = "", resource_type: str = "other"):
    """:meth:`FilterList.match` by probing every rule in list order."""
    request_host = _host_of(url)
    third_party = not same_party(request_host, page_host) if page_host else True
    page_domain = domain_key(page_host) if page_host else ""
    for rule in filters.exceptions:
        if rule.matches(url, third_party, resource_type, page_domain):
            return None
    for rule in filters.blocking:
        if rule.matches(url, third_party, resource_type, page_domain):
            return rule
    return None


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    from ..core import pipeline
    from ..experiment.dataset import Dataset
    from ..services.catalog import build_catalog

    parser = argparse.ArgumentParser(
        prog="python -m repro.qa.reference",
        description="Reference renderings to diff the product's output against.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser(
        "analyze", help="Tables 1 and 3 of a saved dataset, as `repro analyze` prints them"
    )
    analyze.add_argument("dataset", help="dataset path (as written by `repro collect`)")
    analyze.add_argument(
        "--no-recon", action="store_true", help="skip ReCon training (matching only)"
    )
    args = parser.parse_args(argv)

    dataset = Dataset.load(args.dataset)
    slugs = set(dataset.services())
    services = [s for s in build_catalog() if s.slug in slugs]
    # Detect with the per-form scan as well, so one diff against `repro
    # analyze` pins the matcher and the aggregation together.  The serial
    # run keeps every session in this process, where the swap holds.
    product_matcher_for = pipeline.matcher_for
    pipeline.matcher_for = LinearGroundTruthMatcher
    try:
        study = pipeline.analyze_dataset(
            dataset, services, train_recon=not args.no_recon, executor="serial"
        )
    finally:
        pipeline.matcher_for = product_matcher_for
    print(render_table1(table1(study)))
    print()
    print(render_table3(table3(study)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
