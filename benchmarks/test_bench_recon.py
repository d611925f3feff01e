"""ReCon training benchmark: the bitset trainer against its reference.

The 3-service subset study (weather, grubhub, cnn; seed 2016) is
collected once and labeled into the training examples
``train_recon_on_dataset`` learns from.  One classifier is then fitted
on them, alternately by the product's bitset trainer
(:class:`~repro.pii.recon.DecisionTree`) and by the per-sample
reference trainer in :mod:`repro.qa.reference`, in the same process.

The gate is a ratio: the bitset fit must be at least 3x faster
(best of rounds against best of rounds), and every tree must be
identical.  A ratio of two fits timed side by side holds on any host,
so this gate needs no recorded baseline.

Run it with ``make bench-recon``.
"""

import gc
import time

import pytest

from repro.core.pipeline import label_record, recon_training_records
from repro.experiment.runner import ExperimentRunner
from repro.pii.recon import ReconClassifier
from repro.qa.reference import ReferenceReconClassifier, classifier_trees
from repro.services.catalog import build_catalog
from repro.services.world import build_world

SUBSET = ("weather", "grubhub", "cnn")
ROUNDS = 5
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def subset_examples():
    specs = [spec for spec in build_catalog() if spec.slug in SUBSET]
    dataset = ExperimentRunner(build_world(specs), seed=2016).run_study(specs)
    return [
        example
        for record in recon_training_records(dataset)
        for example in label_record(record)
    ]


def _timed_fit(cls, examples):
    gc.collect()
    start = time.perf_counter()
    classifier = cls().fit(examples)
    return time.perf_counter() - start, classifier_trees(classifier)


def test_bitset_fit_speedup(subset_examples, capsys):
    fast_times, slow_times = [], []
    for _ in range(ROUNDS):
        seconds, slow_trees = _timed_fit(ReferenceReconClassifier, subset_examples)
        slow_times.append(seconds)
        seconds, fast_trees = _timed_fit(ReconClassifier, subset_examples)
        fast_times.append(seconds)
        assert fast_trees == slow_trees
    speedup = min(slow_times) / min(fast_times)
    with capsys.disabled():
        print(
            f"\n  ReCon fit, {len(subset_examples)} examples, {len(fast_trees)} trees: "
            f"reference {min(slow_times):.3f}s vs bitset {min(fast_times):.3f}s "
            f"(x{speedup:.1f})"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"bitset fit only x{speedup:.1f} over the reference (need >= {MIN_SPEEDUP:.0f}x)"
    )
