"""Tests for the execution engine (repro.par): backend equivalence."""

import gc
import multiprocessing
import pickle

import pytest

from repro.core.pipeline import analyze_dataset, train_recon_on_dataset
from repro.experiment.runner import ExperimentRunner
from repro.par import (
    EXECUTOR_NAMES,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_executor_name,
    resolve_executor,
)
from repro.par import executor as executor_module
from repro.qa.oracle import canonical_bytes
from repro.qa.reference import classifier_trees
from repro.qa.scenarios import generate_scenario
from repro.services.world import build_world
from repro.stream.analyzer import stream_dataset


@pytest.fixture(scope="module")
def small_world():
    scenario = generate_scenario(0, max_services=2)
    specs = scenario.build_specs()
    world = build_world(specs)
    runner = ExperimentRunner(world, seed=scenario.study_seed)
    dataset = runner.run_study(specs, duration=scenario.duration)
    return scenario, specs, dataset


@pytest.fixture(scope="module")
def reference_bytes(small_world):
    scenario, specs, dataset = small_world
    return canonical_bytes(
        analyze_dataset(dataset, specs, train_recon=scenario.train_recon, workers=1)
    )


class TestResolve:
    def test_names_resolve_to_expected_types(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread", workers=4), ThreadExecutor)
        assert isinstance(resolve_executor("process", workers=2), ProcessExecutor)

    def test_instance_passes_through(self):
        engine = SerialExecutor()
        assert resolve_executor(engine) is engine

    def test_legacy_default_matches_workers(self):
        assert isinstance(resolve_executor(None, workers=1), SerialExecutor)
        assert isinstance(resolve_executor(None, workers=4), ThreadExecutor)

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutorError):
            resolve_executor("gpu")

    def test_default_name_is_known(self):
        assert default_executor_name() in EXECUTOR_NAMES

    def test_auto_resolves(self):
        engine = resolve_executor("auto", workers=2)
        assert isinstance(engine, (SerialExecutor, ThreadExecutor, ProcessExecutor))


class TestBackendEquivalence:
    """Every backend must produce byte-identical studies.

    The QA oracle pins the same property over fuzzed scenarios; these
    are the fast deterministic anchors that run on every test pass.
    """

    @pytest.mark.parametrize(
        "executor,workers",
        [
            ("serial", 1),
            ("thread", 2),
            ("thread", 4),
            ("process", 1),  # degenerate pool: runs in-process
            ("process", 2),  # real fork/spawn workers + codec transport
        ],
    )
    def test_analyze_dataset_byte_identical(
        self, small_world, reference_bytes, executor, workers
    ):
        scenario, specs, dataset = small_world
        study = analyze_dataset(
            dataset,
            specs,
            train_recon=scenario.train_recon,
            workers=workers,
            executor=executor,
        )
        assert canonical_bytes(study) == reference_bytes

    def test_streaming_process_backend_byte_identical(
        self, small_world, reference_bytes
    ):
        scenario, specs, dataset = small_world
        study = stream_dataset(
            dataset,
            specs,
            shards=2,
            train_recon=scenario.train_recon,
            executor=ProcessExecutor(workers=2),
        )
        assert canonical_bytes(study) == reference_bytes

    def test_explicit_instance_accepted_by_pipeline(
        self, small_world, reference_bytes
    ):
        scenario, specs, dataset = small_world
        study = analyze_dataset(
            dataset,
            specs,
            train_recon=scenario.train_recon,
            executor=ThreadExecutor(workers=3),
        )
        assert canonical_bytes(study) == reference_bytes


class TestSpawnWorkers:
    """CI hosts fork; ``spawn`` is the portable fallback, where workers
    unpickle their records once and own a fresh string-hash seed."""

    @pytest.fixture
    def spawn_only(self, monkeypatch):
        monkeypatch.setattr(
            executor_module, "_mp_context", lambda: multiprocessing.get_context("spawn")
        )

    def test_analyze_dataset_byte_identical(self, small_world, reference_bytes, spawn_only):
        scenario, specs, dataset = small_world
        study = analyze_dataset(
            dataset,
            specs,
            train_recon=scenario.train_recon,
            executor=ProcessExecutor(workers=2),
        )
        assert canonical_bytes(study) == reference_bytes

    def test_train_recon_byte_identical(self, small_world, spawn_only):
        _scenario, _specs, dataset = small_world
        serial = train_recon_on_dataset(dataset, executor="serial")
        spawned = train_recon_on_dataset(dataset, executor=ProcessExecutor(workers=2))
        assert classifier_trees(spawned) == classifier_trees(serial)
        assert pickle.dumps(spawned) == pickle.dumps(serial)


class TestFrozenHeap:
    """The batch maps freeze the parent's heap while their pool lives
    and always thaw it, failure included."""

    def test_thawed_after_map(self, small_world):
        _scenario, _specs, dataset = small_world
        ProcessExecutor(workers=2).map_label(list(dataset))
        assert gc.get_freeze_count() == 0

    def test_thawed_after_failing_worker(self, small_world):
        _scenario, _specs, dataset = small_world
        # No specs: each worker's spec lookup raises KeyError.
        with pytest.raises(KeyError):
            ProcessExecutor(workers=2).map_analyze(list(dataset), [], None)
        assert gc.get_freeze_count() == 0

    def test_frozen_while_pool_lives(self, small_world, monkeypatch):
        _scenario, _specs, dataset = small_world
        seen = []
        original = executor_module.ProcessPoolExecutor

        def watching(*args, **kwargs):
            seen.append(gc.get_freeze_count())
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", watching)
        ProcessExecutor(workers=2).map_label(list(dataset))
        assert seen and seen[0] > 0
        assert gc.get_freeze_count() == 0


@pytest.fixture(scope="module")
def campaign_world():
    """Tiny campaign geometry for exercising map_sessions lifecycles."""
    from repro.campaign import CampaignContext, PopulationSpec
    from repro.services.catalog import build_catalog

    specs = [spec for spec in build_catalog() if spec.slug == "weather"]
    spec = PopulationSpec(
        services_per_user=(1, 1),
        sessions_per_service=(1, 1),
        session_duration=5.0,
        bootstrap_replicates=5,
    )
    context = CampaignContext(spec, specs, 7)
    return specs, context.config()


class TestMapSessionsLifecycle:
    """Generator early-close and mid-stream worker failure.

    ``map_sessions`` streams partials while a pool is live; closing the
    generator early or hitting a worker exception must still tear the
    pool down (no leaked threads, no orphaned processes) and failures
    must name the shard range that died.
    """

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_early_close_tears_down_pool(self, campaign_world, name):
        import multiprocessing
        import threading

        specs, config = campaign_world
        threads_before = set(threading.enumerate())
        children_before = set(multiprocessing.active_children())

        engine = resolve_executor(name, workers=2)
        ranges = [(i, i + 1) for i in range(6)]
        stream = engine.map_sessions(ranges, specs, config)
        first = next(stream)
        assert first.users == 1
        stream.close()

        leaked_threads = [
            t for t in threading.enumerate()
            if t not in threads_before and t.is_alive()
        ]
        assert leaked_threads == []
        leaked_children = [
            p for p in multiprocessing.active_children()
            if p not in children_before
        ]
        assert leaked_children == []

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_worker_exception_names_failing_shard(self, campaign_world, name):
        specs, config = campaign_world
        # "zodiac" survives context construction but is rejected when the
        # shard folds its first persona, so the error surfaces mid-stream
        # from inside a live worker, not at submission time.
        bad = dict(config, dims=["zodiac"])
        engine = resolve_executor(name, workers=2)
        with pytest.raises(ExecutorError, match=r"campaign shard \[0, 2\)"):
            list(engine.map_sessions([(0, 2), (2, 4)], specs, bad))

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_worker_exception_leaves_no_orphans(self, campaign_world, name):
        import multiprocessing
        import threading

        specs, config = campaign_world
        bad = dict(config, dims=["zodiac"])
        threads_before = set(threading.enumerate())
        children_before = set(multiprocessing.active_children())

        engine = resolve_executor(name, workers=2)
        with pytest.raises(ExecutorError):
            list(engine.map_sessions([(0, 2), (2, 4)], specs, bad))

        leaked_threads = [
            t for t in threading.enumerate()
            if t not in threads_before and t.is_alive()
        ]
        assert leaked_threads == []
        leaked_children = [
            p for p in multiprocessing.active_children()
            if p not in children_before
        ]
        assert leaked_children == []
