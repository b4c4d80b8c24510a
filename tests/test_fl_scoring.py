"""Unit tests for the combination-scoring engine and its cache."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.errors import SelectionError
from repro.fl.aggregation import ModelUpdate, uniform_average
from repro.fl.evaluation import evaluate_weights
from repro.fl.scoring import (
    CombinationEngine,
    EvaluationCache,
    dataset_fingerprint,
    weights_fingerprint,
)
from repro.fl.selection import enumerate_combinations, greedy_combination
from repro.nn.layers import Dense
from repro.nn.model import Sequential


@pytest.fixture
def scratch_model():
    return Sequential([Dense(2, name="head")]).build(np.random.default_rng(0), (2,))


@pytest.fixture
def test_set():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    y = (x[:, 1] > x[:, 0]).astype(np.int64)
    return Dataset(x, y)


def good_weights():
    return {"head/W": np.array([[1.0, -1.0], [-1.0, 1.0]]), "head/b": np.zeros(2)}


def bad_weights():
    return {"head/W": np.array([[-1.0, 1.0], [1.0, -1.0]]), "head/b": np.zeros(2)}


def upd(client_id, weights, n=100):
    return ModelUpdate(client_id=client_id, weights=weights, num_samples=n)


class TestFingerprints:
    def test_content_addressed(self):
        a = good_weights()
        b = good_weights()
        assert weights_fingerprint(a) == weights_fingerprint(b)
        b["head/b"] = b["head/b"] + 1.0
        assert weights_fingerprint(a) != weights_fingerprint(b)

    def test_shape_and_dtype_distinguished(self):
        flat = {"w": np.zeros(4)}
        square = {"w": np.zeros((2, 2))}
        ints = {"w": np.zeros(4, dtype=np.int64)}
        prints = {weights_fingerprint(w) for w in (flat, square, ints)}
        assert len(prints) == 3

    def test_dataset_fingerprint_tracks_content(self):
        x = np.zeros((4, 2))
        y = np.zeros(4, dtype=np.int64)
        base = dataset_fingerprint(Dataset(x, y))
        assert base == dataset_fingerprint(Dataset(x.copy(), y.copy()))
        assert base != dataset_fingerprint(Dataset(x + 1.0, y))


class TestCacheCorrectness:
    def test_mutated_weights_reevaluate(self, scratch_model, test_set):
        """A weight dict changed in place never produces a stale hit."""
        engine = CombinationEngine(scratch_model, test_set)
        weights = good_weights()
        first = engine.score_weights(weights)
        assert first == 1.0
        weights["head/W"] *= -1.0  # in-place: now classifies inverted
        second = engine.score_weights(weights)
        assert second == 0.0
        assert engine.cache.stats == {"hits": 0, "misses": 2, "absorbed": 0}

    def test_identical_content_hits(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        engine.score_weights(good_weights())
        engine.score_weights(good_weights())  # distinct object, same bytes
        assert engine.cache.stats["hits"] == 1
        assert engine.cache.stats["misses"] == 1

    def test_distinct_test_sets_never_share_entries(self, scratch_model, test_set):
        """One shared cache, two test sets: same weights, separate keys."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 2))
        other = Dataset(x, (x[:, 1] <= x[:, 0]).astype(np.int64))  # inverted labels
        shared = EvaluationCache()
        engine_a = CombinationEngine(scratch_model, test_set, cache=shared)
        engine_b = CombinationEngine(scratch_model, other, cache=shared)
        acc_a = engine_a.score_weights(good_weights())
        acc_b = engine_b.score_weights(good_weights())
        assert shared.stats["misses"] == 2  # no cross-test-set hit
        assert len(shared) == 2
        assert acc_a == 1.0 and acc_b == 0.0

    def test_solo_scores_shared_with_threshold_filter(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        engine.enumerate(updates)
        evaluations = engine.cache.stats["misses"]
        kept = engine.threshold_filter(updates, threshold=0.5)
        assert [u.client_id for u in kept] == ["A"]
        assert engine.cache.stats["misses"] == evaluations  # all cache hits

    def test_clear_drops_entries_keeps_stats(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        engine.score_weights(good_weights())
        engine.cache.clear()
        assert len(engine.cache) == 0
        assert engine.cache.stats["misses"] == 1
        engine.score_weights(good_weights())
        assert engine.cache.stats["misses"] == 2  # re-evaluated after clear


class TestExceptionSafety:
    def test_evaluate_weights_restores_on_error(self, scratch_model, test_set):
        """The seed primitive restores the model even when scoring raises."""
        before = scratch_model.get_weights()
        bad_data = Dataset(np.zeros((4, 7)), np.zeros(4, dtype=np.int64))  # wrong dim
        with pytest.raises(Exception):
            evaluate_weights(scratch_model, good_weights(), bad_data)
        after = scratch_model.get_weights()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_engine_restores_on_error(self, scratch_model):
        bad_data = Dataset(np.zeros((4, 7)), np.zeros(4, dtype=np.int64))
        engine = CombinationEngine(scratch_model, bad_data)
        before = scratch_model.get_weights()
        with pytest.raises(Exception):
            engine.enumerate([upd("A", good_weights()), upd("B", bad_weights())])
        after = scratch_model.get_weights()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_engine_restores_after_search(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        before = scratch_model.get_weights()
        engine.enumerate([upd("A", good_weights()), upd("B", bad_weights())])
        after = scratch_model.get_weights()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_mismatched_keys_rejected(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        with pytest.raises(SelectionError):
            engine.score_weights({"other/W": np.zeros((2, 2))})

    def test_partial_dict_rejected_mid_session(self, scratch_model, test_set):
        """A malformed update after a valid one must error, not silently
        score against the previous update's leftover parameters."""
        engine = CombinationEngine(scratch_model, test_set)
        partial = upd("B", {"head/W": np.array([[1.0, -1.0], [-1.0, 1.0]])})
        with pytest.raises(SelectionError):
            engine.threshold_filter([upd("A", good_weights()), partial], threshold=-1.0)
        wrong_shape = upd("B", {"head/W": np.zeros((2, 2)), "head/b": np.zeros((1, 2))})
        with pytest.raises(SelectionError):
            engine.threshold_filter([upd("A", good_weights()), wrong_shape], threshold=-1.0)


class TestInstrumentation:
    def test_hook_fires_only_on_real_evaluations(self, scratch_model, test_set):
        seen = []
        engine = CombinationEngine(scratch_model, test_set, instrument=seen.append)
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        engine.enumerate(updates)
        assert len(seen) == 3  # A, B, A+B
        engine.enumerate(updates)
        engine.threshold_filter(updates, threshold=0.0)
        assert len(seen) == 3  # everything above was a cache hit


class TestEngineSearches:
    def test_enumerate_matches_reference_ordering(self, scratch_model, test_set):
        updates = [upd("B", good_weights()), upd("A", good_weights()), upd("C", bad_weights())]
        reference = enumerate_combinations(updates, scratch_model, test_set)
        engine = CombinationEngine(scratch_model, test_set)
        scored = engine.enumerate(updates)
        assert [(r.members, r.accuracy) for r in reference] == [
            (s.members, s.accuracy) for s in scored
        ]

    def test_min_size_above_max_size_is_empty(self, scratch_model, test_set):
        """min_size > max_size is the reference's empty size range — not a
        backdoor to the solo fast path."""
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        reference = enumerate_combinations(
            updates, scratch_model, test_set, min_size=2, max_size=1
        )
        engine = CombinationEngine(scratch_model, test_set)
        assert engine.enumerate(updates, min_size=2, max_size=1) == reference == []

    def test_empty_and_bad_min_size_rejected(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        with pytest.raises(SelectionError):
            engine.enumerate([])
        with pytest.raises(SelectionError):
            engine.enumerate([upd("A", good_weights())], min_size=0)
        with pytest.raises(SelectionError):
            engine.greedy([])
        with pytest.raises(SelectionError):
            engine.greedy([upd("A", good_weights())], seed_client="Z")

    def test_non_fedavg_aggregator_supported(self, scratch_model, test_set):
        """Non-reference aggregators fall back to per-subset aggregation
        with content-hash keys (no structural shortcut)."""
        updates = [upd("A", good_weights(), n=10), upd("B", bad_weights(), n=1000)]
        reference = enumerate_combinations(
            updates, scratch_model, test_set, aggregator=uniform_average
        )
        engine = CombinationEngine(scratch_model, test_set, aggregator=uniform_average)
        scored = engine.enumerate(updates)
        assert [(r.members, r.accuracy) for r in reference] == [
            (s.members, s.accuracy) for s in scored
        ]

    def test_non_fedavg_greedy_supported(self, scratch_model, test_set):
        updates = [
            upd("A", good_weights(), n=10),
            upd("B", bad_weights(), n=1000),
            upd("C", good_weights(), n=5),
        ]
        reference = greedy_combination(
            updates, scratch_model, test_set, aggregator=uniform_average
        )
        engine = CombinationEngine(scratch_model, test_set, aggregator=uniform_average)
        candidate = engine.greedy(updates)
        assert reference.members == candidate.members
        assert reference.accuracy == candidate.accuracy
        for key in reference.weights:
            np.testing.assert_array_equal(reference.weights[key], candidate.weights[key])
