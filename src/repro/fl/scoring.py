"""Memoized combination-scoring engine.

The paper's "consider" aggregation makes every peer score subsets of the
models it received on its private test set each round.  The seed
implementation (:mod:`repro.fl.selection`) pays, per subset, one full
FedAvg recompute (stack + tensordot over every member) plus a full
save/restore of the scratch model around every evaluation — the wall-clock
bottleneck at 25+ peers flagged by the ROADMAP.  This module is the fast
path; :mod:`repro.fl.selection` remains the serial reference it is tested
against.

Memoization key
---------------
Every accuracy ever computed is cached in an :class:`EvaluationCache`
under a **content-addressed** key ``(weights_id, test_set_id)``:

* ``test_set_id`` is a SHA-256 over the test set's ``x``/``y`` buffers,
  computed once per engine — distinct test sets can share one cache
  without ever sharing entries.
* For raw weight dicts (solo models, external callers) ``weights_id`` is
  a SHA-256 over the sorted ``(key, dtype, shape, buffer)`` stream, so a
  *mutated* weight dict never produces a stale hit.
* For subsets the engine aggregates itself, ``weights_id`` is derived
  structurally: ``("fedavg", ((member_id, num_samples), ...))`` in
  evaluation order, where each ``member_id`` is the member's content
  hash.  The aggregate is a pure function of that tuple, so the derived
  key is content-addressed by construction — without hashing the
  aggregated buffers on the hot path.

A single-member subset *is* its member's weights bit-for-bit (FedAvg's
``n/n = 1.0`` coefficient is exact), so solo subsets are keyed by the raw
content hash.  That one identity is what lets
:func:`CombinationEngine.threshold_filter` and the reputation rating pass
(:meth:`repro.core.decentralized.DecentralizedFL._rate_round`) reuse the
solo scores computed during enumeration instead of re-evaluating them.

Incremental aggregation
-----------------------
FedAvg over a subset is ``(sum_k n_k * w_k) / (sum_k n_k)``.  The engine
pre-scales each update once (``n_k * w_k``) and walks subsets
depth-first, extending a running left-to-right sum — each subset costs
one tensor add and one scale instead of a stack-and-tensordot over all
members.  The summation order (sorted members, left to right) is fixed.
The scratch model's own weights are saved once per search and restored
once at the end (lazily: a search served entirely from cache never
touches the model), instead of the seed's save/restore around every
call.

Determinism contract
--------------------
For both strategies (exhaustive, greedy), the engine returns the same
chosen members, the same accuracy table, and consumes tie-break RNG
draws exactly like the serial reference in :mod:`repro.fl.selection`:

* subsets are enumerated in a fixed order and re-sorted by
  ``(-accuracy, members)`` exactly like the reference;
* tie-breaking happens in the parent via
  :func:`repro.fl.selection.pick_best` with the caller's RNG, so the
  stream sees one draw per multi-way tie, same as the reference;
* the *adopted* combination's weights are materialized with the
  reference aggregator itself (one call per search), so downstream state
  is byte-identical to the serial path.

Aggregated accuracies may differ from the reference by the usual
floating-point reassociation only in the last ulp of the *logits*; the
reported metric is an argmax count, which both suites pin to be equal.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations as iter_combinations
from typing import Callable, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import SelectionError
from repro.fl.aggregation import ModelUpdate, _check_compatible, fedavg
from repro.fl.selection import CombinationResult, pick_best
from repro.nn.model import Sequential

Aggregator = Callable[[Sequence[ModelUpdate]], dict[str, np.ndarray]]


def weights_fingerprint(weights: dict[str, np.ndarray]) -> str:
    """Content hash of a weight dict (sorted keys, dtype, shape, buffer)."""
    digest = hashlib.sha256()
    for key in sorted(weights):
        array = np.ascontiguousarray(weights[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(str(array.shape).encode("ascii"))
        digest.update(array.data)
    return digest.hexdigest()


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash of a test set's sample and label buffers."""
    digest = hashlib.sha256()
    for array in (dataset.x, dataset.y):
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(str(array.shape).encode("ascii"))
        digest.update(array.data)
    return digest.hexdigest()


class EvaluationCache:
    """Content-addressed accuracy store shared across searches.

    Keys are ``(weights_id, test_set_id)`` tuples (see the module
    docstring).  ``stats`` counts ``hits`` (served from cache), ``misses``
    (real model evaluations run by the owning engine), and ``absorbed``
    (entries merged from worker processes, which ran the evaluation
    elsewhere).
    """

    def __init__(self) -> None:
        self._entries: dict[object, float] = {}
        self.stats = {"hits": 0, "misses": 0, "absorbed": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: object) -> Optional[float]:
        """Cached accuracy for ``key``, counting the hit; None on miss."""
        value = self._entries.get(key)
        if value is not None:
            self.stats["hits"] += 1
        return value

    def store(self, key: object, accuracy: float) -> None:
        """Record a freshly evaluated accuracy (counts one miss)."""
        self.stats["misses"] += 1
        self._entries[key] = accuracy

    def absorb(self, key: object, accuracy: float) -> None:
        """Merge an entry evaluated in another process (worker result)."""
        self.stats["absorbed"] += 1
        self._entries[key] = accuracy

    def clear(self) -> None:
        """Drop all entries; cumulative stats are kept."""
        self._entries.clear()


@dataclass(frozen=True)
class ScoredSubset:
    """One scored combination: membership and local-test accuracy."""

    members: tuple[str, ...]
    accuracy: float

    @property
    def label(self) -> str:
        """Human-readable combination label, e.g. ``"A,B,C"``."""
        return ",".join(self.members)


class CombinationEngine:
    """Memoized combination scorer for one peer.

    One engine wraps one scratch ``model`` and one private ``test_set``
    and exposes the same searches as :mod:`repro.fl.selection` —
    :meth:`enumerate`, :meth:`best`, :meth:`greedy`,
    :meth:`threshold_filter` — with identical results (see the module
    docstring's determinism contract).

    ``instrument``, when set, is called with the cache key before every
    *real* model evaluation (cache hits never fire it).
    """

    def __init__(
        self,
        model: Sequential,
        test_set: Dataset,
        aggregator: Aggregator = fedavg,
        cache: Optional[EvaluationCache] = None,
        batch_size: int = 512,
        instrument: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.model = model
        self.test_set = test_set
        self.aggregator = aggregator
        self.cache = cache if cache is not None else EvaluationCache()
        self.batch_size = batch_size
        self.instrument = instrument
        self.test_set_id = dataset_fingerprint(test_set)
        #: Structural subset keys are only valid for the reference FedAvg.
        self._incremental = aggregator is fedavg
        self._saved: Optional[dict[str, np.ndarray]] = None
        self._params: Optional[dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Scratch-model session (one save/restore per search, lazily)
    # ------------------------------------------------------------------

    def _ensure_session(self, weights_like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Open the scratch-model session (first real evaluation only).

        Snapshots the model once — a search answered fully from cache
        never copies anything — and validates key set/shapes once against
        ``weights_like``; later installs are raw buffer writes.
        """
        if self._saved is None:
            self._saved = self.model.get_weights()
            params = self.model.parameters()
            if set(weights_like) != set(params):
                raise SelectionError(
                    f"weight keys {sorted(weights_like)} do not match model {sorted(params)}"
                )
            for key, value in weights_like.items():
                if params[key].shape != value.shape:
                    raise SelectionError(
                        f"{key}: shape {value.shape} != model {params[key].shape}"
                    )
            self._params = params
        return self._params

    def _end_session(self) -> None:
        if self._saved is not None:
            self.model.set_weights(self._saved)
            self._saved = None
            self._params = None

    # ------------------------------------------------------------------
    # Cached scoring primitives
    # ------------------------------------------------------------------

    def _evaluate_installed(self, key: object) -> float:
        accuracy = self.model.evaluate_accuracy(
            self.test_set.x, self.test_set.y, batch_size=self.batch_size
        )
        self.cache.store(key, accuracy)
        return accuracy

    def _score(self, key: object, realize: Callable[[], dict[str, np.ndarray]]) -> float:
        """Cached accuracy under ``key``; ``realize`` builds the weights
        only on a miss (a hit skips even the aggregate's final scale)."""
        cached = self.cache.lookup(key)
        if cached is not None:
            return cached
        if self.instrument is not None:
            self.instrument(key)
        weights = realize()
        params = self._ensure_session(weights)
        # Raw dicts arrive from arbitrary callers (threshold_filter,
        # score_weights), so every install re-validates: a partial dict
        # must never leave stale parameters behind, and np.copyto would
        # otherwise broadcast a shape mismatch silently.
        if len(weights) != len(params):
            raise SelectionError(
                f"weight keys {sorted(weights)} do not match model {sorted(params)}"
            )
        for name, value in weights.items():
            target = params.get(name)
            if target is None:
                raise SelectionError(f"unexpected weight key {name!r}")
            if target.shape != np.shape(value):
                raise SelectionError(
                    f"{name}: shape {np.shape(value)} != model {target.shape}"
                )
            np.copyto(target, value)
        return self._evaluate_installed(key)

    def _score_fedavg(self, key: object, sums: dict[str, np.ndarray], total: int) -> float:
        """Cached FedAvg-subset accuracy: on a miss the final scale is
        written straight into the model's parameter buffers (no aggregate
        dict is ever materialized)."""
        cached = self.cache.lookup(key)
        if cached is not None:
            return cached
        if self.instrument is not None:
            self.instrument(key)
        params = self._ensure_session(sums)
        for name, value in sums.items():
            np.divide(value, total, out=params[name])
        return self._evaluate_installed(key)

    def solo_key(self, update: ModelUpdate) -> tuple[str, str]:
        """Cache key of one update's raw weights on this test set."""
        return (weights_fingerprint(update.weights), self.test_set_id)

    def solo_accuracy(self, update: ModelUpdate) -> float:
        """Accuracy of one update's own model (cached)."""
        try:
            return self._score(self.solo_key(update), lambda: update.weights)
        finally:
            self._end_session()

    def score_weights(self, weights: dict[str, np.ndarray]) -> float:
        """Accuracy of an arbitrary weight dict (content-hash cached)."""
        try:
            return self._score((weights_fingerprint(weights), self.test_set_id), lambda: weights)
        finally:
            self._end_session()

    def absorb_solo(self, update: ModelUpdate, accuracy: float) -> None:
        """Merge a solo score evaluated elsewhere (worker process)."""
        self.cache.absorb(self.solo_key(update), accuracy)

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------

    def enumerate(
        self,
        updates: Sequence[ModelUpdate],
        min_size: int = 1,
        max_size: Optional[int] = None,
    ) -> list[ScoredSubset]:
        """Score every subset with ``min_size <= |S| <= max_size``.

        Output is sorted by ``(-accuracy, members)`` — the reference
        ordering of :func:`repro.fl.selection.enumerate_combinations`.
        """
        if not updates:
            raise SelectionError("no updates to combine")
        if min_size < 1:
            raise SelectionError(f"min_size must be >= 1, got {min_size}")
        keys = _check_compatible(updates)
        ordered = sorted(updates, key=lambda update: update.client_id)
        limit = min(max_size if max_size is not None else len(ordered), len(ordered))
        try:
            if not self._incremental:
                scored = self._enumerate_generic(ordered, min_size, limit)
            else:
                scored = self._enumerate_serial(ordered, keys, min_size, limit)
        finally:
            self._end_session()
        scored.sort(key=lambda result: (-result.accuracy, result.members))
        return scored

    def _enumerate_generic(
        self, ordered: list[ModelUpdate], min_size: int, limit: int
    ) -> list[ScoredSubset]:
        """Per-subset aggregator calls for non-FedAvg aggregators (keys
        fall back to content hashes of the aggregated weights)."""
        scored = []
        for size in range(min_size, limit + 1):
            for subset in iter_combinations(ordered, size):
                weights = self.aggregator(subset)
                accuracy = self._score(
                    (weights_fingerprint(weights), self.test_set_id), lambda: weights
                )
                scored.append(
                    ScoredSubset(tuple(update.client_id for update in subset), accuracy)
                )
        return scored

    def _fingerprints(self, ordered: list[ModelUpdate]) -> list[str]:
        return [weights_fingerprint(update.weights) for update in ordered]

    def _subset_key(self, trace: tuple[tuple[str, int], ...]) -> tuple:
        """Structural cache key for a FedAvg aggregate (evaluation order)."""
        return ("fedavg", trace, self.test_set_id)

    def _flat_layout(
        self, template: dict[str, np.ndarray], keys: list[str]
    ) -> list[tuple[str, int, int, tuple[int, ...]]]:
        """(key, start, end, shape) spans of the packed parameter vector."""
        layout = []
        start = 0
        for key in keys:
            size = int(np.prod(template[key].shape, dtype=np.int64))
            layout.append((key, start, start + size, template[key].shape))
            start += size
        return layout

    def _score_fedavg_flat(
        self,
        key_obj: object,
        flat_sums: np.ndarray,
        total: int,
        layout: list[tuple[str, int, int, tuple[int, ...]]],
        template: dict[str, np.ndarray],
    ) -> float:
        """Cached FedAvg-subset accuracy from a packed sum vector.

        Element-wise ops never reassociate, so the packed add/divide are
        bit-identical to the per-key path greedy uses.
        """
        cached = self.cache.lookup(key_obj)
        if cached is not None:
            return cached
        if self.instrument is not None:
            self.instrument(key_obj)
        params = self._ensure_session(template)
        for key, start, end, shape in layout:
            np.divide(flat_sums[start:end].reshape(shape), total, out=params[key])
        return self._evaluate_installed(key_obj)

    def _enumerate_serial(
        self, ordered: list[ModelUpdate], keys: list[str], min_size: int, limit: int
    ) -> list[ScoredSubset]:
        """Depth-first incremental enumeration (one add + scale per subset).

        Each update's scaled weights are packed into one flat vector, so
        extending a prefix is a single vectorized add.  Depth ``d`` owns
        one preallocated sum vector: a node's sum stays valid for its
        whole subtree, siblings overwrite it only after the subtree
        finishes — the hot loop allocates nothing.
        """
        if min_size > limit:
            return []  # the reference's empty size range
        fingerprints = self._fingerprints(ordered)
        if limit == 1:
            return [
                ScoredSubset(
                    (update.client_id,),
                    self._score(
                        (fingerprints[index], self.test_set_id),
                        lambda update=update: update.weights,
                    ),
                )
                for index, update in enumerate(ordered)
            ]
        template = ordered[0].weights
        dtypes = {template[key].dtype for key in keys}
        if len(dtypes) != 1 or not np.issubdtype(next(iter(dtypes)), np.floating):
            # Packing mixed/integer dtypes into one vector would change
            # the arithmetic precision; take the reference-shaped path.
            return self._enumerate_generic(ordered, min_size, limit)
        dtype = next(iter(dtypes))
        layout = self._flat_layout(template, keys)
        width = layout[-1][2]
        scaled = np.empty((len(ordered), width), dtype=dtype)
        for row, update in enumerate(ordered):
            for key, start, end, _shape in layout:
                scaled[row, start:end] = update.num_samples * update.weights[key].ravel()
        n = len(ordered)
        buffers = np.empty((limit + 1, width), dtype=dtype)
        out: list[ScoredSubset] = []

        def visit(start, members, trace, sums, total, size) -> None:
            for index in range(start, n):
                update = ordered[index]
                new_members = members + (update.client_id,)
                new_trace = trace + ((fingerprints[index], update.num_samples),)
                new_total = total + update.num_samples
                new_size = size + 1
                if size == 0:
                    new_sums = scaled[index]
                elif new_size == limit and new_size >= min_size:
                    # Leaf: the sum is only needed on a cache miss.
                    new_sums = None
                else:
                    new_sums = buffers[new_size]
                    np.add(sums, scaled[index], out=new_sums)
                if new_size >= min_size:
                    if new_size == 1:
                        accuracy = self._score(
                            (fingerprints[index], self.test_set_id),
                            lambda update=update: update.weights,
                        )
                    else:
                        key_obj = self._subset_key(new_trace)
                        if new_sums is None:
                            accuracy = self.cache.lookup(key_obj)
                            if accuracy is None:
                                new_sums = buffers[new_size]
                                np.add(sums, scaled[index], out=new_sums)
                                accuracy = self._score_fedavg_flat(
                                    key_obj, new_sums, new_total, layout, template
                                )
                        else:
                            accuracy = self._score_fedavg_flat(
                                key_obj, new_sums, new_total, layout, template
                            )
                    out.append(ScoredSubset(new_members, accuracy))
                if new_size < limit:
                    visit(index + 1, new_members, new_trace, new_sums, new_total, new_size)

        visit(0, (), (), None, 0, 0)
        return out

    def materialize(
        self, members: Sequence[str], updates: Sequence[ModelUpdate], accuracy: float
    ) -> CombinationResult:
        """Exact-reference weights for an adopted combination.

        One aggregator call over the members *in the given order* — the
        adopted weights are byte-identical to the serial reference's.
        """
        by_id = {update.client_id: update for update in updates}
        weights = self.aggregator([by_id[member] for member in members])
        return CombinationResult(members=tuple(members), accuracy=accuracy, weights=weights)

    def best(
        self, updates: Sequence[ModelUpdate], rng: Optional[np.random.Generator] = None
    ) -> CombinationResult:
        """Best-scoring subset with the reference tie-break semantics."""
        scored = self.enumerate(updates)
        chosen = pick_best(scored, rng)
        return self.materialize(chosen.members, updates, chosen.accuracy)

    def greedy(
        self, updates: Sequence[ModelUpdate], seed_client: Optional[str] = None
    ) -> CombinationResult:
        """Forward selection replicating the reference step for step.

        Candidate sets are scored from a running sum of the chosen
        members (insertion order) plus the candidate, so each step costs
        one add + scale per candidate instead of a growing recompute.
        """
        if not updates:
            raise SelectionError("no updates to combine")
        if not self._incremental:
            return self._greedy_generic(updates, seed_client)
        keys = _check_compatible(updates)
        pool = {update.client_id: update for update in updates}
        fingerprints = {
            update.client_id: weights_fingerprint(update.weights) for update in updates
        }
        scaled = {
            update.client_id: {
                key: update.num_samples * update.weights[key] for key in keys
            }
            for update in updates
        }
        try:
            if seed_client is not None:
                if seed_client not in pool:
                    raise SelectionError(f"seed client {seed_client!r} not among updates")
                chosen = [pool.pop(seed_client)]
            else:
                solos = self.enumerate(list(pool.values()), min_size=1, max_size=1)
                chosen = [pool.pop(solos[0].members[0])]
            first = chosen[0]
            trace = ((fingerprints[first.client_id], first.num_samples),)
            sums = scaled[first.client_id]
            total = first.num_samples
            best_acc = self._score(
                (fingerprints[first.client_id], self.test_set_id), lambda: first.weights
            )
            cand_buffer = {key: np.empty_like(sums[key]) for key in keys}
            improved = True
            while improved and pool:
                improved = False
                best_candidate = None
                for client_id in sorted(pool):
                    candidate = pool[client_id]
                    cand_trace = trace + ((fingerprints[client_id], candidate.num_samples),)
                    key_obj = self._subset_key(cand_trace)
                    accuracy = self.cache.lookup(key_obj)
                    if accuracy is None:
                        member = scaled[client_id]
                        for key in keys:
                            np.add(sums[key], member[key], out=cand_buffer[key])
                        accuracy = self._score_fedavg(
                            key_obj, cand_buffer, total + candidate.num_samples
                        )
                    if accuracy > best_acc:
                        best_acc = accuracy
                        best_candidate = client_id
                        improved = True
                if best_candidate is not None:
                    candidate = pool.pop(best_candidate)
                    member = scaled[best_candidate]
                    sums = {key: sums[key] + member[key] for key in keys}
                    total += candidate.num_samples
                    trace = trace + ((fingerprints[best_candidate], candidate.num_samples),)
                    chosen.append(candidate)
        finally:
            self._end_session()
        return self.materialize(
            tuple(update.client_id for update in chosen), updates, best_acc
        )

    def _greedy_generic(
        self, updates: Sequence[ModelUpdate], seed_client: Optional[str]
    ) -> CombinationResult:
        """Reference-shaped greedy for non-FedAvg aggregators: one
        aggregator call per candidate, content-hash cache keys."""
        _check_compatible(updates)
        pool = {update.client_id: update for update in updates}
        try:
            if seed_client is not None:
                if seed_client not in pool:
                    raise SelectionError(f"seed client {seed_client!r} not among updates")
                chosen = [pool.pop(seed_client)]
            else:
                solos = self.enumerate(list(pool.values()), min_size=1, max_size=1)
                chosen = [pool.pop(solos[0].members[0])]
            best_weights = self.aggregator(chosen)
            best_acc = self._score(
                (weights_fingerprint(best_weights), self.test_set_id), lambda: best_weights
            )
            improved = True
            while improved and pool:
                improved = False
                best_candidate = None
                for client_id in sorted(pool):
                    weights = self.aggregator(chosen + [pool[client_id]])
                    accuracy = self._score(
                        (weights_fingerprint(weights), self.test_set_id),
                        lambda weights=weights: weights,
                    )
                    if accuracy > best_acc:
                        best_acc = accuracy
                        best_candidate = client_id
                        improved = True
                if best_candidate is not None:
                    chosen.append(pool.pop(best_candidate))
        finally:
            self._end_session()
        return self.materialize(
            tuple(update.client_id for update in chosen), updates, best_acc
        )

    def threshold_filter(
        self,
        updates: Sequence[ModelUpdate],
        threshold: float,
        always_keep: Optional[str] = None,
    ) -> list[ModelUpdate]:
        """Reference fitness gate, served from the solo-score cache."""
        kept = []
        try:
            for update in sorted(updates, key=lambda update: update.client_id):
                if always_keep is not None and update.client_id == always_keep:
                    kept.append(update)
                    continue
                accuracy = self._score(self.solo_key(update), lambda u=update: u.weights)
                if accuracy >= threshold:
                    kept.append(update)
        finally:
            self._end_session()
        if not kept:
            raise SelectionError(f"no update passed threshold {threshold}")
        return kept


# ---------------------------------------------------------------------------
# Peer-level fan-out (DecentralizedFL: independent searches in parallel)
# ---------------------------------------------------------------------------

#: Per-process search state installed by the pool initializer.
_WORKER_STATE: dict = {}


def _init_peer_worker(
    model: Sequential,
    union_payload: list[tuple[str, dict[str, np.ndarray], int]],
    batch_size: int,
) -> None:
    """Install the round's shared search state in a pool worker.

    One scratch architecture and the *union* of the round's updates are
    shipped once per worker; per-peer tasks then carry only the peer's
    (small) test set and member id list — O(n) weight transfers per
    round instead of O(n^2).  The model's own weights are irrelevant:
    every evaluation installs the weights under test.
    """
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        model=model,
        batch_size=batch_size,
        updates={
            cid: ModelUpdate(client_id=cid, weights=weights, num_samples=num)
            for cid, weights, num in union_payload
        },
    )


def _peer_search_task(test_x, test_y, member_ids: list[str], use_greedy: bool) -> dict:
    """One peer's whole combination search, run inside a pool worker.

    Returns accuracies only (plus solo cache entries for the parent to
    absorb); tie-breaking, weight materialization, and adoption stay in
    the parent so RNG draws and adopted bytes match the serial path.
    """
    from repro.data.dataset import Dataset as _Dataset

    state = _WORKER_STATE
    updates = [state["updates"][cid] for cid in member_ids]
    engine = CombinationEngine(
        state["model"], _Dataset(test_x, test_y), batch_size=state["batch_size"]
    )
    result: dict = {}
    if use_greedy:
        chosen = engine.greedy(updates)
        result["greedy"] = (chosen.members, chosen.accuracy)
    else:
        scored = engine.enumerate(updates)
        result["scored"] = [(entry.members, entry.accuracy) for entry in scored]
    result["solos"] = [
        (engine.solo_key(update), accuracy)
        for update in updates
        if (accuracy := engine.cache.lookup(engine.solo_key(update))) is not None
    ]
    result["evaluations"] = engine.cache.stats["misses"]
    return result


def run_peer_searches(
    tasks: list[tuple[Sequential, Dataset, list[ModelUpdate], bool]],
    workers: int,
    batch_size: int = 512,
) -> Optional[list[dict]]:
    """Run independent per-peer searches on a process pool, in order.

    ``tasks`` is ``[(model, test_set, updates, use_greedy), ...]``;
    results come back in the same order.  All tasks must share one model
    architecture (the FL contract), and within a round a client id names
    one update, so the first task's model and the de-duplicated union of
    updates prime every worker via the pool initializer.  Returns None
    when the host cannot fork, signalling the caller to fall back to the
    serial path.
    """
    union: dict[str, ModelUpdate] = {}
    for _model, _test_set, updates, _use_greedy in tasks:
        for update in updates:
            union.setdefault(update.client_id, update)
    payload = [
        (update.client_id, update.weights, update.num_samples)
        for update in union.values()
    ]
    try:
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_peer_worker,
            initargs=(tasks[0][0], payload, batch_size),
        )
    except (OSError, ValueError):  # pragma: no cover - host-dependent
        return None
    try:
        with executor:
            futures = [
                executor.submit(
                    _peer_search_task,
                    test_set.x,
                    test_set.y,
                    [update.client_id for update in updates],
                    use_greedy,
                )
                for _model, test_set, updates, use_greedy in tasks
            ]
            return [future.result() for future in futures]
    except (BrokenExecutor, OSError):  # pragma: no cover - host-dependent
        # Worker processes spawn lazily: a host that cannot fork fails at
        # result() time, not construction — still signal serial fallback.
        return None
