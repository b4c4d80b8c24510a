"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of each layer from outside the
program: it swaps a timing wrapper onto the class attribute for the
duration of one traced repetition and restores the original afterwards,
so untraced repetitions run the unmodified code.  Every span carries a
name, start, end, parent span and the id of the communication round it
ran in (0 during setup).  Self time is a span's duration minus the time
its direct children cover; the program is single-threaded in-process, so
children nest strictly inside their parent.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.chain.gateway import InProcessGateway
from repro.chain.node import Node
from repro.chain.state import WorldState
from repro.core.decentralized import DecentralizedFL
from repro.core.offchain import OffchainStore
from repro.core.peer import FullPeer
from repro.data.synthetic import SyntheticImageDataset
from repro.fl.scoring import CombinationEngine
from repro.fl.trainer import LocalTrainer
from repro.nn.model import Sequential
from repro.utils.events import Simulator

#: (span name, layer, name of its call-count metric, class, methods).
#: The layer names are the program's packages; ``gateway`` is
#: ``repro.chain.gateway`` and ``sim`` is ``repro.utils.events``.
HOOKS = (
    ("data.sample", "data", "data.sample_calls", SyntheticImageDataset, ("sample",)),
    ("data.backbone", "data", "data.backbone_calls", SyntheticImageDataset, ("pretrained_backbone",)),
    ("nn.train_step", "nn", "nn.train_steps", Sequential, ("train_step",)),
    ("nn.eval", "nn", "nn.evals", Sequential, ("evaluate_accuracy",)),
    ("fl.train", "fl", "fl.trains", LocalTrainer, ("train",)),
    ("fl.search", "fl", "fl.searches", CombinationEngine, ("enumerate", "greedy")),
    ("core.deploy", "core", "core.deploys", DecentralizedFL, ("deploy_contracts",)),
    ("core.round", "core", "core.rounds", DecentralizedFL, ("run_round",)),
    ("core.fetch", "core", "core.fetches", FullPeer, ("fetch_updates",)),
    ("core.offchain_put", "core", "core.offchain_puts", OffchainStore, ("put_archive",)),
    ("core.offchain_get", "core", "core.offchain_gets", OffchainStore, ("get_archive",)),
    ("gateway.wait", "gateway", "gateway.waits", InProcessGateway, ("wait_for",)),
    ("gateway.read", "gateway", "gateway.read_trips", InProcessGateway, ("call", "batch_call")),
    ("sim.step", "sim", "sim.events", Simulator, ("step",)),
    ("chain.import", "chain", "chain.blocks_imported", Node, ("import_block",)),
    ("chain.state_root", "chain", "chain.state_roots", WorldState, ("state_root",)),
    ("chain.build_block", "chain", "chain.blocks_built", Node, ("build_block_candidate",)),
    ("chain.call", "chain", "chain.calls", Node, ("call_contract",)),
)

LAYERS = ("data", "nn", "fl", "core", "gateway", "sim", "chain")

#: Spans whose individual durations are kept for percentiles.
DURATION_SPANS = ("fl.search", "core.round")


@dataclass
class SpanTotals:
    """Aggregates of one span name over a traced repetition."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)


class SpanRecorder:
    """Records spans around the hooked methods while installed.

    Use as a context manager around exactly one traced repetition.
    ``polls`` / ``ready_polls`` count evaluations of the predicates passed
    to ``InProcessGateway.wait_for`` and how many of them returned True.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.totals: dict[str, SpanTotals] = {}
        # One record per finished span:
        # (span id, name index, start, end, parent id, round id).
        self.spans: list[tuple] = []
        self.polls = 0
        self.ready_polls = 0
        self.round_id = 0
        self.started = 0.0
        self.finished = 0.0
        self._stack: list[list] = []  # [span id, accumulated child time]
        self._active: dict[str, int] = {}
        self._next_id = 1
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "SpanRecorder":
        for span, layer, _count, cls, methods in HOOKS:
            self.layer_of[span] = layer
            self.totals[span] = SpanTotals()
            self.names.append(span)
            index = len(self.names) - 1
            for method in methods:
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(original, span, index))
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.finished = time.perf_counter()
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, original: Callable, span: str, index: int) -> Callable:
        recorder = self
        totals = self.totals[span]
        keep_durations = span in DURATION_SPANS
        is_round = span == "core.round"
        is_wait = span == "gateway.wait"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_round:
                recorder.round_id = args[1] if len(args) > 1 else kwargs["round_id"]
            if is_wait:
                if "predicate" in kwargs:
                    kwargs["predicate"] = recorder._count_polls(kwargs["predicate"])
                else:
                    args = (args[0], recorder._count_polls(args[1])) + args[2:]
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = recorder._stack[-1][0] if recorder._stack else 0
            frame = [span_id, 0.0]
            recorder._stack.append(frame)
            outermost = recorder._active.get(span, 0) == 0
            recorder._active[span] = recorder._active.get(span, 0) + 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                recorder._stack.pop()
                recorder._active[span] -= 1
                duration = end - start
                totals.calls += 1
                totals.self_time += duration - frame[1]
                if outermost:
                    totals.busy += duration
                    if keep_durations:
                        totals.durations.append(duration)
                if recorder._stack:
                    recorder._stack[-1][1] += duration
                recorder.spans.append(
                    (span_id, index, start, end, parent, recorder.round_id)
                )
                if is_round:
                    recorder.round_id = 0

        return wrapper

    def _count_polls(self, predicate: Callable[[], bool]) -> Callable[[], bool]:
        def counted() -> bool:
            ready = predicate()
            self.polls += 1
            if ready:
                self.ready_polls += 1
            return ready

        return counted

    # -- reporting ---------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer."""
        split = {layer: 0.0 for layer in LAYERS}
        for span, totals in self.totals.items():
            split[self.layer_of[span]] += totals.self_time
        return split

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = self.started
        events = [
            {
                "name": self.names[index],
                "cat": self.layer_of[self.names[index]],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "round": round_id},
            }
            for span_id, index, start, end, parent, round_id in self.spans
        ]
        events.sort(key=lambda event: event["ts"])
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
                handle,
            )
