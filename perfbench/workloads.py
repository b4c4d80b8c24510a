"""The benchmark's workloads and the code that runs one repetition of each.

Every workload runs in-process with the default runtime, no combination
search workers, serial block execution and no cold storage; the scenario
seed comes from the command line.  A repetition builds each of the
workload's scenarios from scratch (dataset synthesis, driver construction,
contract deploy and roster registration: the set-up phase), then runs
every scheduled round.  The driver is built exactly as
``repro.scenarios.run_scenario`` builds it, with ``deploy_contracts``
called before ``run`` so the two phases can be timed apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core.decentralized import DecentralizedFL, PeerRoundLog
from repro.fl.async_policy import WaitForK
from repro.scenarios import ScenarioContext, ScenarioSpec, cohort_scenario, get_scenario
from repro.scenarios.runner import decentralized_inputs
from repro.utils.rng import RngFactory

#: Roster size and per-round sample of ``roster1000-async``.
ROSTER = 1000
SAMPLED_K = 10

#: Simulated seconds of gossip delivered after the run before the heads are
#: compared.  Mining has stopped by then, so this only lands messages still
#: in flight (far shorter than this); a real fork would persist.
SETTLE_SIM_S = 60.0


@dataclass
class SpecRun:
    """What one scenario of one repetition produced."""

    spec: ScenarioSpec
    setup_s: float
    rounds_s: float
    completed: int
    skipped: tuple
    logs: list[PeerRoundLog]
    digests: dict[str, str]
    wait_times: dict[str, float]
    ready_after_open: list[float]
    chain_stats: dict
    cache_hits: int
    cache_misses: int
    synced: bool
    #: (height, parent hash) of each distinct head the nodes ended on, for
    #: the failure report.
    heads: dict[str, tuple[int, str]]
    roster_on_chain: int

    def final_accuracy(self) -> float:
        """Cohort mean of each peer's adopted-model accuracy after its last round."""
        last: dict[str, float] = {}
        for log in self.logs:
            last[log.peer_id] = log.chosen_accuracy
        return float(np.mean(list(last.values())))

    def agg_wait(self) -> float:
        """Mean simulated time from round open to the aggregation-ready point."""
        return float(np.mean(self.ready_after_open))

    def submit_wait(self) -> float:
        """Mean wait from a peer's own submission (``ScenarioResult.mean_wait``)."""
        return float(np.mean(list(self.wait_times.values())))


def set_up(spec: ScenarioSpec) -> tuple[DecentralizedFL, float]:
    """Build and deploy one scenario; returns the driver and the seconds taken."""
    started = time.perf_counter()
    rngs = RngFactory(spec.seed)
    inputs = decentralized_inputs(spec, rngs, ScenarioContext())
    driver = DecentralizedFL(
        inputs.peer_configs,
        inputs.train_sets,
        inputs.test_sets,
        model_builder=inputs.model_builder,
        config=inputs.config,
        rng_factory=rngs.spawn("chain"),
    )
    driver.deploy_contracts()
    return driver, time.perf_counter() - started


def run_spec(spec: ScenarioSpec) -> SpecRun:
    """Build, deploy and run one scenario, timing set-up and rounds apart."""
    driver, setup_s = set_up(spec)
    deployed = time.perf_counter()
    logs = driver.run()
    finished = time.perf_counter()

    hits = sum(engine.cache.stats["hits"] for engine in driver.engines.values())
    misses = sum(engine.cache.stats["misses"] for engine in driver.engines.values())
    chain_stats = driver.chain_stats()
    # Read after the run and its stats, so the extra call changes neither.
    deployer = driver.peers[driver.peer_ids[0]]
    registry = driver.runtime.contract_address(deployer.address, 0)
    roster_on_chain = deployer.gateway.call(registry, "member_count")
    driver.sim.run(until=driver.sim.now + SETTLE_SIM_S)
    return SpecRun(
        spec=spec,
        setup_s=setup_s,
        rounds_s=finished - deployed,
        completed=driver.completed_rounds,
        skipped=tuple(driver.skipped_rounds),
        logs=list(logs),
        digests=driver.model_digests(),
        wait_times=driver.wait_time_summary(),
        ready_after_open=[
            timeline.quorum_at - timeline.opened_at
            for tracker in driver.trackers.values()
            for timeline in tracker.timelines.values()
            if timeline.quorum_at is not None
        ],
        chain_stats=chain_stats,
        cache_hits=hits,
        cache_misses=misses,
        synced=driver.network.sync_check(),
        heads={
            node.head.block_hash: (node.height, node.head.header.parent_hash)
            for node in driver.network.nodes()
        },
        roster_on_chain=roster_on_chain,
    )


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def _paper_specs(seed: int) -> tuple[ScenarioSpec, ...]:
    return get_scenario("paper/tables234").build(seed=seed)


def _cohort25_specs(seed: int) -> tuple[ScenarioSpec, ...]:
    return get_scenario("cohort/25").build(seed=seed, quick=True)


def _roster_specs(seed: int) -> tuple[ScenarioSpec, ...]:
    spec = cohort_scenario(ROSTER, seed=seed, sampled_k=SAMPLED_K).quick()
    return (replace(spec, policy=WaitForK(5)),)


def _check_paper(runs: list[SpecRun]) -> list[str]:
    problems = []
    for run in runs:
        sizes = {len(log.combination_accuracy) for log in run.logs}
        if sizes != {7}:
            problems.append(
                f"{run.spec.model_kind}: expected 7 scored subsets per peer-round, saw {sorted(sizes)}"
            )
    if [run.spec.model_kind for run in runs] != ["simple_nn", "efficientnet_b0_sim"]:
        problems.append("paper-3peer must run both model families")
    return problems


def _check_cohort25(runs: list[SpecRun]) -> list[str]:
    problems = []
    for run in runs:
        visible = {log.updates_visible for log in run.logs}
        if visible != {25}:
            problems.append(f"expected every peer to see 25 updates, saw {sorted(visible)}")
        # Greedy forward selection logs only the adopted combination; an
        # exhaustive search would log 2^25 - 1 rows.
        rows = {len(log.combination_accuracy) for log in run.logs}
        if rows != {1}:
            problems.append(f"expected greedy search (1 logged row), saw {sorted(rows)}")
    return problems


def _check_roster(runs: list[SpecRun]) -> list[str]:
    problems = []
    for run in runs:
        if run.roster_on_chain != ROSTER:
            problems.append(f"expected {ROSTER} registered on chain, saw {run.roster_on_chain}")
        visible = float(np.mean([log.updates_visible for log in run.logs]))
        if not visible < SAMPLED_K:
            problems.append(
                f"expected asynchronous aggregation (mean visible < {SAMPLED_K}), saw {visible:.2f}"
            )
    return problems


@dataclass(frozen=True)
class Workload:
    """One named workload: the scenarios it runs and what it must exercise."""

    name: str
    why: str
    build: Callable[[int], tuple[ScenarioSpec, ...]]
    check: Callable[[list[SpecRun]], list[str]]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-3peer",
            "the paper's 3-peer deployment, both model families, exhaustive search; "
            "compute-bound in repro.nn and repro.fl, bypasses round-wait polling",
            _paper_specs,
            _check_paper,
        ),
        Workload(
            "cohort25-sync",
            "25 heterogeneous peers, wait-for-all, greedy search; "
            "bound by quorum polling in the gateway and chain reads",
            _cohort25_specs,
            _check_cohort25,
        ),
        Workload(
            "roster1000-async",
            "1000 registered, 10 sampled, wait-for-5; set-up bound by roster "
            "registration on chain, rounds aggregate asynchronously",
            _roster_specs,
            _check_roster,
        ),
    )
}


def validate_shape(specs: tuple[ScenarioSpec, ...]) -> list[str]:
    """The execution settings every workload must run with."""
    problems = []
    for spec in specs:
        if spec.kind != "decentralized" or spec.runtime != "inprocess":
            problems.append(f"{spec.name}: must be an in-process decentralized run")
        if spec.selection_workers != 0:
            problems.append(f"{spec.name}: selection_workers must be 0")
        if spec.chain.execution != "serial" or spec.chain.cold_storage:
            problems.append(f"{spec.name}: needs serial execution and no cold storage")
        if spec.faults.active:
            problems.append(f"{spec.name}: must run without injected faults")
    return problems
