"""X5 — ledger-gateway transport pricing: in-process vs over the wire.

The FL layer reaches the chain only through the :class:`ChainGateway`
protocol (:mod:`repro.chain.gateway`).  This bench runs the same 25-peer
decentralized scenario over both transports and prices the wire:

* ``inprocess`` — every peer reads its own node through an
  :class:`~repro.chain.gateway.InProcessGateway` (zero wire);
* ``remote`` — peers live in 2 worker OS processes and reach the ledger
  through :class:`~repro.runtime.gateway.RemoteGateway` over framed
  sockets (:mod:`repro.runtime`).

The two arms are byte-identical — model digests, client accuracy, wait
times and chain heights, asserted in-bench — so the only thing the
transport changes is the RPC trips and wire bytes reported here.

``--smoke`` keeps the 25-peer cohort (the profile is the point) but
shrinks data and rounds so the comparison runs in seconds for tier-1.
"""

from __future__ import annotations

from dataclasses import replace

from _bench_util import run_once
from repro.metrics.tables import render_table
from repro.scenarios import ScenarioContext, cohort_scenario, run_scenario

_CACHE: dict = {}


def gateway_params(smoke: bool = False) -> dict:
    """The 25-peer comparison profile for one tier."""
    if smoke:
        return {"size": 25, "rounds": 2, "train": 80, "test": 60}
    return {"size": 25, "rounds": 3, "train": 200, "test": 150}


def _profile_spec(size: int, rounds: int, train: int, test: int, seed: int):
    base = cohort_scenario(size, seed=seed)
    return replace(
        base,
        rounds=rounds,
        local_epochs=1,
        cohort=replace(base.cohort, train_samples=train, test_samples=test),
        aggregator_test_samples=test,
    )


def compare_transports(
    size: int, rounds: int, train: int, test: int, seed: int = 42
) -> dict:
    """Price the profile in-process and over the wire.

    Two arms: in-process (zero wire) and remote (peers in 2 worker
    processes, reads over the socket).  Asserts both arms' results
    identical and returns the per-arm RPC trips and wire megabytes.
    """
    key = (size, rounds, train, test, seed)
    if key in _CACHE:
        return _CACHE[key]
    spec = _profile_spec(size, rounds, train, test, seed)
    context = ScenarioContext()
    local = run_scenario(spec, context=context)
    remote = run_scenario(
        replace(spec, runtime="multiprocess", runtime_workers=2), context=context
    )

    def identity(result):
        return (
            result.model_digests,
            result.client_accuracy,
            result.wait_times,
            result.chain_stats["heights"],
        )

    assert identity(remote) == identity(local)

    def wire_row(arm, result):
        wire = result.chain_stats["gateway"].get("wire", {})
        return {
            "arm": arm,
            "rpc_trips": wire.get("rpc_round_trips", 0),
            "trips_per_round": wire.get("rpc_round_trips", 0) / rounds,
            "wire_mb": (wire.get("bytes_sent", 0) + wire.get("bytes_received", 0))
            / 1e6,
        }

    rows = [wire_row("inprocess", local), wire_row("remote", remote)]
    result = {
        "size": size,
        "rounds": rounds,
        "rows": rows,
        "remote_trips": rows[1]["rpc_trips"],
    }
    _CACHE[key] = result
    return result


def _print_transports(result: dict) -> None:
    print()
    print(
        render_table(
            f"X5: transport pricing ({result['size']} peers, {result['rounds']} rounds)",
            ["arm", "rpc trips/round", "wire MB"],
            [
                [row["arm"], f"{row['trips_per_round']:.0f}", f"{row['wire_mb']:.2f}"]
                for row in result["rows"]
            ],
        )
    )


def test_remote_transport_priced(benchmark, smoke):
    """The remote arm pays real wire; the in-process arm pays none.

    Byte-identity across both arms is asserted inside
    :func:`compare_transports`; the trip counts are deterministic
    functions of the read pattern, so the bounds need no slack.
    """
    result = run_once(benchmark, lambda: compare_transports(**gateway_params(smoke)))
    _print_transports(result)
    assert result["rows"][0]["rpc_trips"] == 0  # in-process: no wire
    assert result["remote_trips"] > 0
    assert result["rows"][1]["wire_mb"] > 0
