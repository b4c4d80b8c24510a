"""The ledger gateway: protocol behavior, error mapping, stats, seam.

Covers the transport-agnostic :mod:`repro.chain.gateway` API the FL layer
programs against:

* ``InProcessGateway`` delegation and instrumentation, and its per-head
  read memo (exact against fresh reads, end to end too);
* typed error mapping (unknown contract / unknown method / reverted call
  / rejected transaction);
* the stack-walking stats helpers and the ``chain_stats()`` view;
* the architectural seam: no FL-layer module reaches into ``.node``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.chain.crypto import KeyPair
from repro.chain.gateway import (
    CallRequest,
    ChainGateway,
    GatewayStats,
    InProcessGateway,
    _payload_bytes,
    transport_stats,
)
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.runtime import ContractRuntime
from repro.chain.transaction import Transaction
from repro.contracts import register_all
from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.peer import FullPeer, PeerConfig
from repro.data.dataset import Dataset
from repro.errors import (
    CallRevertedError,
    GatewayError,
    GatewayTimeoutError,
    NetworkError,
    RoundError,
    TransactionRejectedError,
    UnknownContractError,
    UnknownMethodError,
)
from repro.faults import ResilientGateway
from repro.fl.trainer import TrainConfig
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.nn.serialize import weights_hash
from repro.runtime.gateway import RemoteGateway
from repro.utils.events import Simulator
from repro.utils.rng import RngFactory


def make_node(seed: str = "gw-node") -> tuple[Node, KeyPair]:
    runtime = ContractRuntime()
    register_all(runtime)
    kp = KeyPair.from_seed(seed)
    genesis = GenesisSpec(allocations={kp.address: 10**15})
    return Node(kp, genesis, runtime, NodeConfig()), kp


def mine(node: Node, timestamp: float) -> None:
    block = node.build_block_candidate(timestamp, difficulty=1)
    node.seal_and_import(block, nonce=0)


def deploy_contract(node: Node, kp: KeyPair, timestamp: float, **args) -> str:
    tx = Transaction(
        sender=kp.address,
        to=None,
        nonce=node.next_nonce_for(kp.address),
        args=args,
    ).sign_with(kp)
    node.submit_transaction(tx)
    mine(node, timestamp)
    return node.receipt_of(tx.tx_hash).contract_address


def deploy_registry(node: Node, kp: KeyPair, timestamp: float = 13.0) -> str:
    return deploy_contract(
        node, kp, timestamp, contract="participant_registry", open_enrollment=True
    )


@pytest.fixture
def node_and_registry():
    node, kp = make_node()
    registry = deploy_registry(node, kp)
    return node, kp, registry


class TestCallRequest:
    def test_key_is_canonical_in_arg_order(self):
        a = CallRequest("0xabc", "is_member", {"address": "0x1", "extra": 2})
        b = CallRequest("0xabc", "is_member", {"extra": 2, "address": "0x1"})
        assert a.key() == b.key()

    def test_key_distinguishes_args(self):
        a = CallRequest("0xabc", "is_member", {"address": "0x1"})
        b = CallRequest("0xabc", "is_member", {"address": "0x2"})
        assert a.key() != b.key()


class TestInProcessGateway:
    def test_call_matches_direct_node_read(self, node_and_registry):
        node, kp, registry = node_and_registry
        gateway = InProcessGateway(node)
        assert gateway.call(registry, "member_count") == node.call_contract(
            registry, "member_count"
        )
        assert gateway.stats.calls == 1

    def test_reads_and_counters(self, node_and_registry):
        node, kp, registry = node_and_registry
        gateway = InProcessGateway(node)
        assert gateway.height() == node.height
        assert gateway.head_hash() == node.head.block_hash
        assert gateway.has_contract(registry)
        assert not gateway.has_contract("0x" + "ee" * 20)
        assert gateway.next_nonce(kp.address) == 1
        assert gateway.get_logs(address=registry) == node.get_logs(address=registry)
        stats = gateway.stats
        assert (stats.height_reads, stats.head_checks, stats.contract_checks) == (1, 1, 2)
        assert (stats.nonce_reads, stats.log_queries) == (1, 1)
        assert stats.request_bytes == 0  # no contract calls yet

    def test_batch_call_is_one_round_trip_in_order(self, node_and_registry):
        node, kp, registry = node_and_registry
        gateway = InProcessGateway(node)
        values = gateway.batch_call(
            [
                CallRequest(registry, "member_count"),
                CallRequest(registry, "is_member", {"address": kp.address}),
                CallRequest(registry, "admin"),
            ]
        )
        assert values == [0, False, kp.address]
        assert gateway.stats.batch_calls == 1
        assert gateway.stats.batched_reads == 3
        assert gateway.stats.calls == 0
        assert gateway.stats.contract_call_round_trips == 1
        assert gateway.stats.requested_reads == 3

    def test_submit_enters_mempool(self, node_and_registry):
        node, kp, registry = node_and_registry
        gateway = InProcessGateway(node)
        tx = Transaction(
            sender=kp.address,
            to=registry,
            nonce=gateway.next_nonce(kp.address),
            method="register",
            args={"display_name": "A"},
        ).sign_with(kp)
        assert gateway.submit(tx) == tx.tx_hash
        assert gateway.stats.submits == 1
        mine(node, 26.0)
        assert gateway.call(registry, "is_member", address=kp.address)

    def test_wait_for_without_simulator_raises(self, node_and_registry):
        node, _, _ = node_and_registry
        gateway = InProcessGateway(node)
        with pytest.raises(GatewayError):
            gateway.wait_for(lambda: True, "anything")

    def test_wait_for_timeout_is_a_round_error(self):
        node, _ = make_node()
        sim = Simulator()
        gateway = InProcessGateway(node, simulator=sim)
        # Keep the simulation alive past the deadline so the timeout
        # (not the drained-queue error) fires.
        def tick():
            sim.schedule_in(1.0, tick)
        tick()
        with pytest.raises(GatewayTimeoutError) as excinfo:
            gateway.wait_for(lambda: False, "nothing", deadline=5.0)
        assert isinstance(excinfo.value, RoundError)

    def test_wait_for_drained_simulation_raises_network_error(self):
        node, _ = make_node()
        gateway = InProcessGateway(node, simulator=Simulator())
        with pytest.raises(NetworkError):
            gateway.wait_for(lambda: False, "nothing", deadline=5.0)

    def test_wait_for_returns_when_predicate_holds(self):
        node, _ = make_node()
        sim = Simulator()
        gateway = InProcessGateway(node, simulator=sim)
        seen = []
        sim.schedule_in(2.0, lambda: seen.append(True))
        assert gateway.wait_for(lambda: bool(seen), "flag", deadline=10.0) == 2.0
        assert gateway.stats.waits == 1


def fresh_read(execute, node: Node, stats: GatewayStats, request: CallRequest):
    """One read the way the gateway answered it before the memo: a fresh
    execution (``execute`` is an unpatched ``Node.call_contract``) and a
    fresh encode of both payloads, every time."""
    value = execute(node, request.contract, request.method, **request.args)
    stats.request_bytes += request.wire_bytes()
    stats.response_bytes += _payload_bytes(value)
    return value


def record_executions(monkeypatch) -> list[tuple]:
    """Log ``(node address, head hash, request key)`` per contract execution."""
    executed: list[tuple] = []
    original = Node.call_contract

    def counting(self, contract, method, **args):
        executed.append((self.address, self.head_hash, CallRequest(contract, method, args).key()))
        return original(self, contract, method, **args)

    monkeypatch.setattr(Node, "call_contract", counting)
    return executed


class TestReadMemo:
    """``InProcessGateway`` memoizes reads per head without changing a
    returned value or a counter."""

    def test_memo_is_exact_across_head_changes_and_a_reorg(self, node_and_registry, monkeypatch):
        node, kp, registry = node_and_registry
        fork_node, _ = make_node()
        fork_node.import_block(node.head)
        fresh_execute = Node.call_contract
        executed = record_executions(monkeypatch)
        gateway = InProcessGateway(node)
        expected = GatewayStats()
        requests = [
            CallRequest(registry, "member_count"),
            CallRequest(registry, "is_member", {"address": kp.address}),
            CallRequest(registry, "admin"),
        ]

        def read_everything() -> list:
            seen = []
            for request in requests:
                for _ in range(3):
                    expected.calls += 1
                    want = fresh_read(fresh_execute, node, expected, request)
                    got = gateway.call(request.contract, request.method, **request.args)
                    assert got == want
                    seen.append(got)
            expected.batch_calls += 1
            expected.batched_reads += len(requests)
            want = [fresh_read(fresh_execute, node, expected, request) for request in requests]
            assert gateway.batch_call(requests) == want
            return seen + want

        heads = [node.head_hash]
        before = read_everything()
        register = Transaction(
            sender=kp.address,
            to=registry,
            nonce=node.next_nonce_for(kp.address),
            method="register",
            args={"display_name": "A"},
        ).sign_with(kp)
        node.submit_transaction(register)
        mine(node, 26.0)
        heads.append(node.head_hash)
        registered = read_everything()
        # A longer empty fork outweighs the block with the registration.
        for timestamp in (26.5, 27.0):
            block = fork_node.build_block_candidate(timestamp, difficulty=1)
            fork_node.seal_and_import(block, nonce=0)
            node.import_block(fork_node.head)
        assert node.head_hash == fork_node.head.block_hash
        heads.append(node.head_hash)
        after_reorg = read_everything()

        assert before != registered and after_reorg == before
        assert gateway.stats.as_dict() == expected.as_dict()
        # One execution per (head, request), however often it was read.
        assert sorted(executed) == sorted(
            (node.address, head, request.key()) for head in heads for request in requests
        )

    @pytest.mark.parametrize("case", ["reverted", "unknown_method"])
    def test_failed_reads_are_not_memoized(self, node_and_registry, monkeypatch, case):
        node, kp, registry = node_and_registry
        ledger = deploy_contract(node, kp, 26.0, contract="reputation_ledger")
        contract, method, args, error = {
            # Self-rating reverts inside the contract.
            "reverted": (
                ledger, "rate", {"round_id": 1, "subject": kp.address, "delta": 5}, CallRevertedError
            ),
            "unknown_method": (registry, "no_such_method", {}, UnknownMethodError),
        }[case]
        executed = record_executions(monkeypatch)
        gateway = InProcessGateway(node)
        snapshots = [gateway.stats.as_dict()]
        messages = []
        for _ in range(3):
            with pytest.raises(error) as excinfo:
                gateway.call(contract, method, **args)
            messages.append(str(excinfo.value))
            snapshots.append(gateway.stats.as_dict())
        assert len(executed) == 3  # every repeat executed again
        assert len(set(messages)) == 1
        deltas = [
            {key: after[key] - before[key] for key in after if after[key] != before[key]}
            for before, after in zip(snapshots, snapshots[1:])
        ]
        assert deltas == [{"calls": 1, "contract_call_round_trips": 1, "requested_reads": 1}] * 3


class TestErrorMapping:
    """Node failures surface as typed gateway errors."""

    def test_unknown_contract(self, node_and_registry):
        node, _, _ = node_and_registry
        gateway = InProcessGateway(node)
        with pytest.raises(UnknownContractError):
            gateway.call("0x" + "ee" * 20, "member_count")

    def test_unknown_method(self, node_and_registry):
        node, _, registry = node_and_registry
        gateway = InProcessGateway(node)
        with pytest.raises(UnknownMethodError):
            gateway.call(registry, "no_such_method")

    def test_non_public_method(self, node_and_registry):
        node, _, registry = node_and_registry
        gateway = InProcessGateway(node)
        with pytest.raises(UnknownMethodError):
            gateway.call(registry, "init")

    def test_reverted_call(self, node_and_registry):
        node, kp, _ = node_and_registry
        ledger = deploy_contract(node, kp, 26.0, contract="reputation_ledger")
        gateway = InProcessGateway(node)
        # Self-rating reverts inside the contract.
        with pytest.raises(CallRevertedError):
            gateway.call(ledger, "rate", round_id=1, subject=kp.address, delta=5)

    def test_rejected_transaction(self, node_and_registry):
        node, kp, registry = node_and_registry
        gateway = InProcessGateway(node)
        stale = Transaction(
            sender=kp.address, to=registry, nonce=0, method="register", args={}
        ).sign_with(kp)  # nonce 0 already consumed by the deployment
        with pytest.raises(TransactionRejectedError):
            gateway.submit(stale)

    def test_batch_call_maps_errors_too(self, node_and_registry):
        node, _, registry = node_and_registry
        gateway = InProcessGateway(node)
        with pytest.raises(UnknownMethodError):
            gateway.batch_call(
                [
                    CallRequest(registry, "member_count"),
                    CallRequest(registry, "no_such_method"),
                ]
            )


class TestGatewayStats:
    def test_transport_stats_unwraps_to_innermost(self, node_and_registry):
        node, _, _ = node_and_registry
        inner = InProcessGateway(node)
        gateway = ResilientGateway(inner)
        assert transport_stats(gateway) is inner.stats
        assert transport_stats(inner) is inner.stats

    def test_stats_add_and_dict_shape(self):
        a, b = GatewayStats(calls=2, batch_calls=1, batched_reads=3), GatewayStats(calls=1)
        a.add(b)
        payload = a.as_dict()
        assert payload["calls"] == 3
        assert payload["contract_call_round_trips"] == 4
        assert payload["requested_reads"] == 6
        assert "read_seconds" not in payload  # wall-clock stays off results


def easy_dataset(rng, n=60):
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] > 0).astype(np.int64)
    return Dataset(x, y)


def run_tiny_driver():
    peers = ("A", "B", "C")
    data_rng = np.random.default_rng(0)
    driver = DecentralizedFL(
        [
            PeerConfig(peer_id=p, train_config=TrainConfig(epochs=1), training_time=5.0)
            for p in peers
        ],
        {p: easy_dataset(data_rng, n=60) for p in peers},
        {p: easy_dataset(data_rng, n=40) for p in peers},
        lambda rng: Sequential([Dense(2, name="out")]).build(np.random.default_rng(42), (4,)),
        DecentralizedConfig(rounds=2, enable_reputation=True),
        rng_factory=RngFactory(5),
    )
    logs = driver.run()
    return driver, logs


class TestBackendEquivalence:
    """The driver's ``chain_stats()`` carries the gateway counters."""

    def test_chain_stats_carries_gateway_instrumentation(self):
        driver, _ = run_tiny_driver()
        stats = driver.chain_stats()
        gateway = stats["gateway"]
        assert gateway["requested"] == gateway["transport"]
        assert gateway["requested"]["contract_call_round_trips"] > 0
        assert gateway["requested"]["submits"] > 0
        assert stats["heights"]  # heights come from gateway.height()


def read_without_memo(self, request: CallRequest):
    """``InProcessGateway._execute_read`` with the read memo taken out."""
    value = self._call_node(request)
    self.stats.request_bytes += request.wire_bytes()
    self.stats.response_bytes += _payload_bytes(value)
    return value


def run_wait_for_all_cohort():
    """Four peers with staggered training times, so every peer's quorum
    wait polls through several head changes before all updates show."""
    peers = ("A", "B", "C", "D")
    data_rng = np.random.default_rng(1)
    driver = DecentralizedFL(
        [
            PeerConfig(
                peer_id=p,
                train_config=TrainConfig(epochs=1),
                training_time=10.0 + 15.0 * index,
            )
            for index, p in enumerate(peers)
        ],
        {p: easy_dataset(data_rng, n=60) for p in peers},
        {p: easy_dataset(data_rng, n=40) for p in peers},
        lambda rng: Sequential([Dense(2, name="out")]).build(np.random.default_rng(42), (4,)),
        DecentralizedConfig(rounds=2, enable_reputation=True),
        rng_factory=RngFactory(11),
    )
    logs = driver.run()
    digests = {
        peer_id: weights_hash(peer.client.model.get_weights())
        for peer_id, peer in sorted(driver.peers.items())
    }
    outcome = [
        (log.peer_id, log.round_id, log.chosen_combination, log.chosen_accuracy, log.wait_time)
        for log in logs
    ]
    return driver, digests, outcome


class TestReadMemoEndToEnd:
    """Regression guard: a wait-for-all cohort with the memo gives the
    unmemoized run's results and counters, while each node executes a
    read at most once per (head, request) instead of once per poll."""

    def test_memo_keeps_results_and_bounds_contract_executions(self, monkeypatch):
        executed = record_executions(monkeypatch)
        driver, digests, outcome = run_wait_for_all_cohort()
        stats = driver.chain_stats()
        memo_executions = list(executed)
        monkeypatch.setattr(InProcessGateway, "_execute_read", read_without_memo)
        del executed[:]
        ref_driver, ref_digests, ref_outcome = run_wait_for_all_cohort()
        ref_stats = ref_driver.chain_stats()

        assert digests == ref_digests
        assert outcome == ref_outcome
        assert stats["gateway"] == ref_stats["gateway"]
        assert stats == ref_stats
        # Each (node, head, request) executed once: per node at most
        # distinct heads x distinct requests, however long the polls ran.
        assert len(memo_executions) == len(set(memo_executions))
        for address in {entry[0] for entry in memo_executions}:
            mine = [entry for entry in memo_executions if entry[0] == address]
            heads = {head for _, head, _ in mine}
            requests = {key for _, _, key in mine}
            assert len(mine) <= len(heads) * len(requests)
        # Without the memo every poll re-executes: the guard has teeth.
        assert len(executed) == stats["gateway"]["requested"]["requested_reads"]
        assert 2 * len(memo_executions) < len(executed)


REPO_ROOT = Path(__file__).resolve().parent.parent


class TestGatewaySeam:
    """Architecture test: the FL layer never touches a node.

    Delegates to the ``seam`` lint rule (AST-accurate, aliased-import
    aware) — the tokenizer scan that used to live here is retired.  The
    linter's own suite covers the rule's corners; this test keeps the
    seam failure local to the gateway suite where it was born.
    """

    def test_no_node_access_outside_chain_package(self):
        from repro.devtools.lint import LintEngine
        from repro.devtools.lint.rules import SeamRule

        engine = LintEngine(rules=[SeamRule()], root=REPO_ROOT)
        offenders = engine.lint_paths(
            [REPO_ROOT / "src" / "repro", REPO_ROOT / "examples"]
        )
        assert offenders == [], (
            "FL-layer code must go through the ChainGateway protocol; "
            "found raw node access:\n"
            + "\n".join(f.render() for f in offenders)
        )

    def test_full_peer_exposes_gateway_not_node(self):
        assert "gateway" in FullPeer.__init__.__code__.co_varnames
        assert "node" not in FullPeer.__init__.__code__.co_varnames

    def test_gateway_protocol_is_satisfied_by_both_backends(self):
        node, _ = make_node()
        inner = InProcessGateway(node)
        assert isinstance(inner, ChainGateway)
        assert isinstance(RemoteGateway(channel=None, peer_id="A"), ChainGateway)
