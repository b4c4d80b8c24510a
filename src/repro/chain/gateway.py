"""ChainGateway: the transport-agnostic ledger API of the FL layer.

The FL layer never touches a :class:`~repro.chain.node.Node` directly —
every read, submission, and wait goes through a :class:`ChainGateway`, a
narrow JSON-RPC-flavored service protocol (``call`` / ``batch_call`` /
``submit`` / ``height`` / ``head_hash`` / ``has_contract`` / ``get_logs``
/ ``next_nonce`` / ``wait_for``).  That seam is what lets peers later run
out-of-process or against a remote chain without touching the FL code,
and it is where read memoization lives.

:class:`InProcessGateway` is the in-process transport: it wraps a local
``Node`` (plus the simulated p2p network for submissions and the event
engine for waits).  Behavior is bit-identical to the pre-gateway direct
calls, which the equivalence tests pin.  Contract reads are memoized
per canonical head: read-only contract state is a pure function of the
head, so a repeated read of an unchanged head returns the value (and
byte counts) of its first execution instead of re-running the contract
and re-encoding the response.  Wait-for-all quorum polling re-reads the
same submissions after every simulator event; the memo makes those
polls cost a dict lookup.  The out-of-process transport
(:class:`~repro.runtime.gateway.RemoteGateway`) and the fault/retry
decorators (:mod:`repro.faults.gateway`) implement the same protocol.

Values returned by reads may be shared between calls (the memo hands
out the stored object), so callers must treat them as read-only.

Transport failures surface as typed :class:`~repro.errors.GatewayError`
subclasses — unknown contract, unknown method, reverted call, rejected
transaction, timed-out wait — identically across backends, so FL-layer
callers never catch raw ``KeyError`` or backend internals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional, Protocol, Sequence, runtime_checkable

from repro.chain.crypto import Address
from repro.chain.network import P2PNetwork
from repro.chain.node import Node
from repro.chain.transaction import Transaction
from repro.errors import (
    CallRevertedError,
    ContractNotFoundError,
    ContractRevertError,
    GatewayError,
    GatewayTimeoutError,
    MempoolError,
    MethodNotFoundError,
    NetworkError,
    SerializationError,
    TransactionRejectedError,
    UnknownContractError,
    UnknownMethodError,
)
from repro.utils.events import Simulator
from repro.utils.serialization import canonical_dumps

#: Default wait deadline (simulated seconds) when the caller gives none.
DEFAULT_WAIT_DEADLINE = 100_000.0


def _payload_bytes(value: Any) -> int:
    """Wire-size estimate of one request/response payload."""
    try:
        return len(canonical_dumps(value))
    except SerializationError:
        return len(repr(value).encode("utf-8", errors="replace"))


@dataclass(frozen=True)
class CallRequest:
    """One read-only contract call (the unit ``batch_call`` coalesces)."""

    contract: Address
    method: str
    args: dict = field(default_factory=dict)

    def key(self) -> tuple:
        """Canonical identity of this read (cache / dedup key)."""
        return (self.contract, self.method, canonical_dumps(self.args))

    def wire_bytes(self) -> int:
        """Wire-size estimate of the encoded request."""
        return _payload_bytes({"to": self.contract, "method": self.method, "args": self.args})


@dataclass
class GatewayStats:
    """Per-gateway instrumentation: counts, bytes, round trips, latency.

    ``calls`` counts single-read round trips and ``batch_calls`` counts
    batched round trips (each batch is one trip carrying ``batched_reads``
    reads) — ``contract_call_round_trips`` is the number of contract-read
    trips a transport performed.  ``cache_hits`` counts stale reads the
    fault layer served from its remembered values; ``head_checks``
    counts ``head_hash`` calls.
    """

    calls: int = 0
    batch_calls: int = 0
    batched_reads: int = 0
    submits: int = 0
    height_reads: int = 0
    head_checks: int = 0
    contract_checks: int = 0
    log_queries: int = 0
    nonce_reads: int = 0
    waits: int = 0
    cache_hits: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    read_seconds: float = 0.0
    # Resilience telemetry (populated by the fault/retry decorators in
    # repro.faults.gateway; zero everywhere else).  ``backoff_seconds``
    # is deterministic simulated budget accounting, not wall clock, so it
    # stays in ``as_dict`` unlike ``read_seconds``.
    retries: int = 0
    faults_injected: int = 0
    deadline_misses: int = 0
    gave_up: int = 0
    deduped_submits: int = 0
    backoff_seconds: float = 0.0
    # Wire telemetry (populated by the out-of-process transport in
    # repro.runtime; all zeros for in-process backends).  The byte and
    # round-trip counters are deterministic functions of the run and stay
    # in ``as_dict``; the latency accumulators are wall clock and are
    # excluded like ``read_seconds``.
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    rpc_round_trips: int = 0
    wire_seconds: float = 0.0
    wire_method_seconds: dict = field(default_factory=dict)

    #: Wall-clock accumulators excluded from :meth:`as_dict` so result
    #: objects stay deterministic across identical runs.
    _WALL_CLOCK_FIELDS = ("read_seconds", "wire_seconds", "wire_method_seconds")

    @property
    def contract_call_round_trips(self) -> int:
        """Contract-read round trips this gateway performed."""
        return self.calls + self.batch_calls

    @property
    def requested_reads(self) -> int:
        """Contract reads asked of this gateway (before any coalescing)."""
        return self.calls + self.batched_reads

    def add(self, other: "GatewayStats") -> None:
        """Accumulate another gateway's counters (cohort aggregation)."""
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0.0) + value
            else:
                setattr(self, spec.name, mine + theirs)

    def as_dict(self) -> dict:
        """Counters plus the derived round-trip totals.

        The wall-clock latency accumulators (``read_seconds``,
        ``wire_seconds``, per-method wire latency) are deliberately left
        out: every other number here is a deterministic function of the
        run, and result objects compare equal across identical runs.  The
        latency accumulators stay readable on the object itself (the
        gateway benchmarks report them).
        """
        payload = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in self._WALL_CLOCK_FIELDS
        }
        payload["contract_call_round_trips"] = self.contract_call_round_trips
        payload["requested_reads"] = self.requested_reads
        return payload


@runtime_checkable
class ChainGateway(Protocol):
    """The ledger service API the FL layer programs against.

    Implementations must expose a :class:`GatewayStats` as ``stats`` and
    raise :class:`~repro.errors.GatewayError` subclasses for transport
    failures.  All reads answer from the backend's canonical head view.
    A backend may memoize reads per head (the in-process one does), so a
    returned value can be the same object a previous call returned:
    callers must treat read results as shared and read-only.
    """

    stats: GatewayStats

    def call(self, contract: Address, method: str, **args: Any) -> Any:
        """Read-only contract call (``eth_call``)."""
        ...

    def batch_call(self, requests: Sequence[CallRequest]) -> list[Any]:
        """Execute independent reads in one round trip, preserving order."""
        ...

    def submit(self, tx: Transaction) -> str:
        """Submit a signed transaction; returns its hash."""
        ...

    def height(self) -> int:
        """Canonical chain height."""
        ...

    def head_hash(self) -> str:
        """Canonical head block hash (the read-cache fingerprint)."""
        ...

    def has_contract(self, address: Address) -> bool:
        """True iff a contract is deployed at ``address`` in head state."""
        ...

    def get_logs(
        self,
        address: Optional[Address] = None,
        topic: Optional[str] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> list:
        """Query contract events over the canonical range (``eth_getLogs``)."""
        ...

    def next_nonce(self, address: Address) -> int:
        """Nonce a wallet should use next (head nonce + pending count)."""
        ...

    def now(self) -> float:
        """Transport clock (simulated seconds in-process)."""
        ...

    def wait_for(
        self,
        predicate: Callable[[], bool],
        what: str,
        deadline: Optional[float] = None,
    ) -> float:
        """Advance the transport until ``predicate`` holds; returns the time."""
        ...


class InProcessGateway:
    """Gateway backend wrapping a local :class:`~repro.chain.node.Node`.

    ``network`` (when given) gossips submissions exactly as the pre-gateway
    drivers did; ``simulator`` backs ``wait_for`` and the transport clock.
    Results are bit-identical to calling the node directly — the contract
    the equivalence suite pins.

    Contract reads go through a memo keyed by :meth:`CallRequest.key`
    and emptied whenever the node's canonical head changes.  A read only
    sees head state, the node's own address as caller, and the head's
    height and timestamp, so a hit returns exactly what a fresh
    execution would.  A hit still counts as a read and adds the request
    and response byte counts measured when the entry was stored, so
    ``stats.as_dict()`` is the same as without the memo; only the wall
    clock ``read_seconds`` moves.  Reads that raise are not stored.

    The wrapped ``node`` stays reachable as ``.node`` for chain forensics
    (merkle evidence, receipts) and tests; FL-layer *code* must not use it
    (a seam test greps for that).
    """

    def __init__(
        self,
        node: Node,
        network: Optional[P2PNetwork] = None,
        simulator: Optional[Simulator] = None,
        default_deadline: float = DEFAULT_WAIT_DEADLINE,
    ) -> None:
        self.node = node
        self.network = network
        self.simulator = simulator
        self.default_deadline = default_deadline
        self.stats = GatewayStats()
        # Read memo: the head its entries were read at, and
        # request key -> (value, request bytes, response bytes).
        self._memo_head: Optional[str] = None
        self._memo: dict[tuple, tuple[Any, int, int]] = {}

    # -- reads -------------------------------------------------------------

    def _execute_read(self, request: CallRequest) -> Any:
        """One contract read, memoized per head, with transport errors
        mapped to gateway types."""
        started = time.perf_counter()
        try:
            head = self.node.head_hash
            if head != self._memo_head:
                self._memo = {}
                self._memo_head = head
            key = request.key()
            entry = self._memo.get(key)
            if entry is None:
                value = self._call_node(request)
                entry = (value, request.wire_bytes(), _payload_bytes(value))
                self._memo[key] = entry
        finally:
            self.stats.read_seconds += time.perf_counter() - started
        value, request_bytes, response_bytes = entry
        self.stats.request_bytes += request_bytes
        self.stats.response_bytes += response_bytes
        return value

    def _call_node(self, request: CallRequest) -> Any:
        """Execute one read on the node, mapping its errors to gateway types."""
        try:
            return self.node.call_contract(request.contract, request.method, **request.args)
        except ContractNotFoundError as exc:
            raise UnknownContractError(str(exc)) from exc
        except MethodNotFoundError as exc:
            raise UnknownMethodError(str(exc)) from exc
        except ContractRevertError as exc:
            raise CallRevertedError(exc.reason or str(exc)) from exc

    def call(self, contract: Address, method: str, **args: Any) -> Any:
        """Read-only contract call against the node's head state."""
        self.stats.calls += 1
        return self._execute_read(CallRequest(contract, method, args))

    def batch_call(self, requests: Sequence[CallRequest]) -> list[Any]:
        """Serve independent reads in one (in-process) round trip."""
        self.stats.batch_calls += 1
        self.stats.batched_reads += len(requests)
        return [self._execute_read(request) for request in requests]

    def height(self) -> int:
        """Canonical chain height."""
        self.stats.height_reads += 1
        return self.node.height

    def head_hash(self) -> str:
        """Canonical head hash — changes exactly when head state can."""
        self.stats.head_checks += 1
        return self.node.head_hash

    def has_contract(self, address: Address) -> bool:
        """Contract-deployed check at the head state."""
        self.stats.contract_checks += 1
        return self.node.has_contract(address)

    def get_logs(
        self,
        address: Optional[Address] = None,
        topic: Optional[str] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> list:
        """Event query over the node's canonical receipts."""
        self.stats.log_queries += 1
        return self.node.get_logs(
            address=address, topic=topic, from_block=from_block, to_block=to_block
        )

    def next_nonce(self, address: Address) -> int:
        """Wallet nonce: head account nonce plus pending transactions."""
        self.stats.nonce_reads += 1
        return self.node.next_nonce_for(address)

    # -- writes ------------------------------------------------------------

    def submit(self, tx: Transaction) -> str:
        """Admit a signed transaction locally and gossip it (when wired).

        A mempool rejection (forged signature, stale nonce, unaffordable
        cost, pool full) surfaces as a typed
        :class:`~repro.errors.TransactionRejectedError`; benign duplicates
        are accepted silently, as on a real client.
        """
        self.stats.submits += 1
        self.stats.request_bytes += _payload_bytes(
            {"to": tx.to, "method": tx.method, "args": tx.args, "nonce": tx.nonce}
        )
        if self.network is not None:
            if not self.network.broadcast_transaction(self.node.address, tx):
                raise TransactionRejectedError(
                    f"transaction {tx.tx_hash[:10]} rejected by the mempool"
                )
            return tx.tx_hash
        try:
            self.node.submit_transaction(tx)
        except MempoolError as exc:
            raise TransactionRejectedError(str(exc)) from exc
        return tx.tx_hash

    # -- clock / waits -----------------------------------------------------

    def now(self) -> float:
        """Simulated transport time (0.0 without a simulator)."""
        return self.simulator.now if self.simulator is not None else 0.0

    def wait_for(
        self,
        predicate: Callable[[], bool],
        what: str,
        deadline: Optional[float] = None,
    ) -> float:
        """Step the event engine until ``predicate`` holds.

        Raises :class:`~repro.errors.GatewayTimeoutError` (a
        :class:`~repro.errors.RoundError`) past the deadline and
        :class:`~repro.errors.NetworkError` if the simulation drains first
        — the exact semantics of the pre-gateway ``_wait_until``.
        """
        if self.simulator is None:
            raise GatewayError(f"gateway has no simulator to wait for {what}")
        self.stats.waits += 1
        sim = self.simulator
        limit = sim.now + (deadline if deadline is not None else self.default_deadline)
        while sim.now <= limit:
            if predicate():
                return sim.now
            if not sim.step():
                raise NetworkError(f"simulation drained while waiting for {what}")
        raise GatewayTimeoutError(f"timed out waiting for {what} at t={sim.now:.1f}")


def gateway_layers(gateway: ChainGateway) -> list[ChainGateway]:
    """Every layer of a decorated gateway stack, outermost first.

    Decorators expose the wrapped gateway as ``.inner`` (the convention
    the fault/retry decorators follow), so walking ``inner`` enumerates
    the whole stack down to the transport.
    """
    layers: list[ChainGateway] = [gateway]
    while hasattr(layers[-1], "inner"):
        layers.append(layers[-1].inner)
    return layers


def stacked_stats(gateway: ChainGateway) -> GatewayStats:
    """Sum of every layer's counters in a decorated gateway stack.

    Mid-stack telemetry (``faults_injected`` and stale-read
    ``cache_hits`` on the fault layer, ``retries`` on the resilience
    layer) lives on different layers; this is the one view that sees all
    of it at once.
    """
    total = GatewayStats()
    for layer in gateway_layers(gateway):
        total.add(layer.stats)
    return total


def transport_stats(gateway: ChainGateway) -> GatewayStats:
    """The stats of the gateway actually touching the transport.

    For a decorated gateway (the fault/retry stack) that is the
    innermost backend's counters — the real round trips; for a plain
    backend it is its own counters.
    """
    return gateway_layers(gateway)[-1].stats
