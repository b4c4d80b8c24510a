"""Command-line scenario runner: one declarative entry point per workload.

Usage::

    python -m repro.experiments list                  # registered scenarios
    python -m repro.experiments run paper/table1      # any scenario by name
    python -m repro.experiments run cohort/25 --quick
    python -m repro.experiments run adversarial/label_flip --seed 7
    python -m repro.experiments sweep cohort --sizes 10 25 50

``run`` executes a named scenario from the registry
(:mod:`repro.scenarios.registry`) — the paper's artifacts
(``paper/table1``, ``paper/tables234``, ``paper/tradeoff``), cohort-scaling
workloads (any ``cohort/<n>``), adversarial and heterogeneous-device
setups — and prints its rendered report.  ``sweep`` drives grids through
the shared-dataset sweep driver (:mod:`repro.scenarios.sweep`); the
``cohort`` axis is the ROADMAP's 10-50-peer speed/precision measurement.
Results are deterministic per ``--seed``; ``--quick`` shrinks any scenario
to test scale.

The pre-scenario artifact commands (``table1`` … ``table4``, ``fig3``,
``fig4``, ``tradeoff``, ``all``) are kept as aliases and print
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.core.config import default_config
from repro.core.decentralized import DecentralizedConfig
from repro.core.experiment import run_decentralized_experiment, run_vanilla_experiment
from repro.errors import ConfigError
from repro.fl.async_policy import WaitForAll, WaitForK
from repro.metrics.figures import (
    combination_figure_series,
    render_ascii_chart,
    vanilla_figure_series,
)
from repro.metrics.tables import (
    MODEL_LABELS,
    format_combination_table,
    format_sweep_table,
    format_table1,
    render_table,
)
from repro.scenarios import (
    ScenarioContext,
    cohort_sweep,
    get_scenario,
    list_scenarios,
    replace_axis,
    run_scenario,
)
from repro.scenarios.registry import PAPER_MODELS, TRADEOFF_HEADER, tradeoff_row
from repro.scenarios.spec import RUNTIME_KINDS

_PEER_OF_TABLE = {"table2": "A", "table3": "B", "table4": "C"}
_LEGACY_ARTIFACTS = ("table1", "table2", "table3", "table4", "fig3", "fig4", "tradeoff")


# ---------------------------------------------------------------------------
# Legacy artifact helpers (alias commands print byte-identical output)
# ---------------------------------------------------------------------------


def _table1(model_kind: str, seed: int) -> str:
    config = default_config(model_kind, seed=seed)
    consider = run_vanilla_experiment(config, consider=True)
    not_consider = run_vanilla_experiment(config, consider=False)
    series = {
        client: {
            "consider": consider.client_accuracy[client],
            "not_consider": not_consider.client_accuracy[client],
        }
        for client in config.client_ids
    }
    return format_table1(MODEL_LABELS[model_kind], series)


def _combination_table(model_kind: str, peer_id: str, seed: int) -> str:
    config = default_config(model_kind, seed=seed)
    result = run_decentralized_experiment(config)
    return format_combination_table(
        MODEL_LABELS[model_kind], peer_id, result.combination_accuracy[peer_id]
    )


def _fig3(model_kind: str, seed: int) -> str:
    config = default_config(model_kind, seed=seed)
    consider = run_vanilla_experiment(config, consider=True)
    not_consider = run_vanilla_experiment(config, consider=False)
    series = {
        client: {
            "consider": consider.client_accuracy[client],
            "not consider": not_consider.client_accuracy[client],
        }
        for client in config.client_ids
    }
    blocks = [
        render_ascii_chart(curves, title=f"Fig 3 ({MODEL_LABELS[model_kind]}) {panel}")
        for panel, curves in vanilla_figure_series(series).items()
    ]
    return "\n\n".join(blocks)


def _fig4(model_kind: str, seed: int) -> str:
    config = default_config(model_kind, seed=seed)
    result = run_decentralized_experiment(config)
    blocks = [
        render_ascii_chart(curves, title=f"Fig 4 ({MODEL_LABELS[model_kind]}) {panel}")
        for panel, curves in combination_figure_series(result.combination_accuracy).items()
    ]
    return "\n\n".join(blocks)


def _tradeoff(model_kind: str, seed: int) -> str:
    config = default_config(model_kind, seed=seed)
    rows = []
    for policy in (WaitForK(1), WaitForK(2), WaitForAll()):
        result = run_decentralized_experiment(
            config, chain_config=DecentralizedConfig(policy=policy)
        )
        rows.append(tradeoff_row(policy.describe(), result.wait_times, result.round_logs))
    return render_table(
        f"Wait-or-not sweep ({MODEL_LABELS[model_kind]})", TRADEOFF_HEADER, rows
    )


COMMANDS = {
    "table1": _table1,
    "fig3": _fig3,
    "fig4": _fig4,
    "tradeoff": _tradeoff,
}


def _run_legacy(artifact: str, model: str, seed: int) -> int:
    model_kinds = list(PAPER_MODELS) if model == "both" else [model]
    artifacts = list(_LEGACY_ARTIFACTS) if artifact == "all" else [artifact]
    for name in artifacts:
        for model_kind in model_kinds:
            if name in _PEER_OF_TABLE:
                text = _combination_table(model_kind, _PEER_OF_TABLE[name], seed)
            else:
                text = COMMANDS[name](model_kind, seed)
            print(text)
            print()
    return 0


# ---------------------------------------------------------------------------
# Scenario commands
# ---------------------------------------------------------------------------


def _run_named_scenario(
    name: str,
    seed: int,
    quick: bool,
    model: str | None,
    workers: int = 0,
    runtime: str | None = None,
    runtime_workers: int = 0,
    sampled_k: int = 0,
    execution: str | None = None,
    execution_workers: int = 0,
    cold_storage: bool = False,
) -> int:
    models = None
    if model is not None:
        models = PAPER_MODELS if model == "both" else (model,)
    try:
        definition = get_scenario(name)
        specs = definition.build(seed=seed, quick=quick, models=models)
        if sampled_k:
            # Participation knob: each round trains a sampled k-peer
            # subcohort (deterministic per seed; vanilla specs have no
            # round structure to sample).
            specs = tuple(
                replace_axis(spec, "participation.sampled_k", sampled_k)
                if spec.kind == "decentralized"
                else spec
                for spec in specs
            )
        if workers:
            # Pure wall-clock knob: the combination-scoring engine produces
            # identical results at any worker count (vanilla specs have no
            # combination search to parallelize and keep their field as-is).
            specs = tuple(
                replace(spec, selection_workers=workers) if spec.kind == "decentralized" else spec
                for spec in specs
            )
        if runtime or runtime_workers:
            # Process-topology knob: the multiprocess runtime is
            # byte-identical to in-process at the same seed.
            overrides = {}
            if runtime:
                overrides["runtime"] = runtime
            if runtime_workers:
                overrides["runtime_workers"] = runtime_workers
            specs = tuple(
                replace(spec, **overrides) if spec.kind == "decentralized" else spec
                for spec in specs
            )
        # Chain scale-out knobs: byte-neutral resource axes (parallel
        # execution and cold storage change memory/wall-clock, never
        # results).
        for axis_path, value in (
            ("chain.execution", execution),
            ("chain.execution_workers", execution_workers or None),
            ("chain.cold_storage", True if cold_storage else None),
        ):
            if value is None:
                continue
            specs = tuple(
                replace_axis(spec, axis_path, value)
                if spec.kind == "decentralized"
                else spec
                for spec in specs
            )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    context = ScenarioContext()
    results = [run_scenario(spec, context=context) for spec in specs]
    for block in definition.render(specs, results):
        print(block)
        print()
    return 0


def _run_sweep(
    axis: str,
    sizes: list[int],
    wait_for: int | None,
    seed: int,
    quick: bool,
    workers: int = 0,
    runtime: str | None = None,
    runtime_workers: int = 0,
    sampled_k: int = 0,
) -> int:
    del axis  # only "cohort" exists today; argparse restricts the choice
    try:
        policy = WaitForK(wait_for) if wait_for is not None else None
        rows = cohort_sweep(
            sizes,
            seed=seed,
            quick=quick,
            policy=policy,
            selection_workers=workers or None,
            runtime=runtime,
            runtime_workers=runtime_workers or None,
            sampled_k=sampled_k or None,
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_sweep_table("Cohort scaling sweep (speed vs precision)", rows))
    return 0


def _run_list() -> int:
    rows = [[definition.name, definition.description] for definition in list_scenarios()]
    rows.append(["cohort/<n>", "any cohort size n >= 2 resolves dynamically"])
    rows.append(
        ["cohort/<n>/sampled/<k>", "cohort/<n> with k-of-n client sampling per round"]
    )
    print(render_table("Registered scenarios", ["name", "description"], rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    model_choices = ["simple_nn", "efficientnet_b0_sim", "both"]
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run declarative scenarios (and regenerate the paper's artifacts).",
    )
    # The seed CLI accepted flag-first orderings like `--seed 7 table1`;
    # keep them valid by mirroring --seed/--model at the top level (the
    # per-subcommand flags, when given, win).
    parser.add_argument(
        "--seed", type=int, default=None, dest="global_seed", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--model",
        choices=model_choices,
        default=None,
        dest="global_model",
        help=argparse.SUPPRESS,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a named scenario from the registry")
    run_parser.add_argument("scenario", help="scenario name, e.g. paper/table1 or cohort/25")
    run_parser.add_argument("--seed", type=int, default=None, help="experiment seed (default 42)")
    run_parser.add_argument(
        "--quick", action="store_true", help="shrink to test scale (2 rounds, small splits)"
    )
    run_parser.add_argument(
        "--model",
        choices=model_choices,
        default=None,
        help="override the scenario's model families",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="combination-search worker processes (0 = in-process; results identical)",
    )
    run_parser.add_argument(
        "--runtime",
        choices=list(RUNTIME_KINDS),
        default=None,
        help="cohort process topology (multiprocess is byte-identical to inprocess)",
    )
    run_parser.add_argument(
        "--runtime-workers",
        type=int,
        default=0,
        help="worker processes for --runtime multiprocess (default 2)",
    )
    run_parser.add_argument(
        "--sampled-k",
        type=int,
        default=0,
        help="train a sampled k-peer subcohort per round (0 = full participation)",
    )
    run_parser.add_argument(
        "--execution",
        choices=["serial", "parallel"],
        default=None,
        help="block transaction execution mode (parallel is byte-identical to serial)",
    )
    run_parser.add_argument(
        "--execution-workers",
        type=int,
        default=0,
        help="speculation worker processes for --execution parallel (0 = inline)",
    )
    run_parser.add_argument(
        "--cold-storage",
        action="store_true",
        help="spill old blocks/receipts to a shared cold store (results identical)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="sweep a scenario axis through the shared-dataset driver"
    )
    sweep_parser.add_argument("axis", choices=["cohort"], help="axis to sweep")
    sweep_parser.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 25, 50], help="cohort sizes"
    )
    sweep_parser.add_argument(
        "--wait-for", type=int, default=None, help="use wait-for-k instead of wait-for-all"
    )
    sweep_parser.add_argument("--seed", type=int, default=None, help="experiment seed (default 42)")
    sweep_parser.add_argument("--quick", action="store_true", help="shrink to test scale")
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="combination-search worker processes (0 = in-process; results identical)",
    )
    sweep_parser.add_argument(
        "--runtime",
        choices=list(RUNTIME_KINDS),
        default=None,
        help="cohort process topology (multiprocess is byte-identical to inprocess)",
    )
    sweep_parser.add_argument(
        "--runtime-workers",
        type=int,
        default=0,
        help="worker processes for --runtime multiprocess (default 2)",
    )
    sweep_parser.add_argument(
        "--sampled-k",
        type=int,
        default=0,
        help="train a sampled k-peer subcohort per round (0 = full participation)",
    )

    subparsers.add_parser("list", help="list registered scenarios")

    for artifact in (*_LEGACY_ARTIFACTS, "all"):
        legacy = subparsers.add_parser(
            artifact, help=f"(legacy alias) regenerate {artifact}"
        )
        legacy.add_argument(
            "--model",
            choices=model_choices,
            default=None,
            help="model family (default: both, as in the paper's tables)",
        )
        legacy.add_argument("--seed", type=int, default=None, help="experiment seed (default 42)")

    args = parser.parse_args(argv)
    seed = next(
        (value for value in (getattr(args, "seed", None), args.global_seed) if value is not None),
        42,
    )
    model = getattr(args, "model", None) or args.global_model

    if args.command == "run":
        return _run_named_scenario(
            args.scenario,
            seed,
            args.quick,
            model,
            args.workers,
            args.runtime,
            args.runtime_workers,
            args.sampled_k,
            args.execution,
            args.execution_workers,
            args.cold_storage,
        )
    if args.command == "sweep":
        return _run_sweep(
            args.axis,
            args.sizes,
            args.wait_for,
            seed,
            args.quick,
            args.workers,
            args.runtime,
            args.runtime_workers,
            args.sampled_k,
        )
    if args.command == "list":
        return _run_list()
    return _run_legacy(args.command, model or "both", seed)


if __name__ == "__main__":
    sys.exit(main())
