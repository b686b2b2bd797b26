"""The CLI's flag surface: the detection commands share one deploy flag
set, and every subcommand keeps exactly its pinned flags."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser

#: Deploy, observability, health and quality flags that ``monitor``,
#: ``fleet`` and ``serve`` share.
DEPLOY_FLAGS = [
    "--seed", "--windows", "--split-seed", "--classifier", "--ensemble",
    "--hpcs", "--model-id", "--registry-dir", "--counters", "--vote-threshold",
    "--stride", "--trace-out", "--metrics-out", "--health-out", "--alerts",
    "--alert", "--slo", "--health-window", "--quality-ref", "--quality-out",
    "--quality-alert", "--quality-window", "--quality-min-windows",
]

#: Every subcommand's flags (``--help`` aside).
SUBCOMMAND_FLAGS = {
    "corpus": ["--seed", "--windows", "--csv", "--arff"],
    "rank": ["--seed", "--windows", "--split-seed", "--method", "--top"],
    "evaluate": [
        "--seed", "--windows", "--split-seed", "--classifier", "--ensemble",
        "--hpcs",
    ],
    "train": [
        "--seed", "--windows", "--split-seed", "--classifier", "--ensemble",
        "--hpcs", "--registry-dir", "--tag", "--trace-out", "--metrics-out",
    ],
    "models": ["--registry-dir"],
    "profile": [
        "--seed", "--windows", "--split-seed", "--classifier", "--ensemble",
        "--hpcs", "--vote-threshold", "--bins", "--out",
    ],
    "matrix": [
        "--seed", "--windows", "--split-seeds", "--classifiers", "--budgets",
        "--ensembles", "--workers", "--cache-dir", "--timings", "--trace-out",
        "--metrics-out",
    ],
    "hardware": [
        "--seed", "--windows", "--split-seed", "--workers", "--cache-dir",
        "--timings", "--trace-out", "--metrics-out",
    ],
    "monitor": DEPLOY_FLAGS,
    "fleet": DEPLOY_FLAGS + [
        "--fleet-workers", "--faults", "--retries", "--archive-dir",
    ],
    "serve": DEPLOY_FLAGS + [
        "--rounds", "--producers", "--serve-workers", "--queue-depth",
        "--host-vote-windows", "--faults", "--drift", "--archive-dir",
    ],
    "verilog": [
        "--seed", "--windows", "--split-seed", "--classifier", "--hpcs",
        "--module", "--output",
    ],
    "crossval": [
        "--seed", "--windows", "--split-seed", "--classifiers", "--ensemble",
        "--hpcs", "--folds", "--trace-out", "--metrics-out",
    ],
    "stats": ["--trace", "--metrics"],
    "report": [
        "--archive-dir", "--ingest", "--ingest-metrics", "--json", "--host",
        "--source", "--since", "--until", "--bucket",
    ],
    "replay": [
        "--archive-dir", "--segment", "--repeat", "--producers",
        "--serve-workers", "--queue-depth",
    ],
    "watch": [
        "--trace", "--metrics", "--health-out", "--alerts", "--alert", "--slo",
        "--health-window", "--once", "--interval", "--duration",
    ],
    "evasion": [
        "--seed", "--windows", "--split-seed", "--classifier", "--ensemble",
        "--hpcs", "--strengths",
    ],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return dict(action.choices)


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {
        flag: action
        for action in parser._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }


def test_every_subcommand_is_pinned():
    assert sorted(_subparsers()) == sorted(SUBCOMMAND_FLAGS)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_subcommand_flags_are_pinned(command):
    flags = list(_options(_subparsers()[command]))
    assert len(flags) == len(set(flags))
    assert sorted(flags) == sorted(SUBCOMMAND_FLAGS[command])


@pytest.mark.parametrize("command", ["monitor", "fleet", "serve"])
def test_detection_commands_share_the_deploy_flags(command):
    """Same names, destinations, defaults and validators as ``monitor``."""

    def spec(action: argparse.Action) -> tuple:
        return (
            type(action), action.dest, action.default, action.type,
            action.choices, action.nargs, action.required, action.metavar,
        )

    reference = _options(_subparsers()["monitor"])
    options = _options(_subparsers()[command])
    for flag in DEPLOY_FLAGS:
        assert spec(options[flag]) == spec(reference[flag]), flag
