"""Byte-exact gate output: every report format of every gate command.

Each case runs one ``repro perf|slo|learn`` command on committed
fixtures and compares its stdout and exit code with the capture under
``tests/data/golden/``.  The captures pin the rendered text, JSON and
GitHub-annotation output, so a change to the shared renderer that
alters a single byte of any gate's report fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit-codes.json").read_text())

HEALTHY = ["--learn-log", str(DATA / "learn-log-fixture.jsonl")]
DIVERGENT = [
    "--learn-log", str(DATA / "learn-log-divergent.jsonl"),
    "--spec", str(DATA / "learn-spec.json"),
]
BASELINE = str(DATA / "perf-ledger-baseline.jsonl")
CURRENT = str(DATA / "perf-ledger-current.jsonl")

CASES = {
    "learn-report-fixture": ["learn", "report", *HEALTHY],
    "learn-gate-fixture": ["learn", "gate", *HEALTHY],
    "learn-report-divergent": ["learn", "report", *DIVERGENT],
    "learn-gate-divergent": ["learn", "gate", *DIVERGENT],
    "slo-gate-fixture": [
        "slo", "gate", "--ops-log", str(DATA / "ops-log-fixture.jsonl"),
        "--config", str(DATA / "slo-config.json"),
    ],
    "perf-compare": ["perf", "compare", BASELINE, "--ledger", CURRENT],
    "perf-gate": ["perf", "gate", "--baseline", BASELINE, "--ledger", CURRENT],
}

PARAMS = [
    (f"{name}.{fmt}", [*argv, "--format", fmt])
    for name, argv in CASES.items()
    for fmt in ("text", "json", "github")
] + [
    ("perf-compare-verbose.text", [*CASES["perf-compare"], "--verbose"]),
]


@pytest.mark.parametrize(
    ("case", "argv"), PARAMS, ids=[case for case, _ in PARAMS]
)
def test_gate_output_matches_golden(case, argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{case}.txt").read_text()
    assert code == EXIT_CODES[case]
