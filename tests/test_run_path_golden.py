"""Grids and single CLI runs against captures of the original serial code.

Every sweep, X1/X2 grid and ``repro run|trace`` invocation lowers to
job specs (:class:`~repro.fleet.spec.JobSpec`) and runs through
``run_fleet`` or ``simulate_spec``.  The captures in
``tests/data/golden/run-path.json`` were taken from the hand-written
serial loops those paths replaced, so each case must reproduce them
with ``==`` on the ``repr`` — in-process (``jobs=1``) and over a worker
pool (``jobs=2``).  The CLI cases compare the ``result.summary()`` line.
The captures are never regenerated to make a change pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.sweep import sweep
from repro.cli import main
from repro.experiments import x1_full_system, x2_seed_stability
from repro.soc.presets import tiny_test_chip

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden" / "run-path.json").read_text()
)


def sweep_case(jobs: int) -> str:
    result = sweep(
        tiny_test_chip(),
        ["audio_playback", "idle"],
        ["ondemand", "powersave"],
        include_rl=True,
        duration_s=2.0,
        train_episodes=2,
        jobs=jobs,
    )
    return repr(result.rows)


def x1_case(jobs: int) -> str:
    result = x1_full_system(
        scenario_names=["gaming", "web_browsing"],
        governor_names=["performance", "ondemand", "scenario-aware"],
        duration_s=2.0,
        train_episodes=2,
        train_episode_s=2.0,
        jobs=jobs,
    )
    return repr((result.report, result.cells_j, result.rl_qos))


def x2_case(jobs: int) -> str:
    result = x2_seed_stability(
        eval_seeds=[100, 200, 300],
        duration_s=2.0,
        train_episodes=2,
        jobs=jobs,
    )
    values = {name: m.values for name, m in result.measures.items()}
    return repr((result.report, values))


def cli_summary(argv: list[str], capsys: pytest.CaptureFixture[str]) -> str:
    """The ``result.summary()`` block a run-style command prints first."""
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    return out.partition("\n\n")[0].rstrip("\n")


def cli_cases(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> dict[str, str]:
    checkpoint = tmp_path / "ckpt"
    assert main([
        "train", "--chip", "tiny", "--scenario", "gaming",
        "--episodes", "2", "--duration", "2", "--save", str(checkpoint),
    ]) == 0
    return {
        "run-ondemand": cli_summary(
            ["run", "--chip", "tiny", "--governor", "ondemand"], capsys
        ),
        "run-checkpoint": cli_summary(
            ["run", "--chip", "tiny", "--governor", f"checkpoint:{checkpoint}"],
            capsys,
        ),
        "trace-rl-policy": cli_summary(
            ["trace", "idle", "--chip", "tiny", "--governor", "rl-policy",
             "--episodes", "1", "--out", str(tmp_path / "trace.json")],
            capsys,
        ),
    }


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    ("case", "compute"),
    [("sweep", sweep_case), ("x1", x1_case), ("x2", x2_case)],
    ids=["sweep", "x1", "x2"],
)
def test_grid_matches_golden(case, compute, jobs):
    assert compute(jobs) == GOLDEN[case]


def test_cli_runs_match_golden(tmp_path, capsys):
    got = cli_cases(tmp_path, capsys)
    for case, summary in got.items():
        assert summary == GOLDEN[case], case
