"""X7 — batched rollout backend: speedup with bit-identical results.

:mod:`repro.batch` vectorises table-free-governor rollouts (fixed OPP
for the whole run, so the chip/power/QoS models collapse to array
arithmetic) while promising results **bit-identical** to the serial
engine.  This bench runs a 32-rollout table-free sweep both ways and
pins the two halves of that promise:

* every rollout's ``energy_per_qos_j`` matches the serial engine with
  ``==`` (no tolerance), and
* the batch backend is at least 5x faster wall-clock.

The two are timed in interleaved pairs (``SPEEDUP_PAIRS``, alternating
which runs first) and the gate reads the median per-pair ratio, so a
host slowdown during one sample moves one pair, not the verdict.
"""

from __future__ import annotations

import itertools
import statistics

from repro.batch import run_batch
from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec

from conftest import EVAL_DURATION_S, paired_timings, write_result

SCENARIOS = ("gaming", "web_browsing", "video_playback", "idle")
GOVERNORS = ("performance", "powersave", "userspace")
SEEDS = (100, 200, 300)
N_ROLLOUTS = 32
MIN_SPEEDUP = 5.0


def _specs() -> list[JobSpec]:
    grid = [
        JobSpec(scenario=scenario, governor=governor, seed=seed,
                duration_s=EVAL_DURATION_S)
        for scenario, governor, seed
        in itertools.product(SCENARIOS, GOVERNORS, SEEDS)
    ]
    # The grid is 36 rollouts; the bench contract is a 32-rollout sweep.
    return grid[:N_ROLLOUTS]


def _check(serial, batch) -> None:
    # Bit-identity first: a fast wrong answer is worthless.
    for spec, a, b in zip(_specs(), serial, batch):
        assert b.energy_per_qos_j == a.energy_per_qos_j, spec.job_id
        assert b.total_energy_j == a.total_energy_j, spec.job_id
        assert b.qos == a.qos, spec.job_id


def test_x7_batch_speedup(benchmark):
    specs = _specs()
    assert len(specs) == N_ROLLOUTS

    timings = benchmark.pedantic(
        paired_timings,
        args=(
            lambda: [simulate_spec(spec) for spec in specs],
            lambda: run_batch(specs),
            _check,
        ),
        rounds=1,
        iterations=1,
    )
    serial_s = statistics.median(timings.serial_s)
    batch_s = statistics.median(timings.batch_s)
    speedup = timings.speedup
    lines = [
        f"X7: batched rollout backend ({N_ROLLOUTS} table-free rollouts, "
        f"{EVAL_DURATION_S:.0f} s each), median of "
        f"{len(timings.ratios)} interleaved pairs",
        f"  serial engine : {serial_s:8.3f} s",
        f"  batch backend : {batch_s:8.3f} s  ({speedup:.2f}x)",
        "  per-pair ratios: "
        + ", ".join(f"{r:.2f}x" for r in timings.ratios),
        "  energy_per_qos_j bit-identical on every rollout of every pair",
    ]
    write_result(
        "x7_batch_speedup",
        "\n".join(lines),
        metrics={
            "serial_s": serial_s,
            "batch_s": batch_s,
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_SPEEDUP
