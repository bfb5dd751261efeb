"""The two simulation workloads: ``e1_grid`` and ``batch_population``.

``e1_grid`` is the E1 headline grid through the serial reference path,
``run_fleet(jobs=1)`` with the run cache off: every evaluation scenario
under the six baseline governors plus the trained RL policy, and four
full-system (X1) cells that keep the thermal, cpuidle and DVFS
transition models running.  ``batch_population`` is one ``run_batch``
call over a population of RL rollouts that forms a single lock-step
group, plus table-free rollouts that take the fixed-OPP fast path.

Each function here is one *pass*: the same inputs always give the same
outputs, which :func:`digest` turns into one comparable string.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any

from repro.batch import BatchEngine, run_batch
from repro.fleet import worker
from repro.fleet.runner import FleetResult, run_fleet
from repro.fleet.spec import JobSpec
from repro.governors import BASELINE_SIX
from repro.sim.result import SimulationResult
from repro.workload.scenarios import EVALUATION_SET

CHIP = "exynos5422"
CLUSTERS = 2
"""DVFS domains of the chip (big and LITTLE): one decision each per interval."""

EVAL_S = 2.0
"""Evaluation trace length per job, simulated seconds."""

EPISODES = 2
"""RL training episodes per ``rl-policy`` job (each ``EVAL_S`` long)."""

X1_CELLS = (("gaming", "rl-policy"), ("gaming", "ondemand"),
            ("web_browsing", "rl-policy"), ("web_browsing", "ondemand"))

SUB_SEEDS = 4
"""Passes of one run cycle through the inputs of this many consecutive
seeds; trace content (and so work per interval) varies with the seed."""

BATCH_RL_SEEDS = 8
BATCH_FIXED = ("performance", "powersave", "userspace")
BATCH_FIXED_SEEDS = 2


def e1_specs(seed: int) -> list[JobSpec]:
    """The E1 grid plus the four X1 cells, evaluated on trace ``seed``."""
    def job(scenario: str, governor: str, full_system: bool) -> JobSpec:
        return JobSpec(
            scenario=scenario, governor=governor, seed=seed, chip=CHIP,
            duration_s=EVAL_S, train_episodes=EPISODES,
            train_base_seed=1000 * seed, full_system=full_system,
        )

    specs = [
        job(scenario, governor, False)
        for scenario in EVALUATION_SET
        for governor in [*BASELINE_SIX, "rl-policy"]
    ]
    specs += [job(scenario, governor, True) for scenario, governor in X1_CELLS]
    return specs


def batch_specs(seed: int) -> list[JobSpec]:
    """48 RL rollouts (one lock-step group) + 36 table-free rollouts."""
    specs = [
        JobSpec(
            scenario=scenario, governor="rl-policy", seed=seed + k, chip=CHIP,
            duration_s=EVAL_S, train_episodes=EPISODES,
            train_base_seed=1000 * (seed + k),
        )
        for scenario in EVALUATION_SET
        for k in range(BATCH_RL_SEEDS)
    ]
    specs += [
        JobSpec(scenario=scenario, governor=governor, seed=seed + k,
                chip=CHIP, duration_s=EVAL_S)
        for governor in BATCH_FIXED
        for scenario in EVALUATION_SET
        for k in range(BATCH_FIXED_SEEDS)
    ]
    return specs


def intervals(spec: JobSpec) -> int:
    """Chip decision intervals one job simulates, training included."""
    def steps(duration_s: float) -> int:
        return max(1, math.ceil(duration_s / spec.interval_s))

    total = steps(spec.duration_s)
    if spec.is_rl:
        total += spec.train_episodes * steps(
            spec.train_episode_s or spec.duration_s
        )
    return total


def digest(specs: list[JobSpec], results: list[SimulationResult]) -> str:
    """sha256 over each job's energy, QoS and OPP switches, in grid order."""
    h = hashlib.sha256()
    for spec, run in zip(specs, results):
        h.update(
            f"{spec.job_id}|{spec.full_system}|{run.total_energy_j!r}|"
            f"{run.qos.mean_qos!r}|{run.qos.deadline_miss_rate!r}|"
            f"{run.opp_switches}\n".encode()
        )
    return h.hexdigest()[:16]


def check_outputs(results: list[SimulationResult]) -> list[str]:
    """Physical sanity of every job: energy > 0, QoS within [0, 1]."""
    problems = []
    for run in results:
        if not run.total_energy_j > 0:
            problems.append(f"{run.trace_name}/{run.governor}: energy "
                            f"{run.total_energy_j!r} <= 0")
        if not 0.0 <= run.qos.mean_qos <= 1.0:
            problems.append(f"{run.trace_name}/{run.governor}: QoS "
                            f"{run.qos.mean_qos!r} outside [0, 1]")
    return problems


@dataclass
class PassResult:
    """One pass of a simulation workload (``None`` marks a failed job)."""

    wall_s: float
    results: list[SimulationResult | None]
    job_s: list[float] = field(default_factory=list)
    fleet: FleetResult | None = None


def e1_pass(specs: list[JobSpec]) -> PassResult:
    """The grid through ``run_fleet(jobs=1)``, cache off, with the
    fleet's own job function.

    ``repro.fleet.worker.simulate_spec`` is wrapped for the pass to keep
    each job's full result, so the digest can include OPP switches (the
    fleet's measurement drops them).
    """
    results: dict[int, SimulationResult] = {}
    original = worker.simulate_spec

    def keep(spec: JobSpec) -> SimulationResult:
        run = results[id(spec)] = original(spec)
        return run

    worker.simulate_spec = keep
    try:
        start = time.perf_counter()
        fleet = run_fleet(specs, jobs=1, cache=False)
        wall_s = time.perf_counter() - start
    finally:
        worker.simulate_spec = original
    return PassResult(
        wall_s=wall_s,
        results=[results.get(id(spec)) for spec in specs],
        job_s=[o.wall_s for o in fleet.outcomes],
        fleet=fleet,
    )


def batch_pass(specs: list[JobSpec]) -> PassResult:
    """The population through one ``run_batch`` call (its one job time
    is the call's wall time: every lane finishes with the group)."""
    start = time.perf_counter()
    results = run_batch(specs)
    wall_s = time.perf_counter() - start
    return PassResult(wall_s=wall_s, results=results, job_s=[wall_s])


def fast_fraction(specs: list[JobSpec]) -> float:
    """Share of jobs ``BatchEngine`` plans onto a fast path."""
    plan = BatchEngine(specs).plan()
    return sum(plan) / len(plan)


def e1_improvement(fleet: FleetResult) -> float:
    """The E1 headline (RL vs mean of six) over the non-X1 cells."""
    from repro.experiments.headline import e1_energy_per_qos
    from repro.fleet.aggregate import to_sweep_result

    grid = [s for s in fleet.successes if not s.spec.full_system]
    return e1_energy_per_qos(to_sweep_result(grid)).improvement_percent


def reference_sample(
    specs: list[JobSpec], results: list[SimulationResult], seed: int
) -> list[str]:
    """Re-run a few population lanes through ``simulate_spec`` and
    require ``==`` on every reported quantity (the bit-identity oracle)."""
    rl = [i for i, s in enumerate(specs) if s.is_rl]
    fixed = [i for i, s in enumerate(specs) if not s.is_rl]
    sample = [rl[seed % len(rl)], rl[(seed * 7 + 3) % len(rl)],
              fixed[seed % len(fixed)]]
    problems = []
    for i in sample:
        ref = worker.simulate_spec(specs[i])
        got = results[i]
        same = (
            got.total_energy_j == ref.total_energy_j
            and got.dynamic_energy_j == ref.dynamic_energy_j
            and got.leakage_energy_j == ref.leakage_energy_j
            and got.qos == ref.qos
            and got.opp_switches == ref.opp_switches
            and got.intervals == ref.intervals
        )
        if not same:
            problems.append(f"{specs[i].job_id}: run_batch differs from "
                            "simulate_spec")
    return problems


def summary(specs: list[JobSpec]) -> dict[str, Any]:
    """Static size of a workload: jobs and chip intervals per pass."""
    return {"jobs": len(specs), "intervals": sum(map(intervals, specs))}
