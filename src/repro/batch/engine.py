"""The vectorised multi-rollout backend.

:class:`BatchEngine` runs many (scenario, seed, governor) rollouts in
one process.  Rollouts whose governor is table-free (see
:mod:`repro.batch.plans`) take the *fast path*: the per-interval loop
keeps only what is genuinely sequential — work arrival, scheduling, and
EDF draining, whose state feeds forward interval to interval — while
everything the serial engine recomputes per interval around that core
is hoisted out:

* governor dispatch and decision clamping collapse to one precomputed
  OPP index per cluster,
* observation construction (18 fields x clusters x intervals) is
  skipped entirely — nothing reads it,
* per-core utilisation, power, and energy integration move *after* the
  loop, NumPy-vectorised over the interval axis from a recorded
  per-interval core-cursor matrix.

The contract is **bit identity** with :class:`repro.sim.engine.Simulator`
(version :data:`repro.sim.engine.ENGINE_VERSION`): every floating-point
operation that contributes to the result is performed in the same order
with the same operands.  That is why the post-loop power vectorisation
accumulates cores and clusters as a *sequence of elementwise adds* (the
serial engine's left-associated ``+=`` order) and why energy integration
sums interval products in a plain Python loop — ``np.sum`` uses pairwise
summation, which is faster but rounds differently.  The drain keeps the
serial engine's exact arithmetic; its single-core branch exploits that
``a / a == 1.0`` exactly, so the serial ``share = w * (a / total)``
degenerates to ``w`` with no float op at all.

``rl-policy`` jobs get their own fast path: training is sequential
*within* a rollout but independent *across* rollouts, so groups of RL
jobs sharing a chip preset, state geometry, and episode plan (see
:func:`repro.batch.plans.rl_group_key`) train lock-step through
:func:`repro.batch.rl.train_policy_batch` — one NumPy op per interval
across all rollouts — and then evaluate greedily through
:func:`repro.batch.rl.evaluate_policies_batch`, under the same
bit-identity contract.  A group needs at least two members: lock-step
overhead only pays for itself across lanes.

Rollouts neither fast path can express — reactive governors, singleton
RL jobs, full-system substrates, metric/trace collection, or any run
under an active observability session (which must see real engine
spans) — fall back to the reference simulator, so ``run_batch`` accepts
arbitrary job lists and is *always* exact.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.batch.plans import (
    fixed_opp_index,
    is_rl_vectorisable,
    is_vectorisable,
    rl_group_key,
)
from repro.errors import SimulationError
from repro.fleet.spec import JobSpec
from repro.obs import OBS
from repro.power.model import PowerModel
from repro.qos.metrics import evaluate_jobs
from repro.sim.engine import edf_key
from repro.sim.result import SimulationResult
from repro.sim.scheduler import HMPScheduler
from repro.soc.chip import Chip
from repro.workload.scenarios import get_scenario
from repro.workload.task import Job, WorkUnit
from repro.workload.trace import Trace

_GRACE_FACTOR = 2.0
"""The reference engine's default lateness grace factor."""


class _ClusterPlan:
    """Per-cluster constants of one fixed-OPP rollout."""

    __slots__ = (
        "name", "n_cores", "freq_hz", "voltage_v", "rate", "ceff_f",
        "leak_a_per_v", "cursor_log",
    )

    def __init__(self, name: str, n_cores: int, freq_hz: float,
                 voltage_v: float, capacity: float, ceff_f: float,
                 leak_a_per_v: float, n_steps: int) -> None:
        self.name = name
        self.n_cores = n_cores
        self.freq_hz = freq_hz
        self.voltage_v = voltage_v
        self.rate = capacity * freq_hz
        self.ceff_f = ceff_f
        self.leak_a_per_v = leak_a_per_v
        # Seconds-of-interval consumed per (interval, core); rows of
        # intervals whose queue was empty stay zero.
        self.cursor_log = np.zeros((n_steps, n_cores))


def run_fixed_opp(
    spec: JobSpec,
    chip: Chip,
    trace: Trace,
    power_model: PowerModel | None = None,
) -> SimulationResult:
    """One table-free rollout, bit-identical to the serial engine.

    Args:
        spec: The job; its governor must be table-free
            (:func:`repro.batch.plans.is_vectorisable`).
        chip: A freshly built chip (never mutated here — only its static
            specs are read).
        trace: The evaluation trace.
        power_model: Defaults to the engine default :class:`PowerModel`.

    Raises:
        SimulationError: If the spec's governor has no fixed-OPP plan.
    """
    model = power_model or PowerModel()
    dt = spec.interval_s
    n_steps = max(1, math.ceil(trace.duration_s / dt))
    scheduler = HMPScheduler()

    plans: list[_ClusterPlan] = []
    opp_switches = 0
    for cluster in chip:
        index = fixed_opp_index(spec.governor, cluster.spec.opp_table)
        if index is None:
            raise SimulationError(
                f"governor {spec.governor!r} has no fixed-OPP plan; "
                "use the serial engine"
            )
        # The serial engine counts one OPP switch when the first
        # interval's decision moves the cluster off its reset index (0).
        if index != 0:
            opp_switches += 1
        opp = cluster.spec.opp_table[index]
        plans.append(
            _ClusterPlan(
                name=cluster.spec.name,
                n_cores=cluster.n_cores,
                freq_hz=opp.freq_hz,
                voltage_v=opp.voltage_v,
                capacity=cluster.spec.core.capacity,
                ceff_f=cluster.spec.core.ceff_f,
                leak_a_per_v=cluster.spec.core.leak_a_per_v,
                n_steps=n_steps,
            )
        )

    units: Sequence[WorkUnit] = trace.units
    # Arrival schedule, precomputed: the serial engine admits units with
    # ``release_s < t1`` each interval; searchsorted(side="left") on the
    # (sorted) release times against the same ``t1 = step*dt + dt``
    # floats yields exactly that strict-inequality cutoff per step.
    releases = np.array([u.release_s for u in units])
    t1_edges = [step * dt + dt for step in range(n_steps)]
    arrive_until: list[int] = np.searchsorted(
        releases, np.array(t1_edges), side="left"
    ).tolist()
    # Abandon cutoffs, one float per unit, same expression as the engine.
    cutoff_by_uid = {
        u.uid: u.deadline_s + _GRACE_FACTOR * u.slack_s for u in units
    }

    queues: dict[str, list[Job]] = {plan.name: [] for plan in plans}
    all_jobs: list[Job] = []
    unit_idx = 0

    for step in range(n_steps):
        t0 = step * dt
        t1 = t0 + dt

        # Arrivals (backlog recomputed per unit, as in the engine).
        k = arrive_until[step]
        while unit_idx < k:
            unit = units[unit_idx]
            backlog = {
                name: sum(j.remaining for j in q)
                for name, q in queues.items()
            }
            target = scheduler.assign(unit, chip, backlog, t0)
            if target not in queues:
                raise SimulationError(
                    f"scheduler placed unit {unit.uid} on unknown cluster "
                    f"{target!r}"
                )
            job = Job(unit)
            queues[target].append(job)
            all_jobs.append(job)
            unit_idx += 1

        # Drain each cluster EDF-first; record the core cursors so the
        # post-loop power pass can reconstruct per-core utilisation.
        for plan in plans:
            queue = queues[plan.name]
            if not queue:
                continue
            n_cores = plan.n_cores
            rate = plan.rate
            cursors = [0.0] * n_cores
            if len(queue) > 1:
                queue.sort(key=edf_key)
            if rate > 0:
                for job in queue:
                    rem = job.remaining
                    par = job.unit.min_parallelism
                    if par >= n_cores:
                        par = n_cores
                    if par == 1:
                        # min-cursor core, earliest index on ties (the
                        # serial stable sort's first element).
                        i = 0
                        low = cursors[0]
                        for j in range(1, n_cores):
                            if cursors[j] < low:
                                i = j
                                low = cursors[j]
                        a = (dt - low) * rate
                        if a <= 0:
                            continue
                        # w = min(rem, sum([a])); share = w*(a/a) = w.
                        w = rem if rem <= a else a
                        finish = low + w / rate
                        cursors[i] = finish
                        job.remaining = rem - w
                        if job.remaining <= 0:
                            job.completed_at_s = t0 + finish
                    else:
                        order = sorted(
                            range(n_cores), key=cursors.__getitem__
                        )[:par]
                        avail = [(dt - cursors[i]) * rate for i in order]
                        total_avail = sum(avail)
                        if total_avail <= 0:
                            continue
                        w = rem if rem <= total_avail else total_avail
                        finish = 0.0
                        for i, a in zip(order, avail):
                            share = w * (a / total_avail)
                            cursors[i] += share / rate
                            if share > 0:
                                finish = max(finish, cursors[i])
                        job.remaining = rem - w
                        if job.remaining <= 0:
                            job.completed_at_s = t0 + finish
            # Done jobs leave; hopelessly late jobs are abandoned
            # (the engine's drain filter + abandon pass, fused).
            queues[plan.name] = [
                j for j in queue
                if j.remaining > 0 and t1 <= cutoff_by_uid[j.unit.uid]
            ]
            plan.cursor_log[step] = cursors

    # Units the horizon never released count as dropped work.
    for leftover in units[unit_idx:]:
        all_jobs.append(Job(leftover))
    qos = evaluate_jobs(all_jobs, grace_factor=_GRACE_FACTOR)

    # Power and energy, vectorised over the interval axis.  Every
    # elementwise expression mirrors one scalar expression of the serial
    # per-interval path, and reductions across cores/clusters are
    # explicit sequential adds so the accumulation order (and therefore
    # the rounding) is the serial engine's.
    idle_activity = model.dynamic.idle_activity
    chip_dyn = np.zeros(n_steps)
    chip_leak = np.zeros(n_steps)
    for plan in plans:
        freq = plan.freq_hz
        v = plan.voltage_v
        available = freq * dt
        leak_base = plan.leak_a_per_v * v * v
        cluster_dyn = np.zeros(n_steps)
        cluster_leak = np.zeros(n_steps)
        for core in range(plan.n_cores):
            if available > 0:
                used = np.minimum(plan.cursor_log[:, core] * freq, available)
                util = used / available
            else:
                util = np.zeros(n_steps)
            activity = util + (1.0 - util) * idle_activity * 1.0
            cluster_dyn = cluster_dyn + activity * plan.ceff_f * v * v * freq
            cluster_leak = cluster_leak + leak_base * (
                util + (1.0 - util) * 1.0
            )
        chip_dyn = chip_dyn + cluster_dyn
        chip_leak = chip_leak + cluster_leak

    # Energy integration: the meter adds one interval product at a time,
    # so accumulate sequentially (np.sum's pairwise order differs).
    dynamic_j = 0.0
    for x in (chip_dyn * dt).tolist():
        dynamic_j += x
    leakage_j = 0.0
    for x in (chip_leak * dt).tolist():
        leakage_j += x
    uncore_j = 0.0
    uncore_step = model.uncore_w * dt
    for _ in range(n_steps):
        uncore_j += uncore_step
    total_j = dynamic_j + leakage_j + uncore_j

    return SimulationResult(
        governor=spec.governor,
        trace_name=trace.name,
        duration_s=n_steps * dt,
        total_energy_j=total_j,
        dynamic_energy_j=dynamic_j,
        leakage_energy_j=leakage_j,
        uncore_energy_j=uncore_j,
        qos=qos,
        intervals=n_steps,
        opp_switches=opp_switches,
    )


class BatchEngine:
    """Runs a list of job specs in one process, fast path where possible.

    Args:
        specs: The rollouts to run.  Any mix of governors is accepted;
            per spec the engine picks the vectorised fast path
            (table-free governors) or the reference simulator.
        force_serial: Run everything through the reference simulator
            (the bit-identity oracle used by tests and benchmarks).
    """

    def __init__(
        self, specs: Sequence[JobSpec], force_serial: bool = False
    ) -> None:
        self.specs = list(specs)
        self.force_serial = force_serial

    def plan(self) -> list[bool]:
        """Per spec, whether a fast path will run it."""
        if self.force_serial:
            return [False] * len(self.specs)
        # An active observability session must see real engine spans
        # and counters, which only the serial engine emits.
        if OBS.enabled:
            return [False] * len(self.specs)
        fast = [is_vectorisable(spec) for spec in self.specs]
        for indices in self._rl_groups().values():
            # Lock-step training only pays for itself across lanes; a
            # singleton RL job runs the (identical) serial trainer.
            if len(indices) >= 2:
                for i in indices:
                    fast[i] = True
        return fast

    def _rl_groups(self) -> dict[Hashable, list[int]]:
        """Spec indices of lock-step-eligible RL jobs, grouped."""
        groups: dict[Hashable, list[int]] = {}
        for i, spec in enumerate(self.specs):
            if is_rl_vectorisable(spec):
                groups.setdefault(rl_group_key(spec), []).append(i)
        return groups

    def run(self) -> list[SimulationResult]:
        """All rollouts, in spec order.

        Within one call, fast-path rollouts that evaluate on the same
        ``(scenario, duration_s, seed)`` — RL evaluation lanes and
        fixed-OPP rollouts alike — share one generated trace: a trace is
        a pure function of that key and nothing mutates it.  The cache
        dies with the call.
        """
        plan = self.plan()
        results: list[SimulationResult | None] = [None] * len(self.specs)
        traces: dict[tuple[str, float, int], Trace] = {}

        def trace_for(spec: JobSpec) -> Trace:
            key = (spec.scenario, spec.duration_s, spec.seed)
            trace = traces.get(key)
            if trace is None:
                trace = traces[key] = get_scenario(spec.scenario).trace(
                    spec.duration_s, seed=spec.seed
                )
            return trace

        if any(plan):
            for indices in self._rl_groups().values():
                if len(indices) >= 2:
                    grouped = _run_rl_group(
                        [self.specs[i] for i in indices], trace_for
                    )
                    for i, result in zip(indices, grouped):
                        results[i] = result
        for i, (spec, fast) in enumerate(zip(self.specs, plan)):
            if results[i] is not None:
                continue
            if fast:
                from repro.fleet.worker import _build_chip

                results[i] = run_fixed_opp(
                    spec, _build_chip(spec), trace_for(spec)
                )
            else:
                from repro.fleet.worker import simulate_spec

                results[i] = simulate_spec(spec)
        return results


def _run_rl_group(
    specs: Sequence[JobSpec], trace_for: Callable[[JobSpec], Trace]
) -> list[SimulationResult]:
    """Train one RL group lock-step, then evaluate each lane greedily.

    Reproduces :func:`repro.fleet.worker.simulate_spec` per spec — fresh
    chip, per-job learning ledger, one power model shared between a
    job's training and its evaluation — with the training and evaluation
    loops batched across the group.  ``trace_for`` supplies each spec's
    evaluation trace; it is called after training, so the evaluation
    traces are not held in memory while the group trains.
    """
    from repro.batch.rl import (
        RLTrainJob,
        evaluate_policies_batch,
        train_policy_batch,
    )
    from repro.fleet.worker import _build_chip, _job_learn_recorder

    jobs = [
        RLTrainJob(
            chip=_build_chip(spec),
            scenario=get_scenario(spec.scenario),
            episodes=spec.train_episodes,
            episode_duration_s=spec.train_episode_s or spec.duration_s,
            base_seed=spec.train_base_seed,
            config=spec.policy_config,
            interval_s=spec.interval_s,
            power_model=PowerModel(),
            recorder=_job_learn_recorder(spec),
        )
        for spec in specs
    ]
    train_policy_batch(jobs)
    return evaluate_policies_batch(
        [job.chip for job in jobs],
        [job.policies for job in jobs],
        [trace_for(spec) for spec in specs],
        interval_s=specs[0].interval_s,
        power_models=[job.power_model for job in jobs],
    )


def run_batch(
    specs: Sequence[JobSpec], force_serial: bool = False
) -> list[SimulationResult]:
    """Convenience wrapper: ``BatchEngine(specs).run()``."""
    return BatchEngine(specs, force_serial=force_serial).run()
