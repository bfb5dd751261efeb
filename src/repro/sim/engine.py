"""The interval-driven MPSoC simulator.

The engine advances in fixed DVFS-sampling intervals (default 10 ms,
matching cpufreq).  Each interval it:

1. lets each cluster's governor pick an OPP from the *previous*
   interval's observation (governors are causal),
2. applies thermal throttling on top of the governor decision,
3. releases newly arrived work units and places them via the scheduler,
4. drains each cluster's run queue EDF-first across its cores,
5. integrates power into energy and steps the thermal model,
6. publishes fresh per-cluster observations.

Work units that blow far past their deadline are abandoned (the frame is
dropped), like a real compositor would, so a starved system pays in QoS
rather than queueing unboundedly.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Mapping

from repro.errors import GovernorError, SimulationError
from repro.governors.base import Governor
from repro.obs import OBS
from repro.obs.context import trace_args
from repro.idle.governor import MenuIdleGovernor
from repro.mem.dram import DRAMModel
from repro.power.energy import EnergyMeter
from repro.power.model import PowerBreakdown, PowerModel
from repro.qos.metrics import DEFAULT_GRACE_FACTOR, evaluate_jobs
from repro.sim.result import IntervalSample, SimulationResult
from repro.sim.scheduler import HMPScheduler, Scheduler
from repro.sim.telemetry import ClusterObservation, initial_observation
from repro.soc.chip import Chip
from repro.soc.cluster import Cluster
from repro.soc.transition import DVFSTransitionModel
from repro.thermal.rc import ThermalModel
from repro.thermal.throttle import ThermalThrottle
from repro.workload.task import Job
from repro.workload.trace import Trace

GovernorFactory = Callable[[Cluster], Governor]

ENGINE_VERSION = "5.0"
"""Version of the simulated-numbers contract.

Bump whenever a change alters the numbers any (chip, trace, governor)
run produces — power-model arithmetic, drain order, scheduler
behaviour, QoS scoring.  The run cache (:mod:`repro.cache`) folds this
into every cache key, so stale results self-invalidate on upgrade; the
batch backend (:mod:`repro.batch`) replicates exactly this version's
float-operation sequence."""

DECISION_LATENCY_BUCKETS = (
    1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
)
"""Bucket bounds (seconds) for the per-decision governor latency
histogram — log-ish spacing from 100 ns to 10 ms, bracketing both a
table lookup and a full RL forward pass."""


def edf_key(job: Job) -> tuple[float, int]:
    """Earliest-deadline-first run-queue order, unit id breaking ties."""
    return (job.unit.deadline_s, job.unit.uid)


def queue_slack(queue: list[Job], now_s: float) -> float:
    """Normalised urgency of the pending queue, 1.0 (relaxed) to 0.0."""
    slack = 1.0
    for job in queue:
        nominal = job.unit.slack_s
        if nominal <= 0:
            return 0.0
        slack = min(slack, max(0.0, (job.unit.deadline_s - now_s) / nominal))
    return slack


class Simulator:
    """Runs one workload trace under one power-management policy.

    Args:
        chip: The MPSoC to simulate.  Its runtime state is reset at
            :meth:`run`.
        trace: The workload trace to execute.
        governors: Either a mapping of cluster name to a (stateful)
            :class:`~repro.governors.base.Governor`, or a factory called
            once per cluster to build one.
        power_model: Chip power model; a default is built when omitted.
        scheduler: Unit placement policy; defaults to
            :class:`~repro.sim.scheduler.HMPScheduler`.
        interval_s: DVFS sampling interval in seconds.
        thermal: Optional thermal model with one node per cluster.
        throttle: Optional thermal throttle (requires ``thermal``).
        grace_factor: Lateness window, as a multiple of each unit's
            nominal slack, after which a pending unit is abandoned and a
            late completion scores zero QoS.  Shared with QoS scoring.
        record_samples: Keep a per-interval chip time series in the result.
        record_observations: Keep the full observation log per cluster.
        idle_governor: Optional cpuidle model; idle cores' power is
            discounted by their selected C-state.
        transition: Optional DVFS transition-cost model (stall + energy
            per OPP switch).
        memory: Optional DRAM power model fed by executed work.
        qos_classes: Optional service-class map; when given, the result's
            QoS report is class-weighted
            (:func:`repro.qos.classes.evaluate_jobs_weighted`).
    """

    def __init__(
        self,
        chip: Chip,
        trace: Trace,
        governors: Mapping[str, Governor] | GovernorFactory,
        power_model: PowerModel | None = None,
        scheduler: Scheduler | None = None,
        interval_s: float = 0.01,
        thermal: ThermalModel | None = None,
        throttle: ThermalThrottle | None = None,
        grace_factor: float = DEFAULT_GRACE_FACTOR,
        record_samples: bool = False,
        record_observations: bool = False,
        idle_governor: MenuIdleGovernor | None = None,
        transition: DVFSTransitionModel | None = None,
        memory: DRAMModel | None = None,
        qos_classes: "QoSClassMap | None" = None,
    ):
        if interval_s <= 0:
            raise SimulationError(f"interval must be positive: {interval_s}")
        if grace_factor <= 0:
            raise SimulationError(f"grace factor must be positive: {grace_factor}")
        if throttle is not None and thermal is None:
            raise SimulationError("throttling requires a thermal model")
        if transition is not None and transition.latency_s >= interval_s:
            raise SimulationError(
                f"transition latency {transition.latency_s} s must be shorter "
                f"than the interval {interval_s} s"
            )
        self.chip = chip
        self.trace = trace
        self.power_model = power_model or PowerModel()
        self.scheduler = scheduler or HMPScheduler()
        self.interval_s = interval_s
        self.thermal = thermal
        self.throttle = throttle
        self.grace_factor = grace_factor
        self.record_samples = record_samples
        self.record_observations = record_observations
        self.idle_governor = idle_governor
        self.transition = transition
        self.memory = memory
        self.qos_classes = qos_classes

        if callable(governors):
            self.governors: dict[str, Governor] = {
                c.spec.name: governors(c) for c in chip
            }
        else:
            missing = set(chip.cluster_names) - set(governors)
            if missing:
                raise SimulationError(f"no governor for clusters: {sorted(missing)}")
            self.governors = {name: governors[name] for name in chip.cluster_names}

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Simulate the whole trace and return the aggregated result.

        The chip, thermal model, throttle and governors are all reset
        first, so repeated calls are independent runs (governors that
        learn, like the RL policy, may carry knowledge via their own
        ``reset`` semantics).
        """
        chip = self.chip
        dt = self.interval_s
        chip.reset()
        if self.thermal is not None:
            self.thermal.reset()
        if self.throttle is not None:
            self.throttle.reset()
        if self.idle_governor is not None:
            self.idle_governor.reset()
        if self.memory is not None:
            self.memory.reset()
        for cluster in chip:
            self.governors[cluster.spec.name].reset(cluster)

        queues: dict[str, list[Job]] = {name: [] for name in chip.cluster_names}
        all_jobs: list[Job] = []
        obs: dict[str, ClusterObservation] = {
            c.spec.name: initial_observation(
                c.spec.name,
                c.opp_index,
                len(c.spec.opp_table),
                c.freq_hz,
                c.spec.opp_table.max_freq_hz,
                dt,
            )
            for c in chip
        }
        meter = EnergyMeter()
        samples: list[IntervalSample] = []
        obs_log: dict[str, list[ClusterObservation]] = {
            name: [] for name in chip.cluster_names
        }
        opp_switches = 0
        unit_idx = 0
        units = self.trace.units
        n_steps = max(1, math.ceil(self.trace.duration_s / dt))

        # Observability probes: `tracer` is None unless a session is
        # active, so the disabled path costs one local truthiness check
        # per probe and the simulated numbers are untouched either way.
        tracer = OBS.tracer if OBS.enabled else None
        decision_hist = (
            OBS.metrics.histogram(
                "sim.decision_latency_s", DECISION_LATENCY_BUCKETS
            )
            if OBS.enabled
            else None
        )
        run_span = (
            tracer.begin(
                "engine.run", cat="engine",
                trace=self.trace.name, intervals=n_steps,
                **trace_args(),
            )
            if tracer
            else None
        )

        for step in range(n_steps):
            t0 = step * dt
            t1 = t0 + dt
            if tracer:
                interval_span = tracer.begin("engine.interval", cat="engine",
                                             step=step)
                phase_span = tracer.begin("engine.phase.governor", cat="engine")

            # 1. Governor decisions from last interval's observation.
            stall_s: dict[str, float] = {name: 0.0 for name in queues}
            transition_energy: dict[str, float] = {name: 0.0 for name in queues}
            for cluster in chip:
                name = cluster.spec.name
                if decision_hist is not None:
                    decide_t0 = time.perf_counter()
                decision = self.governors[name].decide_traced(obs[name], tracer)
                if decision_hist is not None:
                    decision_hist.observe(time.perf_counter() - decide_t0)
                try:
                    decision = int(decision)
                except (TypeError, ValueError):
                    raise GovernorError(
                        f"governor {self.governors[name].name!r} returned "
                        f"non-integer decision {decision!r}"
                    ) from None
                decision = cluster.spec.opp_table.clamp_index(decision)
                if decision != cluster.opp_index:
                    opp_switches += 1
                    if self.transition is not None:
                        stall_s[name] = self.transition.latency_s
                        transition_energy[name] = self.transition.energy_j(
                            cluster.voltage_v,
                            cluster.spec.opp_table[decision].voltage_v,
                        )
                    cluster.set_opp_index(decision)

            # 2. Thermal throttling caps the governor's choice.
            if self.throttle is not None and self.thermal is not None:
                for cluster in chip:
                    before = cluster.opp_index
                    self.throttle.apply(cluster, self.thermal)
                    if cluster.opp_index != before:
                        opp_switches += 1
                        if self.transition is not None:
                            name = cluster.spec.name
                            stall_s[name] = self.transition.latency_s
                            transition_energy[name] += self.transition.energy_j(
                                cluster.spec.opp_table[before].voltage_v,
                                cluster.voltage_v,
                            )
            if tracer:
                tracer.end(phase_span)
                phase_span = tracer.begin("engine.phase.schedule", cat="engine")

            # 3. Release arrivals and place them.
            arrived: dict[str, float] = {name: 0.0 for name in queues}
            while unit_idx < len(units) and units[unit_idx].release_s < t1:
                unit = units[unit_idx]
                backlog = {
                    name: sum(j.remaining for j in q) for name, q in queues.items()
                }
                target = self.scheduler.assign(unit, chip, backlog, t0)
                if target not in queues:
                    raise SimulationError(
                        f"scheduler placed unit {unit.uid} on unknown cluster "
                        f"{target!r}"
                    )
                job = Job(unit)
                queues[target].append(job)
                all_jobs.append(job)
                arrived[target] += unit.work
                unit_idx += 1
            if tracer:
                tracer.end(phase_span)
                phase_span = tracer.begin("engine.phase.drain", cat="engine")

            # 4. Drain run queues (a transitioning cluster stalls first).
            drained: dict[str, tuple[float, int, int]] = {}
            for cluster in chip:
                name = cluster.spec.name
                drained[name] = self._drain_cluster(
                    cluster, queues[name], t0, dt, stall_s=stall_s[name]
                )

            # 5. Abandon hopelessly late jobs (dropped frames).
            misses_extra: dict[str, int] = {name: 0 for name in queues}
            for name, queue in queues.items():
                keep: list[Job] = []
                for job in queue:
                    cutoff = job.unit.deadline_s + self.grace_factor * job.unit.slack_s
                    if t1 > cutoff:
                        misses_extra[name] += 1
                    else:
                        keep.append(job)
                queues[name] = keep
            if tracer:
                tracer.end(phase_span)
                phase_span = tracer.begin("engine.phase.power_thermal",
                                          cat="engine")

            # 6. Power, energy, thermals (C-state selection feeds the
            # per-core idle-power discount).
            temps = {
                c.spec.name: self.thermal.temperature_c(c.spec.name)
                for c in chip
            } if self.thermal is not None else {}
            cluster_energy: dict[str, float] = {}
            cluster_power_total: dict[str, float] = {}
            chip_power = PowerBreakdown(0.0, 0.0, uncore_w=self.power_model.uncore_w)
            for cluster in chip:
                name = cluster.spec.name
                scales = None
                if self.idle_governor is not None:
                    scales = []
                    for i, core in enumerate(cluster.cores):
                        idle_s = (1.0 - core.utilization) * dt
                        self.idle_governor.observe(f"{name}/{i}", idle_s, dt)
                        scales.append(self.idle_governor.power_fraction(f"{name}/{i}"))
                p = self.power_model.cluster_power(cluster, temps.get(name), scales)
                chip_power = chip_power + p
                cluster_energy[name] = p.total_w * dt + transition_energy[name]
                cluster_power_total[name] = cluster_energy[name] / dt
            if self.transition is not None:
                extra_w = sum(transition_energy.values()) / dt
                chip_power = chip_power + PowerBreakdown(extra_w, 0.0)
            if self.memory is not None:
                total_completed = sum(d[0] for d in drained.values())
                dram_w = self.memory.interval_power_w(total_completed, dt)
                chip_power = chip_power + PowerBreakdown(0.0, 0.0, uncore_w=dram_w)
            meter.record(chip_power, dt)
            if self.thermal is not None:
                self.thermal.step(cluster_power_total, dt)
            if tracer:
                tracer.end(phase_span)
                phase_span = tracer.begin("engine.phase.observe", cat="engine")

            # 7. Publish observations.
            for cluster in chip:
                name = cluster.spec.name
                completed_work, completions, misses = drained[name]
                queue = queues[name]
                obs[name] = ClusterObservation(
                    cluster=name,
                    time_s=t1,
                    interval_s=dt,
                    opp_index=cluster.opp_index,
                    n_opps=len(cluster.spec.opp_table),
                    freq_hz=cluster.freq_hz,
                    max_freq_hz=cluster.spec.opp_table.max_freq_hz,
                    utilization=cluster.utilization,
                    max_core_utilization=cluster.max_core_utilization,
                    queue_work=sum(j.remaining for j in queue),
                    queue_jobs=len(queue),
                    arrived_work=arrived[name],
                    completed_work=completed_work,
                    deadline_misses=misses + misses_extra[name],
                    completions=completions,
                    qos_slack=queue_slack(queue, t1),
                    energy_j=cluster_energy[name],
                    temp_c=temps.get(name),
                )
                if self.record_observations:
                    obs_log[name].append(obs[name])

            if self.record_samples:
                samples.append(
                    IntervalSample(
                        time_s=t1,
                        power_w=chip_power.total_w,
                        opp_indices={c.spec.name: c.opp_index for c in chip},
                        utilizations={c.spec.name: c.utilization for c in chip},
                        queue_jobs=sum(len(q) for q in queues.values()),
                    )
                )
            if tracer:
                tracer.end(phase_span)
                tracer.end(interval_span)

        # Units the horizon never released (e.g. a release landing exactly
        # on the final interval edge) still count: they are work the trace
        # promised, scored as dropped.
        for leftover in units[unit_idx:]:
            all_jobs.append(Job(leftover))

        if self.qos_classes is not None:
            from repro.qos.classes import evaluate_jobs_weighted

            qos = evaluate_jobs_weighted(
                all_jobs, self.qos_classes, grace_factor=self.grace_factor
            )
        else:
            qos = evaluate_jobs(all_jobs, grace_factor=self.grace_factor)
        governor_name = "+".join(
            sorted({g.name for g in self.governors.values()})
        )
        if tracer:
            tracer.end(run_span)
        if OBS.enabled:
            m = OBS.metrics
            m.counter("sim.runs").inc()
            m.counter("sim.intervals").inc(n_steps)
            m.counter("sim.opp_switches").inc(opp_switches)
            m.counter("sim.jobs").inc(len(all_jobs))
            m.counter("sim.energy_j").inc(meter.total_j)
            m.counter("sim.simulated_s").inc(n_steps * dt)
            m.gauge("sim.last_mean_qos").set(qos.mean_qos)
            m.gauge("sim.last_deadline_miss_rate").set(qos.deadline_miss_rate)
        return SimulationResult(
            governor=governor_name,
            trace_name=self.trace.name,
            duration_s=n_steps * dt,
            total_energy_j=meter.total_j,
            dynamic_energy_j=meter.dynamic_j,
            leakage_energy_j=meter.leakage_j,
            uncore_energy_j=meter.uncore_j,
            qos=qos,
            intervals=n_steps,
            opp_switches=opp_switches,
            samples=samples,
            observations=obs_log if self.record_observations else {},
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _drain_cluster(
        cluster: Cluster, queue: list[Job], t0: float, dt: float, stall_s: float = 0.0
    ) -> tuple[float, int, int]:
        """Serve the queue EDF-first on the cluster's cores for one interval.

        Jobs are offered capacity from their ``min_parallelism`` least-
        loaded cores; completion times are interpolated inside the
        interval from the work actually consumed.  A DVFS transition
        stall consumes the first ``stall_s`` seconds of every core.

        Returns:
            ``(completed_work, completions, deadline_misses)`` where
            misses counts jobs that *completed late* this interval.
        """
        freq = cluster.freq_hz
        kappa = cluster.spec.core.capacity
        n_cores = cluster.n_cores
        rate = kappa * freq  # work per second per core
        # Seconds of the interval consumed per core; a transition stall
        # pre-consumes time on every core (the cluster clock is down).
        cursors = [min(stall_s, dt)] * n_cores

        queue.sort(key=edf_key)
        completed_work = 0.0
        completions = 0
        misses = 0
        if rate > 0:
            for job in queue:
                par = min(job.unit.min_parallelism, n_cores)
                order = sorted(range(n_cores), key=cursors.__getitem__)[:par]
                avail = [(dt - cursors[i]) * rate for i in order]
                total_avail = sum(avail)
                if total_avail <= 0:
                    continue
                w = min(job.remaining, total_avail)
                finish_off = 0.0
                for i, a in zip(order, avail):
                    share = w * (a / total_avail)
                    cursors[i] += share / rate
                    if share > 0:
                        finish_off = max(finish_off, cursors[i])
                consumed = job.execute(w, t0 + finish_off)
                completed_work += consumed
                if job.done:
                    completions += 1
                    if job.lateness_s() > 0:
                        misses += 1
        queue[:] = [j for j in queue if not j.done]

        for i, core in enumerate(cluster.cores):
            core.record_interval(cursors[i] * freq, freq, dt)
        return completed_work, completions, misses
