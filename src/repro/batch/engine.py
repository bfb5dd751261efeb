"""The vectorised multi-rollout backend.

:class:`BatchEngine` runs many (scenario, seed, governor) rollouts in
one process.  Both fast paths are lanes of one lock-step core,
:class:`repro.batch.rl._LockstepRunner`, which keeps per interval only
what is genuinely sequential — work arrival, HMP placement, and EDF
draining, whose state feeds forward interval to interval — and does
the rest across lanes with NumPy.  The two differ only in the decider
each cluster gets:

* Table-free governors (see :mod:`repro.batch.plans`) get
  :class:`_FixedOPP`, one precomputed OPP index per lane.  Specs
  sharing ``(chip, interval_s, duration_s)`` run as one group through
  :func:`run_fixed_opp`.  Nothing reads their observations, so the
  core skips building them and prices the whole cursor log after the
  loop.
* ``rl-policy`` jobs sharing a chip preset, state geometry, and episode
  plan (:func:`repro.batch.plans.rl_group_key`) train lock-step through
  :func:`repro.batch.rl.train_policy_batch` and then evaluate greedily
  through :func:`repro.batch.rl.evaluate_policies_batch`.  A group
  needs at least two members: lock-step overhead only pays for itself
  across lanes.

The contract is **bit identity** with :class:`repro.sim.engine.Simulator`
(version :data:`repro.sim.engine.ENGINE_VERSION`): every floating-point
operation that contributes to the result is performed in the same order
with the same operands (see :mod:`repro.batch.rl`).

Rollouts neither fast path can express — reactive governors, singleton
RL jobs, full-system substrates, metric/trace collection, or any run
under an active observability session (which must see real engine
spans) — fall back to the reference simulator, so ``run_batch`` accepts
arbitrary job lists and is *always* exact.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

import numpy as np

from repro.batch.plans import (
    fixed_opp_index,
    is_rl_vectorisable,
    is_vectorisable,
    rl_group_key,
)
from repro.batch.rl import (
    RLTrainJob,
    _ClusterLanes,
    _LockstepRunner,
    evaluate_policies_batch,
    train_policy_batch,
)
from repro.errors import SimulationError
from repro.fleet.spec import JobSpec
from repro.obs import OBS
from repro.power.model import PowerModel
from repro.sim.result import SimulationResult
from repro.soc.chip import Chip
from repro.workload.scenarios import get_scenario
from repro.workload.trace import Trace


class _FixedOPP(_ClusterLanes):
    """The table-free decider: one constant OPP index per lane."""

    def __init__(
        self, name: str, chips: Sequence[Chip], governors: Sequence[str]
    ) -> None:
        super().__init__(name, chips)
        self.names = list(governors)
        opps = []
        for spec, governor in zip(self.specs, governors):
            table = spec.opp_table
            index = fixed_opp_index(governor, table)
            if index is None:
                raise SimulationError(
                    f"governor {governor!r} has no fixed-OPP plan; "
                    "use the serial engine"
                )
            opps.append((index, table[index]))
        self.index = np.array([index for index, _ in opps])
        self._set_opp(
            np.array([opp.freq_hz for _, opp in opps]),
            np.array([opp.voltage_v for _, opp in opps]),
        )

    def decide(self, step: int, online: bool, switches: np.ndarray) -> None:
        """Hold each lane's index.  The serial engine counts one OPP
        switch when the first interval's decision moves the cluster off
        its reset index (0), and none after."""
        if step == 0:
            switches += self.index != 0


def run_fixed_opp(
    specs: Sequence[JobSpec],
    chips: Sequence[Chip],
    traces: Sequence[Trace],
    power_model: PowerModel | None = None,
) -> list[SimulationResult]:
    """Table-free rollouts as lanes of the lock-step core, each result
    bit-identical to the serial engine's.

    Args:
        specs: Table-free (:func:`repro.batch.plans.is_vectorisable`)
            specs sharing one ``interval_s`` and step count.
        chips: One freshly built chip per spec (only read).
        traces: One evaluation trace per spec.
        power_model: Shared by every lane; defaults to :class:`PowerModel`.

    Raises:
        SimulationError: If a governor has no fixed-OPP plan, or the
            specs disagree on interval, step count, or cluster layout.
    """
    interval_s = specs[0].interval_s
    if any(spec.interval_s != interval_s for spec in specs):
        raise SimulationError(
            "fixed-OPP lanes disagree on interval: "
            f"{sorted({spec.interval_s for spec in specs})}"
        )
    governors = [spec.governor for spec in specs]
    runner = _LockstepRunner(
        chips,
        lambda name: _FixedOPP(name, chips, governors),
        [power_model] * len(specs),
        interval_s,
    )
    return runner.run_episode(traces, online=False)


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
        fast = [False] * len(self.specs)
        for _, indices in self._groups():
            for i in indices:
                fast[i] = True
        return fast

    def _groups(self) -> list[tuple[bool, list[int]]]:
        """Fast-path groups in run order, as ``(is_rl, spec indices)``.

        RL jobs group by :func:`repro.batch.plans.rl_group_key`;
        table-free ones by ``(chip, interval_s, duration_s)``, so a
        group's lanes share their interval edges.
        """
        # An active observability session must see real engine spans
        # and counters, which only the serial engine emits.
        if self.force_serial or OBS.enabled:
            return []
        rl: dict[Hashable, list[int]] = {}
        fixed: dict[Hashable, list[int]] = {}
        for i, spec in enumerate(self.specs):
            if is_rl_vectorisable(spec):
                rl.setdefault(rl_group_key(spec), []).append(i)
            elif is_vectorisable(spec):
                key = (spec.chip, spec.interval_s, spec.duration_s)
                fixed.setdefault(key, []).append(i)
        # Lock-step training only pays for itself across lanes; a
        # singleton RL job runs the (identical) serial trainer.
        return [(True, g) for g in rl.values() if len(g) >= 2] + [
            (False, g) for g in fixed.values()
        ]

    def run(self) -> list[SimulationResult]:
        """All rollouts, in spec order.

        Within one call, fast-path rollouts that evaluate on the same
        ``(scenario, duration_s, seed)`` — RL evaluation lanes and
        fixed-OPP rollouts alike — share one generated trace: a trace is
        a pure function of that key and nothing mutates it.  The cache
        dies with the call.
        """
        from repro.fleet.worker import _build_chip, simulate_spec

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

        for is_rl, indices in self._groups():
            specs = [self.specs[i] for i in indices]
            if is_rl:
                grouped = _run_rl_group(specs, trace_for)
            else:
                grouped = run_fixed_opp(
                    specs,
                    [_build_chip(spec) for spec in specs],
                    [trace_for(spec) for spec in specs],
                )
            for i, result in zip(indices, grouped):
                results[i] = result
        return [
            result if result is not None else simulate_spec(spec)
            for spec, result in zip(self.specs, results)
        ]


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
