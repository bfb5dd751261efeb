"""The lane-major lock-step core, and lock-step multi-rollout RL training.

:class:`_LockstepRunner` advances N rollouts ("lanes") of one chip
layout through the same intervals together.  It owns one copy of the
per-interval machinery: lane setup, arrival admission and HMP placement,
the EDF drain (which logs each lane's core cursors into one
``(steps, lanes, cores)`` array per cluster), the one power expression
(broadcast over lanes, and over steps when priced after the loop),
energy integration, and result assembly.  What differs between rollouts
is the per-cluster *decider*: :class:`_ClusterVec` for the Q-learning
policy, and :class:`repro.batch.engine._FixedOPP` for the table-free
governors.  A group whose deciders read no observation is priced once
after the loop; otherwise each interval is priced as it ends, because
the next decision reads it.

:func:`train_policy_batch` runs N independent Q-learning training jobs
through the runner: everything per-interval that the serial
:func:`repro.core.trainer.train_policy` recomputes per rollout — state
featurisation, the TD update, epsilon-greedy selection, power and energy
integration — is evaluated once across all N lanes with NumPy.

The contract is **bit identity** with the serial engine and trainer
(engine contract :data:`repro.sim.engine.ENGINE_VERSION`): trained
Q-tables, epsilon trajectories, cumulative rewards, TD statistics,
episode history records, and evaluation results all compare equal with
``==`` on every float.  Three mechanisms carry that guarantee:

* **Population Q-table.**  Each cluster's N per-lane Q-tables become row
  blocks of one ``(N * n_states, n_actions)`` table; each lane's agent
  keeps a NumPy *view* of its block, so checkpointing, coverage, and
  greedy snapshots read through unchanged.  Because blocks are disjoint,
  :meth:`repro.rl.qtable.QTable.td_update_many` always takes its
  single-segment fast path, and the batched update is the serial
  per-lane update order verbatim.

* **RNG-order contract.**  Each lane keeps its own exploration
  generator.  :meth:`repro.rl.exploration.EpsilonGreedy.plan_draws`
  pre-consumes one episode's draws in exactly the order
  :meth:`~repro.rl.exploration.EpsilonGreedy.select` would — a greedy
  step costs one uniform draw, an explore step that draw plus one
  ``integers`` draw — so the generator and the schedule counter end the
  episode in the precise state serial training leaves them.

* **Serial accumulation order.**  Core and cluster power sums, energy
  integration, and Welford TD statistics are computed as sequences of
  elementwise operations in the serial engine's left-associated order
  (never ``np.sum``, whose pairwise rounding differs).  The drain keeps
  the serial engine's exact arithmetic; its single-core branch exploits
  that ``a / a == 1.0`` exactly, so the serial ``share = w * (a /
  total)`` degenerates to ``w`` with no float op at all.

Episode boundaries run the *real* per-lane ``cluster.reset()`` and
``policy.reset(cluster)`` calls, so episode counters, TD-window resets,
and reward normalisation are materialised on the policy objects, and the
trainer's own bookkeeping helpers produce the ledger and history records.

Jobs the lock step cannot express — subclassed policies (SARSA acts
before updating; double-Q flips a coin per update), non-default power
model types, offline lanes during training, or an active observability
session (which must see real engine spans) — fall back to
:func:`repro.core.trainer.train_policy` /
:func:`repro.core.trainer.evaluate_policy`, so the API is always exact.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np

from repro.core.config import PolicyConfig
from repro.core.policy import RLPowerManagementPolicy
from repro.core.state import StateFeaturizer
from repro.core.trainer import (
    EpisodeRecord,
    TrainingResult,
    _emit_episode_obs,
    _episode_record,
    _greedy_snapshot,
    _policy_churn,
    _record_episode,
    evaluate_policy,
    make_policies,
    train_policy,
)
from repro.errors import SimulationError
from repro.obs import OBS
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import LeakagePowerModel
from repro.power.model import PowerModel
from repro.qos.metrics import DEFAULT_GRACE_FACTOR, evaluate_jobs
from repro.rl.exploration import EpsilonSchedule
from repro.rl.qlearning import QLearningAgent
from repro.rl.qtable import QTable
from repro.sim.engine import edf_key, queue_slack
from repro.sim.result import SimulationResult
from repro.sim.scheduler import HMPScheduler
from repro.soc.chip import Chip
from repro.workload.scenarios import Scenario
from repro.workload.task import Job
from repro.workload.trace import Trace

if TYPE_CHECKING:
    from repro.obs.learn import LearnRecorder


@dataclass
class RLTrainJob:
    """One RL training job, mirroring :func:`train_policy`'s signature.

    ``policies`` is materialised (via :func:`make_policies`) by
    :func:`train_policy_batch` when omitted, so the same instance both
    describes the job and, afterwards, owns the trained policies.
    """

    chip: Chip
    scenario: Scenario
    episodes: int = 12
    episode_duration_s: float = 30.0
    base_seed: int = 0
    config: PolicyConfig | None = None
    interval_s: float = 0.01
    power_model: PowerModel | None = None
    policies: dict[str, RLPowerManagementPolicy] | None = None
    recorder: "LearnRecorder | None" = None
    episode_offset: int = 0


def _plain_power_model(model: PowerModel | None) -> bool:
    """Whether the model is the exact arithmetic the lock step replicates."""
    model = model or PowerModel()
    return (
        type(model) is PowerModel
        and type(model.dynamic) is DynamicPowerModel
        and type(model.leakage) is LeakagePowerModel
    )


def _lockstep_supported(
    chip: Chip,
    policies: dict[str, RLPowerManagementPolicy],
    power_model: PowerModel | None,
    online: bool,
) -> bool:
    """Whether one lane's (chip, policies, model) fits the lock step.

    Exact-type checks are deliberate: subclasses override the decide
    order (SARSA acts before updating) or the TD rule (double-Q draws a
    coin per update), and a subclassed power model may price intervals
    differently.
    """
    if not _plain_power_model(power_model):
        return False
    if set(policies) != set(chip.cluster_names):
        return False
    for cluster in chip:
        p = policies[cluster.spec.name]
        if type(p) is not RLPowerManagementPolicy:
            return False
        if p.online != online:
            return False
        if p.agent is not None and type(p.agent) is not QLearningAgent:
            return False
        if p.featurizer is not None and (
            p.featurizer.n_opps != len(cluster.spec.opp_table)
        ):
            # Re-binding would raise inside reset(); route through the
            # serial path so the canonical PolicyError surfaces.
            return False
    return True


def _structure_key(
    chip: Chip, policies: dict[str, RLPowerManagementPolicy]
) -> Hashable:
    """What must match for lanes to share one lock-step runner.

    Per-lane *values* (seeds, learning rates, schedules, electrical
    parameters) may differ freely; the *shape* — cluster layout, OPP
    table sizes, state geometry, action count — must not, because lanes
    share binner edges, LUT widths, and one population Q-table per
    cluster.
    """
    key: list[Hashable] = []
    for cluster in chip:
        cfg = policies[cluster.spec.name].config
        key.append((
            cluster.spec.name,
            cluster.spec.n_cores,
            len(cluster.spec.opp_table),
            cfg.util_bins, cfg.trend_bins, cfg.opp_bins, cfg.slack_bins,
            cfg.n_actions,
        ))
    return tuple(key)


def _distinct_objects(
    chips: Sequence[Chip],
    policies_by_lane: Sequence[dict[str, RLPowerManagementPolicy]],
) -> bool:
    """Lanes must not share chips or policy objects — the lock step
    mutates each lane's independently."""
    seen: set[int] = set()
    for chip, policies in zip(chips, policies_by_lane):
        for obj in (chip, *policies.values()):
            if id(obj) in seen:
                return False
            seen.add(id(obj))
    return True


class _Lane:
    """One rollout's sequential per-episode state (trace, queues, jobs)."""

    __slots__ = ("units", "arrive_until", "cutoff", "queues", "all_jobs",
                 "unit_idx")

    def __init__(self, trace: Trace, edges: np.ndarray,
                 cluster_names: list[str]) -> None:
        self.units = trace.units
        releases = np.array([u.release_s for u in self.units])
        # The serial engine admits units with ``release_s < t1`` per
        # step; searchsorted(side="left") against the same t1 floats is
        # exactly that strict-inequality cutoff.
        self.arrive_until: list[int] = np.searchsorted(
            releases, edges, side="left"
        ).tolist()
        # Abandon cutoffs, one float per unit, same expression as the engine.
        self.cutoff = {
            u.uid: u.deadline_s + DEFAULT_GRACE_FACTOR * u.slack_s
            for u in self.units
        }
        self.queues: dict[str, list[Job]] = {n: [] for n in cluster_names}
        self.all_jobs: list[Job] = []
        self.unit_idx = 0


class _ClusterLanes:
    """One cluster across all N lanes: what the shared core steps.

    Holds the per-lane electrical constants and operating point, the
    one EDF drain, and the one power expression.  Subclasses are the
    deciders — :class:`_ClusterVec` (the Q-learning policy) and
    :class:`repro.batch.engine._FixedOPP` (the table-free governors) —
    and set the operating point through :meth:`_set_opp`.
    """

    observes = False
    """Whether :meth:`decide` reads the previous interval's observation.
    A group whose clusters observe nothing is priced after the loop."""

    names: list[str]
    """Each lane's decider name, as its governor would report it."""

    def __init__(self, name: str, chips: Sequence[Chip]) -> None:
        self.name = name
        self.clusters = [chip.cluster(name) for chip in chips]
        self.specs = specs = [c.spec for c in self.clusters]
        self.n_cores = specs[0].n_cores
        if any(s.n_cores != self.n_cores for s in specs):
            raise SimulationError(
                f"lock-step lanes disagree on cluster {name!r} core count"
            )
        self.capacity = np.array([s.core.capacity for s in specs])
        self.ceff = np.array([s.core.ceff_f for s in specs])
        self.leak_a = np.array([s.core.leak_a_per_v for s in specs])

    def _set_opp(self, freq: np.ndarray, volt: np.ndarray) -> None:
        """Move every lane to the given operating point."""
        self.freq_now = freq
        self.volt_now = volt
        # Drain arithmetic runs on Python floats: the same IEEE-754
        # results as on NumPy scalars, at a fraction of the cost.
        self.rates = (self.capacity * freq).tolist()

    def begin_episode(self, online: bool, n_steps: int) -> None:
        # Seconds-of-interval consumed per (interval, lane, core); rows
        # of intervals whose queue was empty stay zero.
        self.cursor_log = np.zeros(
            (n_steps, len(self.clusters), self.n_cores)
        )

    def end_episode(self, online: bool, n_steps: int) -> None:
        """Write per-episode state back to the lanes' objects, if any."""

    def decide(self, step: int, online: bool, switches: np.ndarray) -> None:
        """Set this interval's operating point; count OPP switches."""
        raise NotImplementedError

    def drain(
        self, lanes: Sequence[_Lane], step: int, t0: float, t1: float,
        dt: float,
    ) -> list[tuple[int, list[Job]]]:
        """EDF-drain every lane's queue for one interval.

        The per-job arithmetic is the serial ``_drain_cluster`` loop in
        optimised form.  Each lane's core cursors land in row ``step`` of
        :attr:`cursor_log`, from which :meth:`price` reconstructs
        per-core utilisation.  Done jobs leave the queue; hopelessly late
        ones are abandoned (the engine's drain filter and abandon pass,
        fused).  Returns ``(lane index, queue as drained)`` for every
        lane that had work.
        """
        log = self.cursor_log[step]
        name = self.name
        n_cores = self.n_cores
        rates = self.rates
        drained = []
        for k, lane in enumerate(lanes):
            queue = lane.queues[name]
            if not queue:
                continue
            drained.append((k, queue))
            rate = rates[k]
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
            cutoff = lane.cutoff
            lane.queues[name] = [
                j for j in queue
                if j.remaining > 0 and t1 <= cutoff[j.unit.uid]
            ]
            log[k] = cursors
        return drained

    def power(
        self, step: int, dt: float, idle_activity: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One interval's dynamic and leakage watts, per lane."""
        _, _, dyn, leak = self.price(self.cursor_log[step], dt, idle_activity)
        return dyn, leak

    def price(
        self, cursors: np.ndarray, dt: float, idle_activity: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-core used cycles and utilisation, and per-lane dynamic
        and leakage watts, at the current operating point.

        ``cursors`` is one interval's ``(lanes, cores)`` row of
        :attr:`cursor_log` or the whole log (a leading step axis
        broadcasts).  Each elementwise expression mirrors one scalar
        expression of :meth:`repro.power.model.PowerModel.cluster_power`;
        cores accumulate as column adds in the serial ``+=`` order.
        """
        f = self.freq_now[:, None]
        v = self.volt_now[:, None]
        avail = f * dt
        used = np.minimum(cursors * f, avail)
        util = used / avail
        # The serial idle scale is 1.0, and ``x * 1.0 == x`` exactly, so
        # it is left out.  The dynamic product keeps the serial
        # left-associated order (((activity * ceff) * v) * v) * f — float
        # mul is not associative, and the contract is bit identity.
        idle = 1.0 - util
        activity = util + idle * idle_activity[:, None]
        dyn_terms = activity * self.ceff[:, None] * v * v * f
        leak_terms = (self.leak_a[:, None] * v * v) * (util + idle)
        # The serial sums start at 0.0; every term is >= +0.0, so
        # starting from the first core's term is the same sum.
        dyn = dyn_terms[..., 0]
        leak = leak_terms[..., 0]
        for c in range(1, self.n_cores):
            dyn = dyn + dyn_terms[..., c]
            leak = leak + leak_terms[..., c]
        return used, util, dyn, leak


class _ClusterVec(_ClusterLanes):
    """The RL decider: one cluster's Q-learning policies across N lanes.

    Static per-lane parameters (OPP LUTs, bin edges, action deltas) are
    packed once at construction; per-episode state is rebuilt by
    :meth:`begin_episode` from the freshly reset policy objects and
    written back by :meth:`end_episode`.
    """

    observes = True

    def __init__(
        self,
        name: str,
        chips: Sequence[Chip],
        policies_by_lane: Sequence[dict[str, RLPowerManagementPolicy]],
    ) -> None:
        super().__init__(name, chips)
        n = len(chips)
        self.n_opps = len(self.specs[0].opp_table)
        self.max_index = self.specs[0].opp_table.max_index
        policies = self.policies = [lane[name] for lane in policies_by_lane]
        self.names = [p.name for p in policies]
        # Pre-bind exactly what the first reset() would build, so the
        # population table exists before the first episode.  The objects
        # are identical to reset()'s (construction consumes no RNG), and
        # reset() then sees a bound policy and skips its create branch.
        for p in policies:
            if p.featurizer is None:
                p.featurizer = StateFeaturizer(p.config, self.n_opps)
                p.agent = p._make_agent(p.featurizer.n_states)
        cfg0 = policies[0].config
        self.freq_lut = np.array(
            [[opp.freq_hz for opp in s.opp_table] for s in self.specs]
        )
        self.volt_lut = np.array(
            [[opp.voltage_v for opp in s.opp_table] for s in self.specs]
        )
        self.max_freq = np.array([s.opp_table.max_freq_hz for s in self.specs])

        self.trend_bins = cfg0.trend_bins
        self.opp_bins = cfg0.opp_bins
        self.slack_bins = cfg0.slack_bins
        # Interior bin edges are shared: equal bin counts over the fixed
        # feature ranges give identical uniform edges on every lane, and
        # np.searchsorted(side="right") is bisect_right element for
        # element.  A disabled feature (1 bin) has no binner: digit 0.
        feats = [p.featurizer for p in policies]
        self.util_edges = (
            None if feats[0]._util_binner is None
            else np.array(feats[0]._util_binner.edges)
        )
        self.trend_edges = (
            None if feats[0]._trend_binner is None
            else np.array(feats[0]._trend_binner.edges)
        )
        self.slack_edges = (
            None if feats[0]._slack_binner is None
            else np.array(feats[0]._slack_binner.edges)
        )
        self.pred_alpha = np.array(
            [p.config.predictor_alpha for p in policies]
        )
        self.phase_thr = np.array(
            [p.config.phase_change_threshold for p in policies]
        )
        self.deltas = np.array(
            [p.config.action_deltas for p in policies], dtype=np.intp
        )

        self.agents: list[QLearningAgent] = [p.agent for p in policies]
        self.explorers = [a.explorer for a in self.agents]
        self.n_states = self.agents[0].n_states
        self.alpha = np.array([a.alpha for a in self.agents])
        self.gamma = np.array([a.gamma for a in self.agents])
        self.offsets = np.arange(n, dtype=np.intp) * self.n_states
        self.lane_idx = np.arange(n, dtype=np.intp)
        # Population table: lane k owns rows [k*S, (k+1)*S); each agent
        # keeps a view of its block, so snapshots, checkpoints, and
        # coverage introspection read through while updates run batched.
        self.pop = QTable(n * self.n_states, self.agents[0].n_actions)
        for k, agent in enumerate(self.agents):
            block = slice(k * self.n_states, (k + 1) * self.n_states)
            self.pop.values[block] = agent.table.values
            agent.table.values = self.pop.values[block]

    def detach(self) -> None:
        """Give every agent back a standalone values array."""
        for agent in self.agents:
            agent.table.values = agent.table.values.copy()

    def begin_episode(self, online: bool, n_steps: int) -> None:
        """Reset each lane's cluster and policy, then load per-episode
        vectors from the freshly reset policies."""
        super().begin_episode(online, n_steps)
        # The real per-lane resets — episode counters, TD windows, reward
        # normalisation, featurizer clears — the serial run()'s preamble.
        policies = self.policies
        for cluster, p in zip(self.clusters, policies):
            cluster.reset()
            p.reset(cluster)
        n = len(policies)
        self.energy_scale = np.array(
            [p.reward_config.energy_scale_j for p in policies]
        )
        self.lambda_qos = np.array(
            [p.reward_config.lambda_qos for p in policies]
        )
        self.slack_thr = np.array(
            [p.reward_config.slack_threshold for p in policies]
        )
        self.miss_penalty = np.array(
            [p.reward_config.miss_penalty for p in policies]
        )
        # Predictor state (featurizer.reset() just cleared the serial
        # one; ``level`` is only meaningful from step 0's observe on).
        self.level = np.zeros(n)
        self.prev_level = np.zeros(n)
        self.phase_changes = np.zeros(n, dtype=np.int64)
        # DVFS state: cluster.reset() returned every lane to OPP 0.
        self.cur_opp = np.zeros(n, dtype=np.intp)
        self._set_opp(self.freq_lut[:, 0].copy(), self.volt_lut[:, 0].copy())
        # Learning state.
        self.cum = np.array([p.cumulative_reward for p in policies])
        self.prev_flat = np.zeros(n, dtype=np.intp)
        self.prev_action = np.zeros(n, dtype=np.intp)
        self.abs_sum = np.zeros(n)
        self.total = np.zeros(n)
        self.max_abs = np.zeros(n)
        self.last = np.zeros(n)
        self.wmean = np.zeros(n)
        self.m2 = np.zeros(n)
        # Previous-interval observation fields (the initial observation:
        # idle cores, relaxed queue, no energy, no misses).
        self.util_max = np.zeros(n)
        self.energy_prev = np.zeros(n)
        self.slack_prev = np.ones(n)
        self.misses_prev = np.zeros(n, dtype=np.int64)
        # Core accounting for the episode-end write-back.
        self.busy = np.zeros((n, self.n_cores))
        self.peak = np.zeros((n, self.n_cores))
        self.util_arr = np.zeros((n, self.n_cores))
        self.idle_arr = np.ones((n, self.n_cores), dtype=bool)
        if online:
            # Pre-consume each lane's episode of draws in select() order.
            # Epsilon is a pure function of (schedule, step): lanes on
            # equal schedules at the same explorer step share one
            # trajectory (lanes may differ in either).
            trajectories: dict[tuple[EpsilonSchedule, int], np.ndarray] = {}
            explore = np.empty((n_steps, n), dtype=bool)
            rand = np.empty((n_steps, n), dtype=np.intp)
            for k, explorer in enumerate(self.explorers):
                key = (explorer.schedule, explorer.step)
                eps = trajectories.get(key)
                if eps is None:
                    eps = explorer.schedule.values(
                        np.arange(explorer.step, explorer.step + n_steps)
                    )
                    eps.flags.writeable = False
                    trajectories[key] = eps
                exp_k, rand_k, _ = explorer.plan_draws(n_steps, eps)
                explore[:, k] = exp_k
                rand[:, k] = rand_k
            self.explore = explore
            self.rand = rand

    # -- per-interval phases --------------------------------------------

    def decide(self, step: int, online: bool, switches: np.ndarray) -> None:
        """Featurise, update the previous decision, select an action.

        Reproduces :meth:`RLPowerManagementPolicy.decide` per lane from
        the previous interval's observation fields: the TD update lands
        *before* the greedy argmax (an update to the very row being
        argmaxed is visible, exactly as serially), and exploration
        consumes the pre-planned draws.
        """
        # StateFeaturizer.digits: predictor.observe(absolute_load) first.
        load = self.util_max * (self.freq_now / self.max_freq)
        if step == 0:
            self.level = load
        else:
            err = load - self.level
            snap = np.abs(err) > self.phase_thr
            self.prev_level = self.level
            self.phase_changes += snap
            self.level = np.where(
                snap, load, self.level + self.pred_alpha * err
            )
        trend = (
            self.level - self.prev_level
            if step >= 1
            else np.zeros(load.shape)
        )
        # The serial featurizer clamps each bin to ``bins - 1``; that is a
        # no-op here: searchsorted over the ``bins - 1`` interior edges
        # returns at most ``bins - 1``, and ``cur_opp <= n_opps - 1``
        # keeps the OPP bin below ``opp_bins``.
        if self.util_edges is None:
            util_bin = np.zeros(load.shape, dtype=np.intp)
        else:
            util_bin = self.util_edges.searchsorted(self.level, side="right")
        if self.trend_edges is None:
            trend_bin = np.zeros(load.shape, dtype=np.intp)
        else:
            trend_bin = self.trend_edges.searchsorted(trend, side="right")
        opp_bin = self.cur_opp * self.opp_bins // max(1, self.n_opps)
        if self.slack_edges is None:
            slack_bin = np.zeros(load.shape, dtype=np.intp)
        else:
            slack_bin = self.slack_edges.searchsorted(
                self.slack_prev, side="right"
            )
        state = (
            (util_bin * self.trend_bins + trend_bin) * self.opp_bins + opp_bin
        ) * self.slack_bins + slack_bin
        flat = self.offsets + state

        if online and step > 0:
            energy_term = self.energy_prev / self.energy_scale
            urgent = self.slack_prev < self.slack_thr
            urgency = np.where(
                urgent,
                (self.slack_thr - self.slack_prev)
                / np.where(urgent, self.slack_thr, 1.0),
                0.0,
            )
            qos_term = self.miss_penalty * self.misses_prev + urgency
            reward = -energy_term - self.lambda_qos * qos_term
            self.cum = self.cum + reward
            # Lane row blocks are disjoint by construction (distinct
            # offsets), so the collision scan can be skipped outright.
            td = self.pop.td_update_many(
                self.prev_flat, self.prev_action, reward, flat,
                self.alpha, self.gamma, assume_distinct=True,
            )
            # TDErrorStats.push, vectorised; the sign test (not abs())
            # keeps a -0.0 error's magnitude bit-identical, and the
            # shared scalar count is exactly ``step`` on every lane.
            mag = np.where(td >= 0.0, td, -td)
            self.abs_sum += mag
            self.total += td
            self.max_abs = np.where(mag > self.max_abs, mag, self.max_abs)
            self.last = td
            delta = td - self.wmean
            self.wmean = self.wmean + delta / step
            self.m2 = self.m2 + delta * (td - self.wmean)

        greedy = self.pop.values[flat].argmax(axis=1)
        if online:
            action = np.where(self.explore[step], self.rand[step], greedy)
        else:
            action = greedy
        self.prev_flat = flat
        self.prev_action = action

        new_opp = np.minimum(
            np.maximum(self.cur_opp + self.deltas[self.lane_idx, action], 0),
            self.max_index,
        )
        switches += new_opp != self.cur_opp
        self.cur_opp = new_opp
        self._set_opp(
            self.freq_lut[self.lane_idx, new_opp],
            self.volt_lut[self.lane_idx, new_opp],
        )

    def drain(
        self, lanes: Sequence[_Lane], step: int, t0: float, t1: float,
        dt: float,
    ) -> list[tuple[int, list[Job]]]:
        """The shared EDF drain, then the observation fields it feeds.

        On top of :meth:`_ClusterLanes.drain`, records what the policy
        reads next interval: late completions plus abandoned jobs, and
        the post-filter queue slack at this interval's ``t1``.
        """
        name = self.name
        misses = np.zeros(len(lanes), dtype=np.int64)
        slack = np.ones(len(lanes))
        drained = super().drain(lanes, step, t0, t1, dt)
        for k, queue in drained:
            keep = lanes[k].queues[name]
            # Every job that left the queue is a miss unless it finished
            # by its deadline; the rest were abandoned.
            missed = len(queue) - len(keep)
            if missed:
                for job in queue:
                    if job.remaining <= 0 and (
                        (done := job.completed_at_s) is None
                        or done <= job.unit.deadline_s
                    ):
                        missed -= 1
                misses[k] = missed
            if keep:
                slack[k] = queue_slack(keep, t1)
        self.misses_prev = misses
        self.slack_prev = slack
        return drained

    def power(
        self, step: int, dt: float, idle_activity: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One interval's cluster power plus the obs fields it feeds."""
        used, util, dyn_c, leak_c = self.price(
            self.cursor_log[step], dt, idle_activity
        )
        self.busy += used
        self.idle_arr = used == 0
        self.peak = np.maximum(self.peak, util)
        self.util_arr = util
        self.util_max = util.max(axis=1)
        # Serially ``p.total_w * dt + 0.0`` with cluster uncore 0 — the
        # ``+ 0.0`` terms are exact no-ops on these non-negative floats.
        self.energy_prev = (dyn_c + leak_c) * dt
        return dyn_c, leak_c

    def end_episode(self, online: bool, n_steps: int) -> None:
        """Materialise per-lane end-of-episode state on the real objects."""
        for k, p in enumerate(self.policies):
            p.cumulative_reward = float(self.cum[k])
            p._prev_state = int(self.prev_flat[k] - self.offsets[k])
            p._prev_action = int(self.prev_action[k])
            pred = p.featurizer.predictor
            pred._level = float(self.level[k])
            pred._prev_level = (
                float(self.prev_level[k]) if n_steps > 1 else None
            )
            pred.phase_changes = int(self.phase_changes[k])
            if online and n_steps > 1:
                agent = self.agents[k]
                stats = agent.td_stats
                stats.count = n_steps - 1
                stats.abs_sum = float(self.abs_sum[k])
                stats.total = float(self.total[k])
                stats.max_abs = float(self.max_abs[k])
                stats.last = float(self.last[k])
                stats.welford_mean = float(self.wmean[k])
                stats.m2 = float(self.m2[k])
                agent.updates += n_steps - 1
            cluster = self.clusters[k]
            cluster.set_opp_index(int(self.cur_opp[k]))
            for c, core in enumerate(cluster.cores):
                core.utilization = float(self.util_arr[k, c])
                core.busy_cycles = float(self.busy[k, c])
                core.idle = bool(self.idle_arr[k, c])
                core._peak_utilization = float(self.peak[k, c])


class _LockstepRunner:
    """Advances N lanes of one chip layout through episodes together.

    Args:
        chips: One chip per lane, all with the same cluster names.
        vec_for: Builds one cluster's decider (by name) across all lanes.
        power_models: One per lane (``None`` = the default model).
        interval_s: The decision interval.
    """

    def __init__(
        self,
        chips: Sequence[Chip],
        vec_for: Callable[[str], _ClusterLanes],
        power_models: Sequence[PowerModel | None],
        interval_s: float,
    ) -> None:
        if interval_s <= 0:
            raise SimulationError(f"interval must be positive: {interval_s}")
        names = chips[0].cluster_names
        if any(chip.cluster_names != names for chip in chips):
            raise SimulationError(
                "lock-step lanes disagree on cluster names"
            )
        self.chips = list(chips)
        self.dt = interval_s
        self.scheduler = HMPScheduler()
        self.cluster_names = names
        self.vecs = [vec_for(name) for name in names]
        self.observes = any(vec.observes for vec in self.vecs)
        models = [pm or PowerModel() for pm in power_models]
        self.uncore_w = np.array([m.uncore_w for m in models])
        self.idle_activity = np.array(
            [m.dynamic.idle_activity for m in models]
        )

    @classmethod
    def for_policies(
        cls,
        chips: Sequence[Chip],
        policies_by_lane: Sequence[dict[str, RLPowerManagementPolicy]],
        power_models: Sequence[PowerModel | None],
        interval_s: float,
    ) -> _LockstepRunner:
        """A runner whose lanes decide with their RL policies; the lanes
        share one :func:`_structure_key` (every caller groups by it)."""
        return cls(
            chips,
            lambda name: _ClusterVec(name, chips, policies_by_lane),
            power_models,
            interval_s,
        )

    def detach(self) -> None:
        for vec in self.vecs:
            if isinstance(vec, _ClusterVec):
                vec.detach()

    def run_episode(
        self, traces: Sequence[Trace], online: bool
    ) -> list[SimulationResult]:
        """One lock-step episode across all lanes; one result per lane."""
        dt = self.dt
        n = len(self.chips)
        steps = [max(1, math.ceil(tr.duration_s / dt)) for tr in traces]
        n_steps = steps[0]
        if any(s != n_steps for s in steps):
            raise SimulationError(
                "lock-step lanes disagree on step count: "
                f"{sorted(set(steps))}"
            )
        for vec in self.vecs:
            vec.begin_episode(online, n_steps)

        edges = np.array([step * dt + dt for step in range(n_steps)])
        lanes = [_Lane(tr, edges, self.cluster_names) for tr in traces]
        switches = np.zeros(n, dtype=np.int64)
        chip_dyn = np.zeros((n_steps, n))
        chip_leak = np.zeros((n_steps, n))

        for step in range(n_steps):
            t0 = step * dt
            t1 = t0 + dt
            # 1. Decisions per cluster in chip order.
            for vec in self.vecs:
                vec.decide(step, online, switches)
            # 3. Release arrivals and place them (sequential per lane;
            # backlog recomputed per unit, as in the engine).
            for k, lane in enumerate(lanes):
                until = lane.arrive_until[step]
                while lane.unit_idx < until:
                    unit = lane.units[lane.unit_idx]
                    backlog = {
                        name: sum(j.remaining for j in q)
                        for name, q in lane.queues.items()
                    }
                    target = self.scheduler.assign(
                        unit, self.chips[k], backlog, t0
                    )
                    if target not in lane.queues:
                        raise SimulationError(
                            f"scheduler placed unit {unit.uid} on unknown "
                            f"cluster {target!r}"
                        )
                    job = Job(unit)
                    lane.queues[target].append(job)
                    lane.all_jobs.append(job)
                    lane.unit_idx += 1
            # 4+5. Drain and abandon per cluster.
            for vec in self.vecs:
                vec.drain(lanes, step, t0, t1, dt)
            # 6. Power, all lanes at once, clusters in chip order; the
            # observation fields the next decide() reads are stored by
            # drain() and power().
            if self.observes:
                for vec in self.vecs:
                    dyn_c, leak_c = vec.power(step, dt, self.idle_activity)
                    chip_dyn[step] += dyn_c
                    chip_leak[step] += leak_c
        if not self.observes:
            for vec in self.vecs:
                _, _, dyn_c, leak_c = vec.price(
                    vec.cursor_log, dt, self.idle_activity
                )
                chip_dyn += dyn_c
                chip_leak += leak_c

        for vec in self.vecs:
            vec.end_episode(online, n_steps)

        # Energy: the meter adds one interval product at a time.
        # ``np.add.accumulate`` adds the rows in interval order, one
        # after another (``np.sum``'s pairwise order would round
        # differently).
        def integrate(watts: np.ndarray) -> np.ndarray:
            return np.add.accumulate(watts * dt, axis=0)[-1]

        dyn_j = integrate(chip_dyn)
        leak_j = integrate(chip_leak)
        uncore_j = integrate(np.broadcast_to(self.uncore_w, (n_steps, n)))

        results: list[SimulationResult] = []
        for k, (lane, trace) in enumerate(zip(lanes, traces)):
            # Units the horizon never released count as dropped work.
            for leftover in lane.units[lane.unit_idx:]:
                lane.all_jobs.append(Job(leftover))
            if self.observes:
                # RL lanes report completion times as np.float64: the
                # pinned perfbench ``batch_population`` digest hashes the
                # repr of the QoS fields derived from them.  The values
                # equal the serial engine's Python floats.
                for job in lane.all_jobs:
                    if job.completed_at_s is not None:
                        job.completed_at_s = np.float64(job.completed_at_s)
            qos = evaluate_jobs(lane.all_jobs, DEFAULT_GRACE_FACTOR)
            total_j = float(dyn_j[k]) + float(leak_j[k]) + float(uncore_j[k])
            results.append(SimulationResult(
                governor="+".join(sorted({vec.names[k] for vec in self.vecs})),
                trace_name=trace.name,
                duration_s=n_steps * dt,
                total_energy_j=total_j,
                dynamic_energy_j=float(dyn_j[k]),
                leakage_energy_j=float(leak_j[k]),
                uncore_energy_j=float(uncore_j[k]),
                qos=qos,
                intervals=n_steps,
                opp_switches=int(switches[k]),
            ))
        return results


def train_policy_batch(
    jobs: Sequence[RLTrainJob], force_serial: bool = False
) -> list[TrainingResult]:
    """Train many RL jobs, lock-step vectorised where possible.

    Jobs whose (chip structure, state geometry, interval, episode plan)
    match are trained together through one lock-step pass; everything
    else — unsupported policy or power-model types, singleton groups
    (the lock step only pays off across lanes), jobs sharing chip or
    policy objects, or any run under an active observability session —
    goes through the serial :func:`train_policy`.  Results are
    bit-identical either way and returned in job order.

    Args:
        jobs: The training jobs; each job's ``policies`` is materialised
            in place when omitted.
        force_serial: Run everything serially (the bit-identity oracle).
    """
    jobs = list(jobs)
    for job in jobs:
        job.policies = job.policies or make_policies(job.chip, job.config)

    groups: dict[Hashable, list[int]] = {}
    if not force_serial and not OBS.enabled:
        for i, job in enumerate(jobs):
            if job.episodes < 1:
                continue  # the serial path raises the canonical error
            if not _lockstep_supported(
                job.chip, job.policies, job.power_model, online=True
            ):
                continue
            key = (
                _structure_key(job.chip, job.policies),
                job.interval_s, job.episodes, job.episode_duration_s,
            )
            groups.setdefault(key, []).append(i)

    results: list[TrainingResult | None] = [None] * len(jobs)
    grouped: set[int] = set()
    for indices in groups.values():
        members = [jobs[i] for i in indices]
        if len(indices) >= 2 and _distinct_objects(
            [j.chip for j in members], [j.policies for j in members]
        ):
            for i, res in zip(indices, _train_group(members)):
                results[i] = res
            grouped.update(indices)
    for i, job in enumerate(jobs):
        if i in grouped:
            continue
        results[i] = train_policy(
            job.chip,
            job.scenario,
            episodes=job.episodes,
            episode_duration_s=job.episode_duration_s,
            base_seed=job.base_seed,
            config=job.config,
            interval_s=job.interval_s,
            power_model=job.power_model,
            policies=job.policies,
            recorder=job.recorder,
            episode_offset=job.episode_offset,
        )
    return results


def _train_group(jobs: Sequence[RLTrainJob]) -> list[TrainingResult]:
    """Train one structurally-uniform group lock-step.

    The per-lane bookkeeping — history records, ledger rows, churn
    snapshots — is the serial :func:`train_policy` loop body verbatim,
    including taking the pre-training greedy snapshot *before* the
    runner binds fresh agents (a fresh lane therefore reports 0.0 churn
    after its first episode, exactly as serially).
    """
    prev_greedy = [
        _greedy_snapshot(job.policies) if job.recorder is not None else None
        for job in jobs
    ]
    runner = _LockstepRunner.for_policies(
        [job.chip for job in jobs],
        [job.policies for job in jobs],
        [job.power_model for job in jobs],
        jobs[0].interval_s,
    )
    histories: list[list[EpisodeRecord]] = [[] for _ in jobs]
    reward_before = [
        sum(p.cumulative_reward for p in job.policies.values())
        for job in jobs
    ]
    try:
        for episode in range(jobs[0].episodes):
            traces = [
                job.scenario.trace(
                    job.episode_duration_s, seed=job.base_seed + episode
                )
                for job in jobs
            ]
            episode_results = runner.run_episode(traces, online=True)
            for k, job in enumerate(jobs):
                record = _episode_record(
                    episode, episode_results[k], job.policies,
                    reward_before[k],
                )
                reward_before[k] += record.reward
                histories[k].append(record)
                _emit_episode_obs(record)
                if job.recorder is not None and prev_greedy[k] is not None:
                    greedy = _greedy_snapshot(job.policies)
                    _record_episode(
                        job.recorder, record, job.policies,
                        job.scenario.name,
                        churn=_policy_churn(prev_greedy[k], greedy),
                        episode_offset=job.episode_offset,
                    )
                    prev_greedy[k] = greedy
    finally:
        runner.detach()
    return [
        TrainingResult(policies=job.policies, history=history)
        for job, history in zip(jobs, histories)
    ]


def evaluate_policies_batch(
    chips: Sequence[Chip],
    policies_by_lane: Sequence[dict[str, RLPowerManagementPolicy]],
    traces: Sequence[Trace],
    interval_s: float = 0.01,
    power_models: Sequence[PowerModel | None] | None = None,
) -> list[SimulationResult]:
    """Evaluate many trained lanes greedily, lock-step where possible.

    The batched counterpart of
    :func:`repro.core.trainer.evaluate_policy`: every lane's policies
    are frozen (online flags restored afterwards) and run greedily over
    its trace.  Structurally-uniform lanes share one lock-step pass;
    anything else falls back to the serial evaluator, bit-identically.

    Raises:
        SimulationError: On mismatched input lengths.
    """
    n = len(chips)
    models = (
        list(power_models) if power_models is not None else [None] * n
    )
    if not (len(policies_by_lane) == len(traces) == len(models) == n):
        raise SimulationError(
            "evaluate_policies_batch needs one policies dict, trace, and "
            f"power model per chip: {len(policies_by_lane)} policies/"
            f"{len(traces)} traces/{len(models)} models for {n} chips"
        )
    from repro.fleet.worker import frozen_policies

    with ExitStack() as stack:
        for policies in policies_by_lane:
            stack.enter_context(frozen_policies(policies))
        fast = (
            n >= 2
            and not OBS.enabled
            and all(
                _lockstep_supported(chip, pol, pm, online=False)
                for chip, pol, pm in zip(chips, policies_by_lane, models)
            )
            and len({
                _structure_key(chip, pol)
                for chip, pol in zip(chips, policies_by_lane)
            }) == 1
            and _distinct_objects(chips, policies_by_lane)
            and len({
                max(1, math.ceil(tr.duration_s / interval_s))
                for tr in traces
            }) == 1
        )
        if fast:
            runner = _LockstepRunner.for_policies(
                chips, policies_by_lane, models, interval_s
            )
            try:
                return runner.run_episode(list(traces), online=False)
            finally:
                runner.detach()
        return [
            evaluate_policy(
                chip, pol, tr, interval_s=interval_s, power_model=pm
            )
            for chip, pol, tr, pm in zip(
                chips, policies_by_lane, traces, models
            )
        ]
