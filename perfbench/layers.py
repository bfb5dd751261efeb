"""Which ``repro`` functions the traced run wraps, and the metrics it reports.

Each layer is a public function or method on the blocking path of one
workload.  :func:`install_sim_layers` covers the simulation workloads
(run in the benchmark's own process); :func:`install_serve_layers`
covers the decision service (run inside the ``repro serve`` process by
``serve_traced.py``).  The batch backend's per-cluster lock-step core is
private (``_ClusterVec``); its step methods are wrapped by name and
attributed to training or evaluation by the episode that runs them.
"""

from __future__ import annotations

import math
from typing import Any

from spans import Patcher

#: Per-layer metrics of the traced run: name -> (unit, better).  Every
#: workload reports all of them; a layer a workload never enters reads 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    "workload.trace.calls": ("count", "lower"),
    "workload.trace.self_s": ("s", "lower"),
    "sim.engine.runs": ("count", "lower"),
    "sim.engine.intervals": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.scheduler.assign.calls": ("count", "lower"),
    "sim.scheduler.assign.self_s": ("s", "lower"),
    "governors.decide.calls": ("count", "lower"),
    "governors.decide.self_s": ("s", "lower"),
    "core.policy.decide.calls": ("count", "lower"),
    "core.policy.decide.self_s": ("s", "lower"),
    "core.state.encode.self_s": ("s", "lower"),
    "rl.update.calls": ("count", "lower"),
    "rl.update.self_s": ("s", "lower"),
    "rl.act.self_s": ("s", "lower"),
    "rl.plan_draws.self_s": ("s", "lower"),
    "rl.td_update_many.calls": ("count", "lower"),
    "rl.td_update_many.self_s": ("s", "lower"),
    "power.cluster_power.calls": ("count", "lower"),
    "power.cluster_power.self_s": ("s", "lower"),
    "thermal.step.self_s": ("s", "lower"),
    "idle.observe.self_s": ("s", "lower"),
    "qos.evaluate.self_s": ("s", "lower"),
    "fleet.jobs": ("count", "higher"),
    "fleet.failed": ("count", "lower"),
    "fleet.overhead_s": ("s", "lower"),
    "batch.fast_frac": ("ratio", "higher"),
    "batch.fixed_opp.calls": ("count", "higher"),
    "batch.fixed_opp.self_s": ("s", "lower"),
    "batch.rl.lanes": ("count", "higher"),
    "batch.rl.lane_intervals": ("count", "higher"),
    "batch.rl.train.self_s": ("s", "lower"),
    "batch.rl.eval.self_s": ("s", "lower"),
    "serve.protocol.decode.self_s": ("s", "lower"),
    "serve.protocol.encode.self_s": ("s", "lower"),
    "serve.server.submit.self_s": ("s", "lower"),
    "serve.session.decide.self_s": ("s", "lower"),
    "serve.session.sessions": ("count", "higher"),
    "obs.opslog.log.calls": ("count", "lower"),
    "obs.opslog.log.self_s": ("s", "lower"),
    "serve.server.queue_wait_p50_ms": ("ms", "lower"),
    "serve.server.queue_wait_p99_ms": ("ms", "lower"),
    "serve.client.residual_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

PHASE_A_TAG = "A"
"""Request ids of ``serve_jsonl`` phase A start with this; in the traced
server the stages of those requests also aggregate under ``A/<layer>``."""

SERVE_STAGES = ("serve.protocol.decode", "serve.server.submit",
                "serve.session.decide", "serve.protocol.encode",
                "obs.opslog.log")
"""The server-side stages of one served decision, one after another."""

def install_sim_layers(patcher: Patcher) -> None:
    """Wrap the simulation, RL and batch layers (in this process)."""
    from repro.batch import engine as batch_engine
    from repro.batch import rl as batch_rl
    from repro.core.policy import RLPowerManagementPolicy
    from repro.core.state import StateFeaturizer
    from repro.governors.base import Governor
    from repro.idle.governor import MenuIdleGovernor
    from repro.power.model import PowerModel
    from repro.qos import metrics as qos_metrics
    from repro.rl.exploration import EpsilonGreedy
    from repro.rl.qlearning import QLearningAgent
    from repro.rl.qtable import QTable
    from repro.sim.engine import Simulator
    from repro.sim.scheduler import Scheduler
    from repro.thermal.rc import ThermalModel
    from repro.workload.scenarios import Scenario

    recorder = patcher.recorder

    def count_intervals(result: Any, args: tuple, kwargs: dict) -> None:
        recorder.count("sim.engine.intervals", result.intervals)

    patcher.method(Scenario, "trace", "workload.trace")
    patcher.method(Simulator, "run", "sim.engine", on_result=count_intervals)
    patcher.method(Scheduler, "assign", "sim.scheduler.assign",
                   subclasses=True)
    patcher.method(Governor, "decide", "governors.decide", subclasses=True,
                   skip=(RLPowerManagementPolicy,))
    patcher.method(RLPowerManagementPolicy, "decide", "core.policy.decide",
                   subclasses=True)
    patcher.method(StateFeaturizer, "encode", "core.state.encode")
    patcher.method(QLearningAgent, "update", "rl.update")
    patcher.method(QLearningAgent, "act", "rl.act")
    patcher.method(QLearningAgent, "act_greedy", "rl.act")
    patcher.method(EpsilonGreedy, "plan_draws", "rl.plan_draws")
    patcher.method(QTable, "td_update_many", "rl.td_update_many")
    patcher.method(PowerModel, "cluster_power", "power.cluster_power")
    patcher.method(ThermalModel, "step", "thermal.step")
    patcher.method(MenuIdleGovernor, "observe", "idle.observe")
    patcher.function(qos_metrics, "evaluate_jobs", "qos.evaluate")
    patcher.function(batch_engine, "run_fixed_opp", "batch.fixed_opp")

    # Lock-step RL: one episode runs every lane through every interval;
    # the per-cluster vector steps inside it are training or evaluation
    # depending on the episode's ``online`` flag.
    mode = ["train"]
    runner = getattr(batch_rl, "_LockstepRunner", None)
    if runner is None or "run_episode" not in vars(runner):
        patcher.missing.append("repro.batch.rl._LockstepRunner.run_episode")
        return
    run_episode = vars(runner)["run_episode"]
    timed_episode = recorder.wrap(run_episode, "batch.rl.episode")

    def episode(self: Any, traces: Any, online: bool) -> Any:
        mode[0] = "train" if online else "eval"
        steps = [max(1, math.ceil(tr.duration_s / self.dt)) for tr in traces]
        recorder.count("batch.rl.lanes", len(traces))
        recorder.count("batch.rl.lane_intervals", sum(steps))
        return timed_episode(self, traces, online)

    patcher.replace(runner, "run_episode", episode)
    vec = getattr(batch_rl, "_ClusterVec", None)
    for attr in ("decide", "drain", "power"):
        if vec is None or attr not in vars(vec):
            patcher.missing.append(f"repro.batch.rl._ClusterVec.{attr}")
            continue
        patcher.method(vec, attr, lambda: f"batch.rl.{mode[0]}")


def install_serve_layers(patcher: Patcher) -> None:
    """Wrap the decision-service layers (in the ``repro serve`` process),
    plus the policy layers a served decision runs through."""
    from repro.core.policy import RLPowerManagementPolicy
    from repro.core.state import StateFeaturizer
    from repro.obs.opslog import OpsLogger
    from repro.rl.qlearning import QLearningAgent
    from repro.serve import protocol
    from repro.serve.server import PolicyServer
    from repro.serve.session import DecisionSession

    recorder = patcher.recorder

    def count_session(result: Any, args: tuple, kwargs: dict) -> None:
        recorder.count("serve.session.sessions")

    def tag_phase(data: Any, *args: Any, **kwargs: Any) -> None:
        # The client starts a phase only once every reply of the one
        # before is back, so the tag set at decode covers every span of
        # the phase's requests.
        request_id = str(data.get("request_id", "")) if isinstance(data, dict) else ""
        recorder.tag = PHASE_A_TAG if request_id.startswith(PHASE_A_TAG) else ""

    patcher.function(protocol, "request_from_mapping", "serve.protocol.decode",
                     before=tag_phase)
    patcher.function(protocol, "reply_to_mapping", "serve.protocol.encode")
    patcher.method(PolicyServer, "submit", "serve.server.submit")
    patcher.method(DecisionSession, "__init__", "serve.session.init",
                   on_result=count_session)
    patcher.method(DecisionSession, "decide", "serve.session.decide")
    patcher.method(OpsLogger, "log", "obs.opslog.log")
    patcher.method(RLPowerManagementPolicy, "decide", "core.policy.decide",
                   subclasses=True)
    patcher.method(StateFeaturizer, "encode", "core.state.encode")
    patcher.method(QLearningAgent, "act", "rl.act")
    patcher.method(QLearningAgent, "act_greedy", "rl.act")
