"""Batched multi-rollout simulation backend.

:class:`BatchEngine` runs many (scenario, seed, governor) rollouts in
one process while remaining **bit-identical** to the reference
:class:`repro.sim.engine.Simulator` — see :mod:`repro.batch.plans` for
which rollouts qualify.  Table-free governors and groups of
structurally-matching ``rl-policy`` jobs run as lanes of one lock-step
core (:mod:`repro.batch.rl`): lanes advance through every interval
together, with a per-cluster decider — a fixed OPP index, or the
featurise → TD-update → select loop batched across rollouts.
"""

from repro.batch.engine import BatchEngine, run_batch, run_fixed_opp
from repro.batch.plans import (
    TABLE_FREE_GOVERNORS,
    fixed_opp_index,
    is_rl_vectorisable,
    is_vectorisable,
    rl_group_key,
)
from repro.batch.rl import (
    RLTrainJob,
    evaluate_policies_batch,
    train_policy_batch,
)

__all__ = [
    "BatchEngine",
    "RLTrainJob",
    "TABLE_FREE_GOVERNORS",
    "evaluate_policies_batch",
    "fixed_opp_index",
    "is_rl_vectorisable",
    "is_vectorisable",
    "rl_group_key",
    "run_batch",
    "run_fixed_opp",
    "train_policy_batch",
]
