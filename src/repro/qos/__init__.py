"""QoS substrate: per-unit quality scoring and the energy/QoS metric."""

from repro.qos.classes import (
    BACKGROUND,
    BEST_EFFORT,
    INTERACTIVE,
    QoSClass,
    QoSClassMap,
    default_mobile_classes,
    evaluate_jobs_weighted,
)
from repro.qos.energy_per_qos import (
    energy_per_qos,
    energy_per_qos_j,
    improvement_percent,
)
from repro.qos.metrics import (
    DEFAULT_GRACE_FACTOR,
    QoSReport,
    evaluate_jobs,
    soft_qos,
)

__all__ = [
    "BACKGROUND",
    "BEST_EFFORT",
    "DEFAULT_GRACE_FACTOR",
    "INTERACTIVE",
    "QoSClass",
    "QoSClassMap",
    "QoSReport",
    "default_mobile_classes",
    "energy_per_qos",
    "energy_per_qos_j",
    "evaluate_jobs",
    "evaluate_jobs_weighted",
    "improvement_percent",
    "soft_qos",
]
