"""Task-to-cluster scheduling.

Mobile big.LITTLE kernels use HMP/EAS-style placement: work that a
LITTLE core can finish inside its deadline stays on the LITTLE cluster;
demanding single-threaded work migrates to the big cluster.  The
scheduler here makes that placement per work unit at release time, using
only information a kernel would have: the unit's demand estimate, its
deadline, per-cluster peak capacity, and the current backlog.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.soc.chip import Chip
from repro.workload.task import WorkUnit


class Scheduler(ABC):
    """Maps released work units to cluster names."""

    @abstractmethod
    def assign(
        self, unit: WorkUnit, chip: Chip, backlog_work: dict[str, float], now_s: float
    ) -> str:
        """Choose the cluster that will run ``unit``.

        Args:
            unit: The newly released work unit.
            chip: The chip being simulated.
            backlog_work: Pending work (reference cycles) per cluster name.
            now_s: Current simulation time.

        Returns:
            The chosen cluster's name.
        """


@dataclass
class HMPScheduler(Scheduler):
    """Deadline-aware heterogeneous placement.

    A unit goes to the smallest (lowest peak-capacity) cluster that could
    still meet the unit's deadline at full tilt with the current backlog
    in front of it, with a safety margin.  If no cluster qualifies, the
    highest-capacity cluster takes it.

    Attributes:
        margin: Capacity safety factor; 0.8 means plan to use at most
            80 % of a cluster's peak rate (headroom for jitter).
    """

    margin: float = 0.8

    def __post_init__(self) -> None:
        if not 0 < self.margin <= 1:
            raise ConfigurationError(f"margin must be in (0, 1]: {self.margin}")

    def assign(
        self, unit: WorkUnit, chip: Chip, backlog_work: dict[str, float], now_s: float
    ) -> str:
        time_left = max(unit.deadline_s - now_s, 1e-6)
        # Clusters by single-thread peak capacity, smallest first.
        for name, peak, n_cores in chip.peak_ranking:
            peak_1t = peak * min(unit.min_parallelism, n_cores)
            peak_cluster = peak * n_cores
            backlog = backlog_work.get(name, 0.0)
            # The unit itself is rate-limited by its parallelism; the backlog
            # in front of it drains at full cluster rate.
            needed_s = unit.work / (peak_1t * self.margin) + backlog / (
                peak_cluster * self.margin
            )
            if needed_s <= time_left:
                return name
        return chip.peak_ranking[-1][0]


@dataclass
class PinnedScheduler(Scheduler):
    """Sends every unit to one named cluster (for tests and ablations)."""

    cluster_name: str

    def assign(
        self, unit: WorkUnit, chip: Chip, backlog_work: dict[str, float], now_s: float
    ) -> str:
        if self.cluster_name not in chip.cluster_names:
            raise ConfigurationError(
                f"pinned cluster {self.cluster_name!r} not on chip "
                f"{chip.name!r} (has {chip.cluster_names})"
            )
        return self.cluster_name
