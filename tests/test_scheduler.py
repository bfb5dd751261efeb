"""Task placement: HMP deadline-aware assignment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.scheduler import HMPScheduler, PinnedScheduler
from repro.soc.chip import Chip
from repro.soc.cluster import ClusterSpec
from repro.soc.core import CoreSpec
from repro.soc.opp import make_table
from repro.workload.task import WorkUnit

from conftest import unit


class TestHMPScheduler:
    def test_light_work_goes_little(self, duo_chip):
        # 1e6 cycles due in 100 ms: trivially fits the LITTLE cluster.
        sched = HMPScheduler()
        u = unit(work=1e6, deadline=0.1)
        assert sched.assign(u, duo_chip, {}, now_s=0.0) == "little"

    def test_heavy_single_thread_goes_big(self, duo_chip):
        # LITTLE peak 1-thread rate = 1.2e9 * 0.8 margin; 3e7 cycles due in
        # 16 ms needs 1.875e9/s -> must go big.
        sched = HMPScheduler()
        u = unit(work=3e7, deadline=0.016)
        assert sched.assign(u, duo_chip, {}, now_s=0.0) == "big"

    def test_backlog_pushes_work_up(self, duo_chip):
        sched = HMPScheduler()
        u = unit(work=1e7, deadline=0.02)
        # Without backlog LITTLE would do: 1e7/(1.2e9*0.8) = 10.4 ms < 20 ms.
        assert sched.assign(u, duo_chip, {"little": 0.0}, 0.0) == "little"
        # A large LITTLE backlog makes the deadline impossible there.
        assert sched.assign(u, duo_chip, {"little": 5e8}, 0.0) == "big"

    def test_impossible_deadline_falls_to_biggest(self, duo_chip):
        sched = HMPScheduler()
        u = unit(work=1e9, deadline=0.001)
        assert sched.assign(u, duo_chip, {}, 0.0) == "big"

    def test_past_deadline_still_assigns(self, duo_chip):
        sched = HMPScheduler()
        u = unit(work=1e6, deadline=0.1)
        assert sched.assign(u, duo_chip, {}, now_s=5.0) == "big"

    def test_single_cluster_chip_takes_everything(self, tiny_chip):
        sched = HMPScheduler()
        u = unit(work=1e6, deadline=0.1)
        assert sched.assign(u, tiny_chip, {}, 0.0) == "cpu"

    def test_margin_validation(self):
        with pytest.raises(ConfigurationError):
            HMPScheduler(margin=0.0)
        with pytest.raises(ConfigurationError):
            HMPScheduler(margin=1.5)

    def test_parallel_unit_uses_more_cores(self, duo_chip):
        """A 2-thread unit can stay on LITTLE where the 1-thread version
        would have to migrate to big."""
        sched = HMPScheduler()
        serial = unit(work=2.2e7, deadline=0.016, parallelism=1)
        parallel = unit(uid=1, work=2.2e7, deadline=0.016, parallelism=2)
        assert sched.assign(serial, duo_chip, {}, 0.0) == "big"
        assert sched.assign(parallel, duo_chip, {}, 0.0) == "little"


def per_call_sort_assign(margin, unit, chip, backlog_work, now_s):
    """The HMP placement rule with the clusters re-sorted by peak on every
    call — the reference the chip's precomputed ranking must match."""
    time_left = max(unit.deadline_s - now_s, 1e-6)
    ranked = sorted(
        chip.clusters,
        key=lambda c: c.spec.core.capacity * c.spec.opp_table.max_freq_hz,
    )
    for cluster in ranked:
        peak_1t = (
            cluster.spec.core.capacity
            * cluster.spec.opp_table.max_freq_hz
            * min(unit.min_parallelism, cluster.n_cores)
        )
        peak_cluster = (
            cluster.spec.core.capacity
            * cluster.spec.opp_table.max_freq_hz
            * cluster.n_cores
        )
        backlog = backlog_work.get(cluster.spec.name, 0.0)
        needed_s = unit.work / (peak_1t * margin) + backlog / (
            peak_cluster * margin
        )
        if needed_s <= time_left:
            return cluster.spec.name
    return ranked[-1].spec.name


# Capacities and top frequencies whose products tie exactly
# (1.0 x 2000 MHz == 2.0 x 1000 MHz == 4.0 x 500 MHz).
_cluster_params = st.tuples(
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    st.sampled_from([500, 1000, 2000]),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def chips(draw):
    params = draw(st.lists(_cluster_params, min_size=1, max_size=4))
    return Chip("generated", [
        ClusterSpec(
            f"c{i}",
            CoreSpec(name=f"k{i}", capacity=capacity, ceff_f=1e-10,
                     leak_a_per_v=0.01),
            n_cores=n_cores,
            opp_table=make_table([200, top_mhz], [0.9, 1.0]),
        )
        for i, (capacity, top_mhz, n_cores) in enumerate(params)
    ])


class TestHMPRanking:
    def test_ties_keep_declaration_order(self):
        chip = Chip("tied", [
            ClusterSpec(name, CoreSpec(name="k", capacity=capacity,
                                       ceff_f=1e-10, leak_a_per_v=0.01),
                        n_cores=2, opp_table=make_table([200, top], [0.9, 1.0]))
            for name, capacity, top in (("fast", 4.0, 1000), ("b", 2.0, 1000),
                                        ("a", 1.0, 2000))
        ])
        assert [row[0] for row in chip.peak_ranking] == ["b", "a", "fast"]
        assert chip.peak_ranking[0] == ("b", 2.0 * 1000e6, 2)

    @settings(max_examples=300, deadline=None)
    @given(
        chip=chips(),
        work=st.floats(min_value=1e3, max_value=1e10),
        window_s=st.floats(min_value=1e-4, max_value=1.0),
        now_s=st.floats(min_value=0.0, max_value=2.0),
        parallelism=st.integers(min_value=1, max_value=6),
        margin=st.sampled_from([0.5, 0.8, 1.0]),
        backlogs=st.lists(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e10)),
            min_size=4, max_size=4,
        ),
    )
    def test_matches_per_call_sort(self, chip, work, window_s, now_s,
                                   parallelism, margin, backlogs):
        u = WorkUnit(uid=0, release_s=0.5, work=work,
                     deadline_s=0.5 + window_s, min_parallelism=parallelism)
        backlog = {
            name: b for name, b in zip(chip.cluster_names, backlogs)
            if b is not None
        }
        expected = per_call_sort_assign(margin, u, chip, backlog, now_s)
        assert HMPScheduler(margin).assign(u, chip, backlog, now_s) == expected


class TestPinnedScheduler:
    def test_pins(self, duo_chip):
        sched = PinnedScheduler("big")
        assert sched.assign(unit(), duo_chip, {}, 0.0) == "big"

    def test_unknown_cluster_rejected(self, duo_chip):
        sched = PinnedScheduler("gpu")
        with pytest.raises(ConfigurationError):
            sched.assign(unit(), duo_chip, {}, 0.0)
