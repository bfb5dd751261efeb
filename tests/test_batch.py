"""The batched rollout backend: vectorisation plans and bit-identity.

The contract under test is absolute: for every rollout the batch
backend claims it can vectorise, its result must equal the serial
:class:`repro.sim.engine.Simulator`'s **bit for bit** — ``==`` on every
float, never ``pytest.approx``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchEngine,
    TABLE_FREE_GOVERNORS,
    fixed_opp_index,
    is_vectorisable,
    run_batch,
)
from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec
from repro.soc.presets import PRESETS
from repro.workload.scenarios import SCENARIOS


def _assert_bit_identical(serial, batch) -> None:
    assert batch.governor == serial.governor
    assert batch.trace_name == serial.trace_name
    assert batch.duration_s == serial.duration_s
    assert batch.intervals == serial.intervals
    assert batch.opp_switches == serial.opp_switches
    # Exact float equality, component by component — the whole point.
    assert batch.total_energy_j == serial.total_energy_j
    assert batch.dynamic_energy_j == serial.dynamic_energy_j
    assert batch.leakage_energy_j == serial.leakage_energy_j
    assert batch.uncore_energy_j == serial.uncore_energy_j
    assert batch.qos == serial.qos
    assert batch.energy_per_qos_j == serial.energy_per_qos_j


class TestPlans:
    def test_table_free_set(self):
        assert TABLE_FREE_GOVERNORS == {"performance", "powersave", "userspace"}

    def test_fixed_opp_indices(self):
        chip = PRESETS["exynos5422"]()
        for cluster in chip.clusters:
            table = cluster.spec.opp_table
            assert fixed_opp_index("performance", table) == table.max_index
            assert fixed_opp_index("powersave", table) == 0
            assert fixed_opp_index("userspace", table) == table.max_index // 2
            assert fixed_opp_index("ondemand", table) is None

    def test_is_vectorisable(self):
        base = JobSpec(scenario="idle", governor="performance")
        assert is_vectorisable(base)
        from dataclasses import replace

        assert not is_vectorisable(replace(base, governor="ondemand"))
        assert not is_vectorisable(replace(base, governor="rl-policy"))
        assert not is_vectorisable(replace(base, full_system=True))
        assert not is_vectorisable(replace(base, collect_metrics=True))
        assert not is_vectorisable(replace(base, trace_dir="/tmp/t"))

    def test_plan_respects_force_serial(self):
        specs = [JobSpec(scenario="idle", governor="performance")]
        assert BatchEngine(specs).plan() == [True]
        assert BatchEngine(specs, force_serial=True).plan() == [False]

    def test_plan_mixed_governors(self):
        specs = [
            JobSpec(scenario="idle", governor="performance"),
            JobSpec(scenario="idle", governor="ondemand"),
        ]
        assert BatchEngine(specs).plan() == [True, False]


class TestBitIdentity:
    @pytest.mark.parametrize("governor", sorted(TABLE_FREE_GOVERNORS))
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_matches_serial_engine(self, scenario, governor):
        spec = JobSpec(scenario=scenario, governor=governor, seed=100,
                       duration_s=2.0)
        [batch] = run_batch([spec])
        _assert_bit_identical(simulate_spec(spec), batch)

    def test_across_seeds_and_chips(self):
        specs = [
            JobSpec(scenario="gaming", governor="powersave", seed=seed,
                    chip=chip, duration_s=2.0)
            for seed in (100, 271, 999)
            for chip in ("exynos5422", "tiny")
        ]
        for spec, batch in zip(specs, run_batch(specs)):
            _assert_bit_identical(simulate_spec(spec), batch)

    def test_run_batch_mixed_plan_falls_back(self):
        """Non-vectorisable rollouts silently take the serial engine and
        still match it exactly."""
        specs = [
            JobSpec(scenario="idle", governor="performance", duration_s=1.0),
            JobSpec(scenario="idle", governor="ondemand", duration_s=1.0),
        ]
        for spec, batch in zip(specs, run_batch(specs)):
            _assert_bit_identical(simulate_spec(spec), batch)

    def test_force_serial_identical_output(self):
        specs = [JobSpec(scenario="web_browsing", governor="userspace",
                         duration_s=1.0)]
        fast = run_batch(specs)
        slow = run_batch(specs, force_serial=True)
        _assert_bit_identical(slow[0], fast[0])

    def test_obs_session_disables_vectorisation(self):
        """With observability on, the serial engine must run (it owns
        the spans/counters); the plan degrades rather than dropping
        telemetry."""
        from repro.obs import capture

        specs = [JobSpec(scenario="idle", governor="performance",
                         duration_s=1.0)]
        with capture(trace=False):
            assert BatchEngine(specs).plan() == [False]
            batch = run_batch(specs)
        _assert_bit_identical(simulate_spec(specs[0]), batch[0])


class TestTraceSharing:
    """One ``run_batch`` call builds each evaluation trace once and
    shares it between RL evaluation lanes and fixed-OPP rollouts."""

    @staticmethod
    def _specs() -> list[JobSpec]:
        rl = [
            JobSpec(scenario="audio_playback", governor="rl-policy",
                    seed=100 + k, chip="tiny", duration_s=1.0,
                    train_episodes=1, train_base_seed=1000 * (k + 1))
            for k in range(2)
        ]
        fixed = [
            JobSpec(scenario="audio_playback", governor=governor,
                    seed=seed, chip="tiny", duration_s=1.0)
            for governor in ("performance", "powersave")
            for seed in (100, 101, 102)
        ]
        return rl + fixed

    def test_shared_traces_match_serial_and_stay_unchanged(self, monkeypatch):
        from collections import Counter

        from repro.workload.scenarios import Scenario

        specs = self._specs()
        assert all(BatchEngine(specs).plan())
        serial = run_batch(specs, force_serial=True)

        calls: Counter = Counter()
        built = []
        original = Scenario.trace

        def spy(self, duration_s=60.0, seed=0):
            calls[(self.name, duration_s, seed)] += 1
            trace = original(self, duration_s, seed=seed)
            built.append((trace, trace.units, list(trace.units)))
            return trace

        monkeypatch.setattr(Scenario, "trace", spy)
        batch = run_batch(specs)

        for a, b in zip(serial, batch):
            assert b == a
            _assert_bit_identical(a, b)
        # Every distinct key generated once: the two training traces plus
        # the evaluation seeds 100-102, which the RL lanes and both
        # fixed-OPP governors share.
        assert calls == {
            ("audio_playback", 1.0, 1000): 1,
            ("audio_playback", 1.0, 2000): 1,
            ("audio_playback", 1.0, 100): 1,
            ("audio_playback", 1.0, 101): 1,
            ("audio_playback", 1.0, 102): 1,
        }
        for trace, units, snapshot in built:
            assert isinstance(trace.units, tuple)
            assert trace.units is units
            assert list(trace.units) == snapshot

    def test_rl_group_and_fixed_groups_on_shared_traces(self):
        """One call forms an RL group and fixed-OPP groups of two chips
        and two durations over the same evaluation traces; every lane
        matches the serial engine, OPP switches included."""
        rl = [
            JobSpec(scenario="gaming", governor="rl-policy", seed=100 + k,
                    chip="exynos5422", duration_s=0.5, train_episodes=1,
                    train_base_seed=1000 * (k + 1))
            for k in range(2)
        ]
        fixed = [
            JobSpec(scenario="gaming", governor=governor, seed=seed,
                    chip=chip, duration_s=duration)
            for governor in sorted(TABLE_FREE_GOVERNORS)
            for seed in (100, 101)
            for chip, duration in (("exynos5422", 0.5), ("tiny", 0.5),
                                   ("exynos5422", 0.255))
        ]
        specs = rl + fixed
        assert all(BatchEngine(specs).plan())
        serial = run_batch(specs, force_serial=True)
        batch = run_batch(specs)
        for a, b in zip(serial, batch):
            assert b == a
            _assert_bit_identical(a, b)
        for spec, b in zip(fixed, batch[len(rl):]):
            # One switch per cluster the fixed index moves off OPP 0.
            clusters = len(PRESETS[spec.chip]().clusters)
            expected = 0 if spec.governor == "powersave" else clusters
            assert b.opp_switches == expected

    def test_cache_does_not_outlive_the_call(self, monkeypatch):
        from repro.workload.scenarios import Scenario

        specs = self._specs()[2:4]
        calls = []
        original = Scenario.trace

        def spy(self, duration_s=60.0, seed=0):
            calls.append(seed)
            return original(self, duration_s, seed=seed)

        monkeypatch.setattr(Scenario, "trace", spy)
        engine = BatchEngine(specs)
        first = engine.run()
        second = engine.run()
        assert calls == [100, 101, 100, 101]
        for a, b in zip(first, second):
            _assert_bit_identical(a, b)


_FIXED_SPEC = st.builds(
    JobSpec,
    scenario=st.sampled_from(sorted(SCENARIOS)),
    governor=st.sampled_from(sorted(TABLE_FREE_GOVERNORS)),
    seed=st.integers(min_value=0, max_value=500),
    chip=st.sampled_from(["exynos5422", "tiny"]),
    # Few distinct durations, so groups and singletons both form; 0.255
    # and 0.333 are not multiples of the 10 ms interval.
    duration_s=st.sampled_from([0.255, 0.333, 0.5, 1.0]),
)


class TestFixedOPPDifferential:
    """Random mixes of table-free rollouts, grouped however they fall,
    against the serial engine."""

    @settings(max_examples=50, deadline=None)
    @given(specs=st.lists(_FIXED_SPEC, min_size=1, max_size=8))
    def test_run_batch_matches_serial(self, specs):
        assert all(BatchEngine(specs).plan())
        serial = run_batch(specs, force_serial=True)
        batch = run_batch(specs)
        assert len(batch) == len(serial)
        for a, b in zip(serial, batch):
            assert b == a
            _assert_bit_identical(a, b)
            # Down to the float types: the fixed lanes report Python
            # floats, as the serial engine does.
            assert repr(b.qos) == repr(a.qos)
