"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import sims
from layers import PER_LAYER
from spans import Patcher, SpanRecorder, self_times
from stats import median, percentile, tail_percentile


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    # outer [0, 10) holds a [1, 4) -- which holds b [2, 3) -- and c [5, 9)
    rec.begin("outer")
    clock.now = 1.0
    rec.begin("a")
    clock.now = 2.0
    rec.begin("b")
    clock.now = 3.0
    rec.end()
    clock.now = 4.0
    rec.end()
    clock.now = 5.0
    rec.begin("c")
    clock.now = 9.0
    rec.end()
    clock.now = 10.0
    rec.end()

    assert rec.layers["outer"].busy_s == 10.0
    assert rec.layers["outer"].self_s == 10.0 - 3.0 - 4.0
    assert rec.layers["a"].self_s == 3.0 - 1.0
    assert rec.layers["b"].self_s == 1.0
    assert rec.layers["c"].self_s == 4.0
    # The running aggregate agrees with the span-list reference.
    tuples = [(s["id"], s["parent"], s["start_s"], s["start_s"] + s["dur_s"])
              for s in rec.spans]
    reference = self_times(tuples)
    by_name = {s["name"]: reference[s["id"]] for s in rec.spans}
    assert by_name == {name: rec.layers[name].self_s for name in by_name}
    # Self times of all spans add up to the root's busy time.
    assert sum(reference.values()) == rec.layers["outer"].busy_s


def test_repeated_layer_accumulates_and_caps_kept_spans() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock=clock, keep_per_layer=2)
    for _ in range(3):
        rec.begin("x")
        clock.now += 0.5
        rec.end()
    assert rec.layers["x"].calls == 3
    assert rec.layers["x"].self_s == 1.5
    assert len(rec.spans) == 2


def test_tagged_spans_also_aggregate_under_the_tag() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    for tag, length in (("A", 1.0), ("", 2.0), ("A", 4.0)):
        rec.tag = tag
        rec.begin("stage")
        clock.now += length
        rec.end()
    assert rec.layers["stage"].calls == 3
    assert rec.layers["stage"].busy_s == 7.0
    assert rec.layers["A/stage"].calls == 2
    assert rec.layers["A/stage"].busy_s == 5.0


def test_missing_layer_target_fails_the_run() -> None:
    outcome = run.Outcome("e1_grid", 1)
    run.fill_layers(outcome, SpanRecorder(), [], {})
    assert outcome.problems == []
    run.fill_layers(outcome, SpanRecorder(), ["repro.x.Gone.method"], {})
    assert outcome.problems and "repro.x.Gone.method" in outcome.problems[0]


def test_patcher_wraps_and_restores() -> None:
    class Thing:
        def work(self, n: int) -> int:
            return n * 2

    rec = SpanRecorder()
    patcher = Patcher(rec)
    original = Thing.work
    patcher.method(Thing, "work", "thing.work")
    assert Thing().work(3) == 6
    assert rec.layers["thing.work"].calls == 1
    patcher.restore()
    assert Thing.work is original
    patcher.method(Thing, "absent", "thing.absent")
    assert patcher.missing and patcher.missing[-1].endswith("Thing.absent")


def test_snapshot_merge_round_trips() -> None:
    rec = SpanRecorder()
    rec.begin("y")
    rec.end()
    rec.count("n", 3)
    other = SpanRecorder()
    other.merge(json.loads(json.dumps(rec.snapshot())))
    assert other.layers["y"].calls == 1
    assert other.counters == {"n": 3}


def test_percentile_is_nearest_rank() -> None:
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 0) == 1
    assert percentile([7.0], 99) == 7.0
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    ("n", "expected"),
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
     (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n: int, expected: float | None) -> None:
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n - math.ceil(round(expected * 10) * n / 1000) >= 10


def _tiny_specs(seed: int) -> list:
    from repro.fleet.spec import JobSpec

    return [
        JobSpec(scenario="audio_playback", governor=g, seed=seed,
                duration_s=0.3, train_episodes=1, train_base_seed=1000 * seed)
        for g in ("ondemand", "rl-policy")
    ]


def test_e1_digest_is_stable_for_a_seed() -> None:
    first = sims.e1_pass(_tiny_specs(5))
    second = sims.e1_pass(_tiny_specs(5))
    other = sims.e1_pass(_tiny_specs(6))
    d1 = sims.digest(_tiny_specs(5), first.results)
    assert d1 == sims.digest(_tiny_specs(5), second.results)
    assert d1 != sims.digest(_tiny_specs(6), other.results)
    assert sims.check_outputs(first.results) == []


def test_batch_digest_matches_the_reference_core() -> None:
    specs = _tiny_specs(5)
    batch = sims.batch_pass(specs)
    serial = sims.e1_pass(specs)
    assert sims.digest(specs, batch.results) == sims.digest(specs, serial.results)


def test_workload_sizes_match_the_issue() -> None:
    e1 = sims.e1_specs(run.DEFAULT_SEED)
    assert len(e1) == 6 * 7 + 4
    population = sims.batch_specs(run.DEFAULT_SEED)
    assert sum(s.is_rl for s in population) == 48
    assert sum(not s.is_rl for s in population) == 36
    assert sims.fast_fraction(population) == 1.0


def test_benchmark_json_matches_the_harness() -> None:
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
