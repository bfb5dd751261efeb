"""Crash safety shared by the three append-only ledgers.

A writer killed mid-append leaves an unterminated fragment as the last
line.  Readers must skip it, and the next writer must drop it before
appending, so the file never stays unreadable.  A complete record that
merely lost its newline is kept and terminated.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    LearnRecorder,
    OpsLogger,
    learn_record,
    ops_record,
    read_learn_log,
    read_ops_log,
)
from repro.perf import read_ledger, record_run

TORN = '{"ts": 1.0, "kind": "deci'


def _append_run(path, i):
    record_run("bench", "torn", {"x": float(i)}, run_id=f"r{i}", path=path)


def _append_ops(path, i):
    with OpsLogger(path) as logger:
        logger.log(ops_record("decision", "ok", 0.0, ts=float(i)))


def _append_learn(path, i):
    LearnRecorder(path).log(learn_record(episode=i, scenario="idle", ts=float(i)))


@pytest.mark.parametrize(
    ("append", "read"),
    [
        (_append_run, read_ledger),
        (_append_ops, read_ops_log),
        (_append_learn, read_learn_log),
    ],
    ids=["perf", "ops", "learn"],
)
def test_torn_final_line_is_skipped_then_dropped(tmp_path, append, read):
    path = tmp_path / "torn.jsonl"
    append(path, 0)
    with path.open("a") as fh:
        fh.write(TORN)
    assert len(read(path)) == 1

    append(path, 1)
    text = path.read_text()
    assert TORN not in text and text.endswith("\n")
    assert len(read(path)) == 2

    # A complete last record without its newline is kept, not dropped.
    path.write_text(text.rstrip("\n"))
    assert len(read(path)) == 2
    append(path, 2)
    assert len(read(path)) == 3
