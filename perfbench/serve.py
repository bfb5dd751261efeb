"""The ``serve_jsonl`` workload: ``repro serve`` over JSONL stdin/stdout.

The benchmark trains and saves a checkpoint, records eight observation
streams from greedy simulations of eight scenarios, and then drives a
``python -m repro serve`` child process through one pipe pair with two
threads: this (main) thread writes requests, a reader thread timestamps
replies.

The run is a sequence of identical *rounds*.  Each round opens eight
fresh device sessions (one per stream, requests interleaved round-robin)
and runs two phases:

* phase A, an open loop at :data:`RATE_RPS`: request ``i`` is due at
  ``t0 + i / RATE_RPS`` and its latency counts from that due time, so a
  stall also charges the requests queued behind it;
* phase B, a burst: the whole phase is written to the pipe at once and
  capacity is replies per second from the first write to the last reply.

Because every round replays the same streams into fresh sessions, every
round must serve the same ``opp_index`` stream, and that stream must
equal an offline :class:`repro.serve.session.DecisionSession` replay.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.checkpoint import load_policies, save_policies
from repro.core.trainer import train_policy
from repro.fleet.worker import frozen_policies
from repro.serve.protocol import observation_from_mapping
from repro.serve.session import DecisionSession
from repro.sim.engine import Simulator
from repro.soc.presets import exynos5422
from repro.workload.scenarios import get_scenario

from calibrate import pin
from layers import PHASE_A_TAG

CHIP = "exynos5422"
STREAM_SCENARIOS = (
    "web_browsing", "video_playback", "gaming", "app_launch",
    "audio_playback", "camera_preview", "social_media", "video_call",
)
"""One device session per scenario; each replays its own stream."""

STREAM_S = 3.0
"""Simulated seconds of each recorded stream (300 intervals x 2 clusters)."""

TRAIN_SCENARIO = "mixed_daily"
TRAIN_EPISODES = 3
TRAIN_EPISODE_S = 3.0

RATE_RPS = 500.0
"""Phase A offered load."""

PHASE_A = 500
"""Phase A requests per round (1 s at :data:`RATE_RPS`)."""

PHASE_B = 1000
"""Phase B (burst) requests per round."""

REPLY_TIMEOUT_S = 20.0
"""A request still unanswered this long after its phase ends is lost."""

MAX_LATE_P50_MS = 1.0
MAX_LATE_END_FRAC = 0.05
"""The generator is behind schedule — the run is invalid — when its
median send lateness exceeds :data:`MAX_LATE_P50_MS`, or when the last
request of phase A leaves later than this share of the phase length."""


def request_id(rnd: int, j: int) -> str:
    """Id of request ``j`` of round ``rnd``; it names the phase first."""
    phase = PHASE_A_TAG if j < PHASE_A else "B"
    return f"{phase}{rnd}:{j}"


@dataclass
class Streams:
    """Pre-encoded request payloads: one observation list per device."""

    observations: list[list[dict[str, Any]]]

    def round_lines(self, rnd: int, start: int, count: int) -> list[bytes]:
        """Request lines ``start .. start+count`` of round ``rnd``.

        Request ``j`` of a round goes to device ``j % 8`` and carries
        that device's observation number ``j // 8``.
        """
        n = len(self.observations)
        lines = []
        for j in range(start, start + count):
            device, step = j % n, j // n
            stream = self.observations[device]
            lines.append(
                (json.dumps({
                    "kind": "decision",
                    "session": f"r{rnd}d{device}",
                    "request_id": request_id(rnd, j),
                    "observation": stream[step % len(stream)],
                }) + "\n").encode()
            )
        return lines


def prepare(seed: int, workdir: Path) -> tuple[Path, Streams]:
    """Train and save the served checkpoint; record the eight streams."""
    chip = exynos5422()
    training = train_policy(
        chip, get_scenario(TRAIN_SCENARIO), episodes=TRAIN_EPISODES,
        episode_duration_s=TRAIN_EPISODE_S, base_seed=1000 * seed,
    )
    ckpt = save_policies(training.policies, workdir / "checkpoint")
    observations = []
    for k, name in enumerate(STREAM_SCENARIOS):
        policies = load_policies(ckpt, chip=chip)
        trace = get_scenario(name).trace(STREAM_S, seed=seed + k)
        with frozen_policies(policies):
            run = Simulator(chip, trace, policies,
                            record_observations=True).run()
        per_cluster = [run.observations[c] for c in chip.cluster_names]
        observations.append([
            asdict(obs) for step in zip(*per_cluster) for obs in step
        ])
    return ckpt, Streams(observations)


def offline_replay(ckpt: Path, streams: Streams, count: int) -> list[list[int]]:
    """Per device, the decisions an in-process session makes for the
    first ``count`` requests of a round (the served-stream oracle)."""
    chip = exynos5422()
    policies = load_policies(ckpt, chip=chip)
    n = len(streams.observations)
    expected: list[list[int]] = [[] for _ in range(n)]
    sessions = [DecisionSession(policies, chip) for _ in range(n)]
    for j in range(count):
        device, step = j % n, j // n
        stream = streams.observations[device]
        payload = json.loads(json.dumps(stream[step % len(stream)]))
        obs = observation_from_mapping(payload, chip)
        expected[device].append(sessions[device].decide(obs))
    return expected


@dataclass
class RoundResult:
    latency_ms: list[float]
    lateness_ms: list[float]
    late_end_frac: float
    capacity_rps: float
    served: list[list[int]]
    failed_a: int
    failed_b: int


@dataclass
class ServerRun:
    """Everything one server process answered."""

    setup_s: float
    rounds: list[RoundResult] = field(default_factory=list)
    obs_disabled: bool = False
    stats: dict[str, int] = field(default_factory=dict)
    queue_wait_ms: list[float] = field(default_factory=list)
    """Queue waits of the phase-A decisions, from the ops log."""
    exit_code: int | None = None


class _Reader(threading.Thread):
    """Reads reply lines; records (receive time, reply) by request id."""

    def __init__(self, stream: Any) -> None:
        super().__init__(daemon=True)
        self.stream = stream
        self.replies: dict[str, tuple[float, dict[str, Any]]] = {}
        self.expect = 0
        self.enough = threading.Event()

    def run(self) -> None:
        for line in self.stream:
            now = time.perf_counter()
            reply = json.loads(line)
            self.replies[reply.get("request_id", "")] = (now, reply)
            if len(self.replies) >= self.expect:
                self.enough.set()

    def wait_for(self, total: int, timeout_s: float) -> None:
        self.expect = total
        self.enough.clear()
        if len(self.replies) < total:
            self.enough.wait(timeout_s)


class ServeProcess:
    """One ``repro serve`` child process and its reply reader."""

    def __init__(self, argv: list[str], env: dict[str, str], workdir: Path,
                 tag: str, cpu: int) -> None:
        self.ops_log = workdir / f"ops-{tag}.jsonl"
        self.stderr = open(workdir / f"serve-{tag}.stderr", "wb")
        argv = argv + ["--ops-log", str(self.ops_log)]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, env=env, bufsize=0,
        )
        # Still importing, so no thread has started: every thread the
        # server creates inherits this CPU.
        pin(self.proc.pid, cpu)
        self.reader = _Reader(self.proc.stdout)
        self.reader.start()
        self.sent = 0

    def send(self, data: bytes, count: int) -> None:
        self.proc.stdin.write(data)
        self.sent += count

    def first_reply_s(self) -> float:
        """Seconds from spawn to the reply to one decision request."""
        self.send((json.dumps({
            "kind": "decision", "session": "setup", "request_id": "setup",
            "observation": {"cluster": "big", "utilization": 0.5},
        }) + "\n").encode(), 1)
        self.reader.wait_for(self.sent, REPLY_TIMEOUT_S + 60.0)
        entry = self.reader.replies.get("setup")
        if entry is None:
            raise RuntimeError("serve process never answered its first request")
        return entry[0] - self.spawned

    def close(self) -> int:
        """EOF on stdin (the server drains and exits); wait for it."""
        try:
            self.proc.stdin.close()
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        finally:
            self.reader.join(timeout=10)
            self.stderr.close()
        return code


def run_round(server: ServeProcess, streams: Streams, rnd: int) -> RoundResult:
    """Phase A (open loop) then phase B (burst) on fresh sessions."""
    reader = server.reader
    lines = streams.round_lines(rnd, 0, PHASE_A)
    due, sent = [], []
    t0 = time.perf_counter() + 0.005
    for i, line in enumerate(lines):
        due_at = t0 + i / RATE_RPS
        wait = due_at - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent.append(time.perf_counter())
        server.send(line, 1)
        due.append(due_at)
    reader.wait_for(server.sent, REPLY_TIMEOUT_S)
    latency_ms, failed_a, served = [], 0, [[] for _ in streams.observations]
    n = len(streams.observations)
    for i in range(PHASE_A):
        entry = reader.replies.get(request_id(rnd, i))
        if entry is None or entry[1].get("kind") != "decision":
            failed_a += 1
            continue
        latency_ms.append((entry[0] - due[i]) * 1e3)
        served[i % n].append(entry[1]["opp_index"])
    lateness_ms = [(s - d) * 1e3 for s, d in zip(sent, due)]
    late_end_frac = (sent[-1] - due[-1]) / (PHASE_A / RATE_RPS)

    burst = b"".join(streams.round_lines(rnd, PHASE_A, PHASE_B))
    start = time.perf_counter()
    server.send(burst, PHASE_B)
    reader.wait_for(server.sent, REPLY_TIMEOUT_S)
    last, failed_b = start, 0
    for j in range(PHASE_A, PHASE_A + PHASE_B):
        entry = reader.replies.get(request_id(rnd, j))
        if entry is None or entry[1].get("kind") != "decision":
            failed_b += 1
            continue
        last = max(last, entry[0])
        served[j % n].append(entry[1]["opp_index"])
    done = PHASE_B - failed_b
    return RoundResult(
        latency_ms=latency_ms,
        lateness_ms=lateness_ms,
        late_end_frac=late_end_frac,
        capacity_rps=done / (last - start) if last > start else 0.0,
        served=served,
        failed_a=failed_a,
        failed_b=failed_b,
    )


def serve_argv(ckpt: Path, traced_out: Path | None) -> list[str]:
    """The server command line; the traced run wraps the same CLI."""
    args = ["serve", "--checkpoint", str(ckpt), "--chip", CHIP]
    if traced_out is None:
        return [sys.executable, "-m", "repro", *args]
    here = Path(__file__).resolve().parent
    return [sys.executable, str(here / "serve_traced.py"), str(traced_out),
            *args]


def run_server(
    argv: list[str], env: dict[str, str], workdir: Path, tag: str, cpu: int,
    streams: Streams, until: float | None, rounds: int,
    mark: Callable[[], None],
) -> ServerRun:
    """Boot a server, run rounds (at least ``rounds``, and on until the
    ``until`` clock), probe its health, shut it down.

    ``mark`` is called after the first reply and after every round, so
    a calibrator can bracket each unit of work.
    """
    server = ServeProcess(argv, env, workdir, tag, cpu)
    try:
        result = ServerRun(setup_s=server.first_reply_s())
        mark()
        while len(result.rounds) < rounds or (
            until is not None and time.perf_counter() < until
        ):
            result.rounds.append(run_round(server, streams, len(result.rounds)))
            mark()
        # Two health probes: with repro.obs on, the second would carry
        # sliding-window indicators; empty both times means obs is off.
        probes = [{"kind": "health", "request_id": "health0"},
                  {"kind": "health", "request_id": "health1"},
                  {"kind": "stats", "request_id": "stats"}]
        server.send(b"".join((json.dumps(p) + "\n").encode()
                             for p in probes), len(probes))
        server.reader.wait_for(server.sent, REPLY_TIMEOUT_S)
        replies = server.reader.replies
        health = [replies.get(f"health{k}", (0, {}))[1] for k in range(2)]
        result.obs_disabled = all(
            h.get("kind") == "health" and not h.get("indicators")
            for h in health
        )
        result.stats = replies.get("stats", (0, {}))[1].get("stats", {})
    finally:
        result_code = server.close()
    result.exit_code = result_code
    result.queue_wait_ms = [
        rec["queue_wait_s"] * 1e3 for rec in _read_jsonl(server.ops_log)
        if rec.get("kind") == "decision"
        and rec.get("request_id", "").startswith(PHASE_A_TAG)
    ]
    server.ops_log.unlink(missing_ok=True)
    return result


def setup_probe(argv: list[str], env: dict[str, str], workdir: Path,
                tag: str, cpu: int) -> float:
    """Spawn a server, time its first reply, shut it down."""
    server = ServeProcess(argv, env, workdir, tag, cpu)
    try:
        return server.first_reply_s()
    finally:
        server.close()
        server.ops_log.unlink(missing_ok=True)


def _read_jsonl(path: Path) -> list[dict[str, Any]]:
    if not path.exists():
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def served_digest(served: list[list[int]]) -> str:
    """sha256 of the served ``opp_index`` stream, device-major."""
    h = hashlib.sha256()
    for device, stream in enumerate(served):
        h.update(f"{device}:{','.join(map(str, stream))}\n".encode())
    return h.hexdigest()[:16]


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest waited-for child process, MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def child_env(src: Path) -> dict[str, str]:
    """The child's environment: this checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env
