"""The two workloads and the drivers that time them.

Both workloads send frames on a fixed schedule (open loop).
``sharded_durable`` feeds a process-sharded, durable session in this
process; ``gateway_live`` starts a gateway process (``gateway_proc.py``)
and sends it frames over ``nproc`` websocket connections.

Every run checks the detections against the reference of its inputs, and
returns raw samples plus the layer figures of a traced pass when asked.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, sleep, thread_time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from perfbench import inputs as gen
from perfbench import meta, procs
from perfbench.layers import SpanRecorder

NPROC = os.cpu_count() or 1

#: Untimed feeding before each timed window: caches fill, lazy set-up ends.
WARMUP_S = 0.5

#: ``sharded_durable`` memory is read once this many recordings have been
#: fed, so it measures the same work however long the run is.
RSS_AT_RECORDINGS = 1

HERE = Path(__file__).resolve().parent


WORKLOADS = ("sharded_durable", "gateway_live")

#: ``sharded_durable``: frames per ``feed`` call, also the ``batch_size``.
CHUNK = 64

#: ``sharded_durable``: process shards.
SHARDS = max(2, NPROC)

#: ``sharded_durable``: offered frames per second, about a sixth of what
#: two process shards sustain on a 2-core host, so the latencies measure
#: the pipeline rather than a growing backlog.  At 2400 frames/s the
#: system kept a third of the host busy, and when the host slowed by 1.5x
#: the detection latency grew 1.9x.
SHARDED_RATE = 1200.0

#: ``gateway_live``: players sent (the first of the recording's 16), each
#: at 30 Hz: 300 tuples/s, about a fifth of what the gateway sustains on a
#: 2-core host, so a slower host still leaves latency clear of queueing.
GATEWAY_PLAYERS = 10

#: ``gateway_live``: the players' frame rate.
FRAME_HZ = 30

#: ``gateway_live``: the sending ticks; each player's 30 Hz frames go out
#: in one of four ticks per frame, fixed by the player's number.
TICK_HZ = 120.0

#: ``gateway_live``: websocket connections.
CONNECTIONS = NPROC

#: Set-ups per run, whose median is ``setup_s``: the last of the first
#: ``SETUPS_BEFORE`` is the measured system, the rest follow the run, so
#: the median samples two stretches of time.
SETUPS = 5
SETUPS_BEFORE = 3

#: Snapshot every this many logged tuples: one snapshot lands in a 30 s
#: ``sharded_durable`` run.  A snapshot stalls feeding for about a second.
SNAPSHOT_EVERY = 25_000


#: Timed calls (``sharded_durable``) or ticks (``gateway_live``) between
#: two slices of the speed probe: about four (sharded) or eight (gateway)
#: slices a second.
PROBE_EVERY_CALLS = 5
PROBE_EVERY_TICKS = 15

#: Steps of one probe slice, about 1 ms of CPU time on a 2-core Xeon host.
PROBE_STEPS = 150


# -- shared helpers -------------------------------------------------------------------


class SpeedProbe:
    """Times a slice of :func:`perfbench.meta.kernel`, a few times a
    second, in the generator's idle time during the timed window.

    A shared 2-vCPU host was seen to change speed by up to 2x within
    minutes, so figures of different runs are comparable only once scaled
    by how fast the host ran them.  Each slice is timed in thread CPU
    time, so time the thread waited for a processor does not count.
    Slice times are bimodal (about 0.7 and 1.2 ms on that host, by
    whether the other vCPU is busy at the moment), so their median jumps
    between the modes from run to run; their mean weighs each mode by
    how often it occurs.
    """

    def __init__(self) -> None:
        #: (when, CPU seconds) of each slice
        self.timed: List[Tuple[float, float]] = []

    def sample(self) -> None:
        """Run and time one slice."""
        when = perf_counter()
        started = thread_time()
        meta.kernel(PROBE_STEPS)
        self.timed.append((when, thread_time() - started))

    @property
    def cpu_s(self) -> float:
        return sum(spent for _when, spent in self.timed)

    def mean_s(self) -> float:
        if not self.timed:  # a window too short to reach a slice
            self.sample()
        return self.cpu_s / len(self.timed)


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile (``inf`` entries are failed requests)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


@dataclass
class RunOutcome:
    """What one pass measured, before it becomes printed metrics."""

    setup_s: List[float] = field(default_factory=list)
    window_s: float = 0.0
    frames: int = 0
    #: (due time, latency) pairs: when the request or frame was due, and
    #: how long until it was acknowledged or its detection was seen.
    acks: List[Tuple[float, float]] = field(default_factory=list)
    detect: List[Tuple[float, float]] = field(default_factory=list)
    started: float = 0.0
    gen_lag: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: CPU time of every process running the system, over the timed window.
    cpu_s: float = 0.0
    #: Mean CPU time of a :class:`SpeedProbe` slice during the window.
    probe_s: float = math.nan
    #: (when, CPU seconds) of every probe slice
    probe: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    detections: int = 0
    layers: Dict[str, Any] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)


def _hist_delta(before: Mapping[str, Any], after: Mapping[str, Any]):
    from repro.observability.histogram import LatencyHistogram

    counts = [a - b for a, b in zip(after["counts"], before["counts"])]
    return LatencyHistogram.from_state(
        {"buckets": after["buckets"], "counts": counts,
         "sum": after["sum"] - before["sum"], "max": after["max"]}
    )


def _stats_delta(before: Mapping[str, Mapping[str, int]], after: Mapping[str, Mapping[str, int]]):
    total: Dict[str, int] = {}
    for name, counters in after.items():
        for key, value in counters.items():
            total[key] = total.get(key, 0) + value - before.get(name, {}).get(key, 0)
    return total


def predicate_ns_per_eval(vocabulary: Mapping[str, str], frames: Sequence[Mapping[str, Any]]):
    """Median ns per evaluation of every deployed step predicate, built
    with ``Expression.compile``, over a fixed sample of transformed frames."""
    from repro.cep.engine import coerce_query
    from repro.cep.udf import default_functions
    from repro.transform.pipeline import KinectTransformer

    functions = default_functions()
    predicates = [
        event.predicate.compile(functions)
        for text in vocabulary.values()
        for event in coerce_query(text).events()
    ]
    transformer = KinectTransformer()
    sample = [transformer.transform(frame) for frame in frames[:: max(1, len(frames) // 256)][:256]]
    timings = []
    for _ in range(5):
        started = perf_counter()
        for predicate in predicates:
            for frame in sample:
                predicate(frame)
        timings.append(perf_counter() - started)
    return median(timings) / (len(predicates) * len(sample)) * 1e9, len(predicates)


def _dir_bytes(directory: Path, pattern: str) -> List[int]:
    return [path.stat().st_size for path in directory.glob(pattern) if path.is_file()]


# -- sharded session in this process -------------------------------------------------


class ShardedSystem:
    """A process-sharded, durable ``GestureSession`` in this process."""

    def __init__(self, inputs: gen.Inputs, workdir: Path) -> None:
        self.inputs = inputs
        self.session: Any = None
        self.events: List[Tuple[float, Any, float]] = []
        self.wal_dir = workdir / f"wal-{os.getpid()}-{perf_counter_ns()}"

    def start(self) -> float:
        from repro.api import GestureSession, SessionConfig
        from repro.persistence import DurabilityConfig

        started = perf_counter()
        config = SessionConfig(batch_size=CHUNK, shards=SHARDS, shard_executor="process")
        durability = DurabilityConfig(self.wal_dir, snapshot_every_tuples=SNAPSHOT_EVERY)
        self.session = GestureSession(config, durability=durability)
        self.session.start()
        self.session.deploy_vocabulary(dict(self.inputs.vocabulary))
        self.session.on_any(self._on_event)
        return perf_counter() - started

    def _on_event(self, event: Any) -> None:
        self.events.append((perf_counter(), event.partition, event.timestamp))

    def feed(self, frames: List[Mapping[str, Any]]) -> None:
        self.session.feed(frames, batch_size=CHUNK, stream=self.inputs.stream)

    def close(self) -> None:
        try:
            if self.session is not None:
                self.session.close()
        finally:
            shutil.rmtree(self.wal_dir, ignore_errors=True)


def _setup_many(inputs: gen.Inputs, workdir: Path, count: int) -> Tuple[ShardedSystem, List[float]]:
    """Set the system up ``count`` times; keep the last one running."""
    timings = []
    for attempt in range(count):
        system = ShardedSystem(inputs, workdir)
        try:
            timings.append(system.start())
        except BaseException:
            system.close()
            raise
        if attempt < count - 1:
            system.close()
    return system, timings


def run_sharded(
    inputs: gen.Inputs, workdir: Path, seconds: float, recorder: Optional[SpanRecorder] = None
) -> RunOutcome:
    """One pass of ``sharded_durable``: ``CHUNK`` frames per ``feed`` call,
    one call every ``CHUNK / SHARDED_RATE`` seconds, after ``WARMUP_S`` of
    the same schedule untimed.  A call that returns late delays the next
    ones; every latency counts from when its call was due."""
    outcome = RunOutcome()
    period = CHUNK / SHARDED_RATE
    warm_calls = math.ceil(WARMUP_S / period)
    calls = int(seconds / period)
    source = gen.FrameSource(inputs)
    me = os.getpid()
    gc.collect()
    rss_before = procs.status_kb(me, "VmRSS") or 0
    procs.reset_peak(me)
    system, outcome.setup_s = _setup_many(inputs, workdir, SETUPS_BEFORE)
    try:
        session = system.session
        rss_inputs = procs.status_kb(me, "VmRSS") or 0
        source.ensure((warm_calls + calls) * CHUNK)
        input_kb = max((procs.status_kb(me, "VmRSS") or 0) - rss_inputs, 0)
        rss_mark = RSS_AT_RECORDINGS * len(inputs.frames)
        peak_kb = None

        def system_peak_kb() -> float:
            own = (procs.status_kb(me, "VmHWM") or 0) - rss_before - input_kb
            return own + sum(procs.status_kb(pid, "VmHWM") or 0 for pid in procs.descendants(me))

        def feed_on_schedule(first: int, count: int, origin: float, timed: bool) -> None:
            nonlocal peak_kb
            for number in range(count):
                due = origin + number * period
                delay = due - perf_counter()
                if delay > 0:
                    sleep(delay)
                started = perf_counter()
                position = (first + number) * CHUNK
                system.feed(source.frames[position : position + CHUNK])
                if timed:
                    outcome.gen_lag.append(started - due)
                    outcome.acks.append((due, perf_counter() - due))
                    if number % PROBE_EVERY_CALLS == PROBE_EVERY_CALLS - 1:
                        probe.sample()
                if peak_kb is None and position + CHUNK >= rss_mark:
                    peak_kb = system_peak_kb()

        feed_on_schedule(0, warm_calls, perf_counter(), timed=False)
        session.drain()
        first_event = len(system.events)
        gc.collect()

        metrics = session.metrics
        if recorder is not None:
            stats_before = session.query_stats()
            metrics.collect()
            shards_before = metrics.snapshot()["shards"]
            waits_before = [metrics.shard(s).queue_wait.to_state() for s in metrics.shard_ids()]
            fsyncs_before = metrics.durability.fsyncs
            recorder.reset()
            recorder.active = True
        probe = SpeedProbe()
        cpu_before = procs.cpu_seconds(me)
        system_cpu_before = procs.tree_cpu_seconds(me)
        started = perf_counter()
        outcome.started = started
        feed_on_schedule(warm_calls, calls, started, timed=True)
        drain_started = perf_counter()
        session.drain()
        ended = perf_counter()
        cpu_s = procs.cpu_seconds(me) - cpu_before - probe.cpu_s
        outcome.cpu_s = procs.tree_cpu_seconds(me) - system_cpu_before - probe.cpu_s
        outcome.probe_s = probe.mean_s()
        outcome.probe = probe.timed
        if recorder is not None:
            recorder.active = False
        if peak_kb is None:
            peak_kb = system_peak_kb()
        position = (warm_calls + calls) * CHUNK
        outcome.window_s = ended - started
        outcome.frames = calls * CHUNK
        outcome.attempted = calls
        outcome.peak_rss_mb = peak_kb / 1024.0
        outcome.info.update(
            offered_tuples_per_s=SHARDED_RATE,
            warmup_frames=warm_calls * CHUNK,
            rss_read_at_frames=min(position, rss_mark),
            repeats_built=source.repeats,
            chunk=CHUNK,
            shards=SHARDS,
            ack_samples=len(outcome.acks),
            system_processes=1 + len(procs.descendants(me)),
            caller_cpu_s=cpu_s,
        )

        # Detection latency: handler time minus the due time of the feed
        # call that carried the completing frame.
        timed_from = warm_calls * CHUNK
        index = {
            (frame["player"], frame["ts"]): number
            for number, frame in enumerate(source.frames[timed_from:position])
        }
        for when, player, ts in system.events[first_event:]:
            number = index.get((player, ts))
            if number is not None:
                due = started + (number // CHUNK) * period
                outcome.detect.append((due, when - due))
        outcome.info["detect_samples"] = len(outcome.detect)

        if recorder is not None:
            stats_after = session.query_stats()
            metrics.collect()
            shards_after = metrics.snapshot()["shards"]
            outcome.layers = {
                "caller_cpu_s": cpu_s,
                "query_stats": _stats_delta(stats_before, stats_after),
                "drain_s": ended - drain_started,
                "queue_wait": [
                    _hist_delta(before, metrics.shard(s).queue_wait.to_state())
                    for s, before in zip(metrics.shard_ids(), waits_before)
                ],
                "busy_s": [
                    after["busy_seconds"] - before["busy_seconds"]
                    for before, after in zip(shards_before, shards_after)
                ],
                "processed": [
                    after["tuples_processed"] - before["tuples_processed"]
                    for before, after in zip(shards_before, shards_after)
                ],
                "fsyncs": metrics.durability.fsyncs - fsyncs_before,
                "log_bytes": sum(_dir_bytes(system.wal_dir, "*.jsonl*")),
                "snapshot_bytes": _dir_bytes(system.wal_dir, "snapshot-*"),
                "frames_logged": position,
            }

        observed = gen.group_detections(session.detections())
        expected = gen.expected_detections(inputs, source.frames[:position])
        outcome.mismatches = gen.mismatches(expected, observed)
        outcome.detections = sum(len(keys) for keys in observed.values())
        outcome.info["expected_detections"] = sum(len(keys) for keys in expected.values())
    finally:
        system.close()
    for _ in range(SETUPS - SETUPS_BEFORE):
        system, timings = _setup_many(inputs, workdir, 1)
        system.close()
        outcome.setup_s.extend(timings)
    return outcome


# -- open loop through the gateway ----------------------------------------------------


class GatewaySystem:
    """A gateway in its own process plus the generator's connections."""

    def __init__(self, inputs: gen.Inputs, workdir: Path, traced: bool, connections: int) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.traced = traced
        self.connections = connections
        self.process: Optional[subprocess.Popen] = None
        self.clients: List[Any] = []
        tag = f"{os.getpid()}-{perf_counter_ns()}"
        self.port_file = workdir / f"gateway-{tag}.port"
        self.report_file = workdir / f"gateway-{tag}.json"
        self.trace_file = workdir / f"gateway-{tag}.trace.json"
        self.log_file = workdir / f"gateway-{tag}.log"
        self.port = 0

    async def start(self) -> float:
        from repro.gateway import GatewayClient

        started = perf_counter()
        command = [
            sys.executable,
            str(HERE / "gateway_proc.py"),
            "--port-file", str(self.port_file),
            "--report", str(self.report_file),
        ]
        if self.traced:
            command += ["--trace", str(self.trace_file)]
        with self.log_file.open("wb") as log:
            self.process = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=log
            )
        while not self.port_file.exists():
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"gateway process exited with {self.process.returncode}: "
                    + self.log_file.read_text(errors="replace")[-2000:]
                )
            if perf_counter() - started > 120:
                raise RuntimeError("gateway process did not start within 120 s")
            await asyncio.sleep(0.01)
        self.port = int(self.port_file.read_text())
        for number in range(self.connections):
            # The detections reply carries every matched tuple: allow 256 MiB.
            client = await GatewayClient.connect("127.0.0.1", self.port, max_message_bytes=1 << 28)
            self.clients.append(client)
            await client.hello("bench", subscribe=number == 0)
        await self.clients[0].deploy_vocabulary(manifest=dict(self.inputs.vocabulary))
        return perf_counter() - started

    def command(self, line: str) -> None:
        assert self.process is not None and self.process.stdin is not None
        self.process.stdin.write((line + "\n").encode())
        self.process.stdin.flush()

    async def metrics(self) -> Dict[str, Any]:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write(b"GET /metrics?format=json HTTP/1.1\r\nHost: bench\r\n\r\n")
            await writer.drain()
            raw = await reader.read(-1)
        finally:
            writer.close()
        return json.loads(raw.split(b"\r\n\r\n", 1)[1])

    async def close(self) -> Dict[str, Any]:
        """Stop the gateway; returns its report (empty if it had none)."""
        for client in self.clients:
            try:
                await asyncio.wait_for(client.close(), 10)
            except (asyncio.TimeoutError, OSError):
                pass
        self.clients.clear()
        report: Dict[str, Any] = {}
        process = self.process
        if process is not None:
            try:
                if process.poll() is None and process.stdin is not None:
                    self.command("quit")
                    process.stdin.close()
                deadline = perf_counter() + 30
                while process.poll() is None and perf_counter() < deadline:
                    await asyncio.sleep(0.02)
            except OSError:
                pass
            finally:
                if process.poll() is None:
                    process.kill()
                process.wait()
            if self.report_file.exists():
                report = json.loads(self.report_file.read_text())
        for path in (self.port_file, self.report_file, self.log_file):
            path.unlink(missing_ok=True)
        return report


def _schedule(inputs: gen.Inputs, seconds: float, tick_hz: float, connections: int):
    """Per tick, per connection: the frames that fell due in that tick.

    A frame is due in the 30 Hz slot nearest its recording offset (never
    the slot of the player's previous frame), at a tick within the slot
    fixed by the player's number.  The load therefore arrives in the same
    shape whatever the seed: while all players are active, each tick
    carries the frames of every fourth player.  Repeats (only when
    ``seconds`` outlasts the recording) follow back to back in wall time
    while their event time keeps the silent gap of
    :class:`~perfbench.inputs.FrameSource`.
    """
    source = gen.FrameSource(inputs)
    base = inputs.frames
    ts0 = base[0]["ts"]
    ticks_per_slot = int(tick_hz // FRAME_HZ)
    slots: List[int] = []
    last: Dict[Any, int] = {}
    for frame in base:
        slot = max(round((frame["ts"] - ts0) * FRAME_HZ), last.get(frame["player"], -1) + 1)
        last[frame["player"]] = slot
        slots.append(slot)
    span = max(slots) + 1
    ticks = int(seconds * tick_hz)
    repeats = int(seconds * FRAME_HZ // span) + 1
    source.ensure(len(base) * repeats)
    plan: List[List[List[Mapping[str, Any]]]] = [
        [[] for _ in range(connections)] for _ in range(ticks)
    ]
    for number, frame in enumerate(source.frames):
        repeat, base_frame = divmod(number, len(base))
        player = frame["player"]
        tick = (repeat * span + slots[base_frame]) * ticks_per_slot + (player - 1) % ticks_per_slot
        if tick >= ticks or player > GATEWAY_PLAYERS:
            continue
        plan[tick][(player - 1) % connections].append(frame)
    return plan


async def _open_loop(
    inputs: gen.Inputs,
    workdir: Path,
    seconds: float,
    traced: bool,
) -> RunOutcome:
    outcome = RunOutcome()
    plan = _schedule(inputs, seconds, TICK_HZ, CONNECTIONS)
    sent: List[Mapping[str, Any]] = []
    system = None
    report: Dict[str, Any] = {}
    try:
        for attempt in range(SETUPS_BEFORE):
            measured = attempt == SETUPS_BEFORE - 1
            system = GatewaySystem(inputs, workdir, traced and measured, CONNECTIONS)
            try:
                outcome.setup_s.append(await system.start())
            finally:
                if not measured:
                    await system.close()
        assert system is not None
        clients = system.clients
        due_of: Dict[Tuple[Any, float], float] = {}
        arrivals: List[Tuple[float, Dict[str, Any]]] = []

        async def collect_events() -> None:
            while True:
                event = await clients[0].events.get()
                arrivals.append((perf_counter(), event))

        pending_peak = 0

        async def sample_pending() -> None:
            nonlocal pending_peak
            while True:
                await asyncio.sleep(0.25)
                document = await system.metrics()
                for tenant in document["tenants"].values():
                    pending_peak = max(pending_peak, tenant["pending_tuples"])

        async def send(client: Any, records: List[Mapping[str, Any]], due: float, seq: int):
            try:
                ack = await asyncio.wait_for(client.send_tuples(records, seq=seq), 60)
            except Exception:  # noqa: BLE001 — counted as a failed request
                outcome.acks.append((due, math.inf))
                outcome.failed += 1
                return
            outcome.acks.append((due, perf_counter() - due))
            if ack.get("accepted") != len(records) or ack.get("dropped"):
                outcome.failed += 1

        events_task = asyncio.get_running_loop().create_task(collect_events())
        sampler = asyncio.get_running_loop().create_task(sample_pending()) if traced else None
        probe = SpeedProbe()
        gc.collect()
        system.command("begin")
        tasks = []
        started = perf_counter()
        outcome.started = started
        for tick, messages in enumerate(plan):
            due = started + tick / TICK_HZ
            if tick % PROBE_EVERY_TICKS == PROBE_EVERY_TICKS - 1:
                # Midway between two ticks, once the last tick's acks are in.
                await asyncio.sleep(max(due - 0.5 / TICK_HZ - perf_counter(), 0))
                probe.sample()
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            for number, records in enumerate(messages):
                if not records:
                    continue
                outcome.gen_lag.append(perf_counter() - due)
                for frame in records:
                    due_of[(frame["player"], frame["ts"])] = due
                sent.extend(records)
                tasks.append(asyncio.ensure_future(send(clients[number], records, due, tick)))
        await asyncio.gather(*tasks)
        ended = perf_counter()
        system.command("end")
        if sampler is not None:
            sampler.cancel()
        outcome.window_s = ended - started
        outcome.probe_s = probe.mean_s()
        outcome.probe = probe.timed
        outcome.frames = len(sent)
        outcome.attempted = len(tasks)
        await clients[0].drain()
        events_task.cancel()
        document = await system.metrics()
        outcome.peak_rss_mb = (procs.status_kb(system.process.pid, "VmHWM") or 0) / 1024.0

        for when, event in arrivals:
            due = due_of.get((event["player"], event["timestamp"]))
            if due is not None:
                outcome.detect.append((due, when - due))
        replied = await clients[0].detections()
        expected = gen.expected_detections(inputs, sent)
        observed: Dict[Tuple[Any, str], List[gen.DetectionKey]] = {}
        for state in replied:
            observed.setdefault((state["partition"], state["query_name"]), []).append(
                gen.state_key(state)
            )
        pushed: Dict[Tuple[Any, str], List[float]] = {}
        for _when, event in arrivals:
            pushed.setdefault((event["player"], event["gesture"]), []).append(event["timestamp"])
        expected_pushed = {
            (player, keys[0][0]): [key[1] for key in keys]
            for (player, _query), keys in expected.items()
        }
        outcome.mismatches = gen.mismatches(expected, observed) + sum(
            1
            for key in set(pushed) | set(expected_pushed)
            if pushed.get(key, []) != expected_pushed.get(key, [])
        )
        outcome.detections = len(replied)
        gateway = document["gateway"]
        outcome.info.update(
            tick_hz=TICK_HZ,
            connections=CONNECTIONS,
            players=GATEWAY_PLAYERS,
            offered_tuples_per_s=len(sent) / seconds,
            ack_samples=len(outcome.acks),
            detect_samples=len(outcome.detect),
            events_pushed=len(arrivals),
            expected_detections=sum(len(keys) for keys in expected.values()),
        )
        outcome.layers = {
            "request_p99_ms": gateway["request_latency"]["p99_seconds"] * 1e3,
            "loop_lag_max_ms": gateway["loop_lag_max_seconds"] * 1e3,
            "tuples_dropped": gateway["tuples_dropped"],
            "pending_peak": pending_peak,
        }
    finally:
        if system is not None:
            report = await system.close()
    outcome.layers["gateway_process"] = report
    outcome.cpu_s = report.get("cpu_s", 0.0)
    for _ in range(SETUPS - SETUPS_BEFORE):
        system = GatewaySystem(inputs, workdir, False, CONNECTIONS)
        try:
            outcome.setup_s.append(await system.start())
        finally:
            await system.close()
    return outcome


def run_gateway(inputs: gen.Inputs, workdir: Path, seconds: float, traced: bool) -> RunOutcome:
    return asyncio.run(_open_loop(inputs, workdir, seconds, traced))
