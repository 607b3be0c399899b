"""Benchmark command: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload sharded_durable --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with the program as users run it; ``--trace 1`` makes an untraced
and a traced pass over the same input (``--seconds`` each) and reports
the per-layer metrics.  Each run writes an artifact directory under
``.perfbench_runs/`` and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> (unit, better).  ``norm_`` figures, and ``setup_s``, whose name
#: is fixed, are scaled to a host on which a speed-probe slice takes
#: ``REFERENCE_PROBE_S`` of CPU time on average.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "tuples_per_s": ("1/s", "higher"),
    "norm_cpu_us_per_tuple": ("us", "lower"),
    "norm_ack_latency_p50_ms": ("ms", "lower"),
    "norm_detect_latency_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: CPU time of one speed-probe slice on the reference host.
REFERENCE_PROBE_S = 1e-3

#: name -> (unit, layer); every traced run reports all of them (0 where
#: the layer does no work in this process, see layers.json for which).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "transform.us_per_tuple": ("us", "transform"),
    "streams.fanout_us_per_tuple": ("us", "streams"),
    "expressions.evals_per_tuple": ("count", "cep.expressions"),
    "expressions.ns_per_eval": ("ns", "cep.expressions"),
    "matcher.us_per_tuple": ("us", "cep.matcher"),
    "matcher.runs_started_per_tuple": ("count", "cep.matcher"),
    "matcher.runs_pruned_per_tuple": ("count", "cep.matcher"),
    "matcher.completed_run_ratio": ("ratio", "cep.matcher"),
    "matcher.active_runs_peak": ("count", "cep.matcher"),
    "sinks.us_per_detection": ("us", "cep.sinks"),
    "engine.us_per_tuple": ("us", "cep.engine"),
    "session.us_per_feed": ("us", "api.session"),
    "observability.us_per_tuple": ("us", "observability"),
    "persistence.append_us_per_tuple": ("us", "persistence"),
    "persistence.fsyncs": ("count", "persistence"),
    "persistence.bytes_per_tuple": ("bytes", "persistence"),
    "persistence.snapshot_ms": ("ms", "persistence"),
    "persistence.snapshot_bytes": ("bytes", "persistence"),
    "runtime.route_us_per_tuple": ("us", "runtime"),
    "runtime.put_blocked_s": ("s", "runtime"),
    "runtime.queue_wait_p50_ms": ("ms", "runtime"),
    "runtime.queue_wait_p99_ms": ("ms", "runtime"),
    "runtime.shard_busy_share": ("ratio", "runtime"),
    "runtime.shard_skew": ("ratio", "runtime"),
    "runtime.drain_s": ("s", "runtime"),
    "gateway.decode_us_per_msg": ("us", "gateway"),
    "gateway.feed_us_per_tuple": ("us", "gateway"),
    "gateway.request_p99_ms": ("ms", "gateway"),
    "gateway.loop_lag_max_ms": ("ms", "gateway"),
    "gateway.pending_peak": ("count", "gateway"),
    "gateway.tuples_dropped": ("count", "gateway"),
    "load.gen_lag_p99_ms": ("ms", "load generator"),
    "trace.overhead_share": ("ratio", "harness"),
    "trace.unattributed_share": ("ratio", "harness"),
}


def _bootstrap() -> None:
    """Put the program's sources on the path, or stop without a result.

    Temporary files (the process-shard fork server's socket directory) go
    under ``.perfbench_work/tmp`` unless that path is too long for a unix
    socket name.
    """
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    tmp_dir = ROOT / ".perfbench_work" / "tmp"
    if len(str(tmp_dir)) <= 60:
        tmp_dir.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp_dir)
        tempfile.tempdir = str(tmp_dir)


def _ms(seconds: float) -> float:
    return seconds * 1e3


class Artifacts:
    """Per-run directory: config, raw samples, layer table, event log, trace."""

    def __init__(self, base: Path, workload: str, seed: int, trace: int) -> None:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        self.directory = base / f"{stamp}-{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        self.directory.mkdir(parents=True, exist_ok=False)
        self._events = (self.directory / "events.jsonl").open("a", encoding="utf-8")

    def event(self, kind: str, **fields: Any) -> None:
        record = {"t": time.time(), "event": kind, **fields}
        self._events.write(json.dumps(record, default=str) + "\n")
        self._events.flush()

    def write(self, name: str, document: Any) -> None:
        (self.directory / name).write_text(json.dumps(document, indent=1, default=str))

    def close(self) -> None:
        self._events.close()


def raw_figures(outcome) -> Dict[str, float]:
    """The pass's figures as measured, before scaling by the host's speed."""
    from perfbench.workloads import median, percentile

    cap = 60.0  # a failed request waited at least as long as the client did
    acks = [min(value, cap) for _due, value in outcome.acks]
    detect = [value for _due, value in outcome.detect]
    figures = {"cpu_us_per_tuple": outcome.cpu_s / outcome.frames * 1e6}
    for quantile in (50, 90, 99):
        figures[f"ack_latency_p{quantile}_ms"] = _ms(percentile(acks, quantile / 100))
        figures[f"detect_latency_p{quantile}_ms"] = _ms(percentile(detect, quantile / 100))
    figures["setup_s"] = median(outcome.setup_s)
    figures["probe_ms"] = _ms(outcome.probe_s)
    return figures


def end_to_end(outcome) -> Dict[str, float]:
    raw = raw_figures(outcome)
    speed = REFERENCE_PROBE_S / outcome.probe_s
    return {
        "tuples_per_s": outcome.frames / outcome.window_s,
        "norm_cpu_us_per_tuple": raw["cpu_us_per_tuple"] * speed,
        "norm_ack_latency_p50_ms": raw["ack_latency_p50_ms"] * speed,
        "norm_detect_latency_p50_ms": raw["detect_latency_p50_ms"] * speed,
        "peak_rss_mb": outcome.peak_rss_mb,
        "setup_s": raw["setup_s"] * speed,
    }


def _span(spans: Dict[str, Dict[str, float]], name: str, key: str = "seconds") -> float:
    return spans.get(name, {}).get(key, 0.0)


#: Layers of ``sharded_durable`` that run inside the shard processes, out
#: of the wrappers' reach; their public telemetry (counts, queue wait, busy
#: time) is read instead.
WORKER_SIDE = (
    "transform.us_per_tuple",
    "streams.fanout_us_per_tuple",
    "matcher.us_per_tuple",
    "matcher.active_runs_peak",
    "engine.us_per_tuple",
)

#: Per-layer metrics of layers a workload does not run at all.
NOT_RUN = {
    "sharded_durable": ("gateway.",),
    "gateway_live": ("persistence.", "runtime."),
}


def _per_call(spans: Dict[str, Dict[str, float]], name: str, scale: float) -> float:
    span = spans.get(name, {})
    return span["seconds"] / span["calls"] * scale if span.get("calls") else 0.0


def layer_metrics(
    workload: str, plain, traced, spans: Dict[str, Dict[str, float]], root_s: float,
    ns_per_eval: float,
) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Per-layer figures of the traced pass, and a table saying where each
    came from and whether the layer ran where the wrappers could see it."""
    from perfbench.workloads import percentile

    frames = max(traced.frames, 1)
    layers = traced.layers
    gateway = workload == "gateway_live"
    if gateway:
        report = layers["gateway_process"]
        stats: Dict[str, int] = {}
        for name, counters in report["stats_after"].items():
            for key, value in counters.items():
                before = report["stats_before"].get(name, {}).get(key, 0)
                stats[key] = stats.get(key, 0) + value - before
        runs_peak = report["active_runs_peak"]
        cpu_s, plain_cpu_s = report["cpu_s"], plain.layers["gateway_process"]["cpu_s"]
    else:
        stats = layers["query_stats"]
        runs_peak = 0
        cpu_s, plain_cpu_s = layers["caller_cpu_s"], plain.info["caller_cpu_s"]

    def self_us_per_tuple(*names: str) -> float:
        return sum(_span(spans, name, "self_seconds") for name in names) / frames * 1e6

    def us_per_tuple(name: str) -> float:
        return _span(spans, name) / frames * 1e6

    snapshot_sizes = layers.get("snapshot_bytes") or [0]
    waits = layers.get("queue_wait") or []
    busy = layers.get("busy_s") or [0.0]
    processed = layers.get("processed") or [0]
    started = stats.get("runs_started", 0)
    values = {
        "transform.us_per_tuple": self_us_per_tuple("KinectTransformer.transform"),
        "streams.fanout_us_per_tuple": self_us_per_tuple("Stream.push", "Stream.push_batch"),
        "expressions.evals_per_tuple": stats.get("predicate_evaluations", 0) / frames,
        "expressions.ns_per_eval": ns_per_eval,
        "matcher.us_per_tuple": self_us_per_tuple("NFAMatcher.process", "NFAMatcher.process_batch"),
        "matcher.runs_started_per_tuple": started / frames,
        "matcher.runs_pruned_per_tuple": stats.get("runs_pruned", 0) / frames,
        "matcher.completed_run_ratio": stats.get("runs_completed", 0) / started if started else 0.0,
        "matcher.active_runs_peak": runs_peak,
        "sinks.us_per_detection": _per_call(spans, "FanOutSink.emit", 1e6),
        "engine.us_per_tuple": self_us_per_tuple("CEPEngine.push_many"),
        "session.us_per_feed": (
            _span(spans, "GestureSession.feed", "self_seconds")
            / max(spans.get("GestureSession.feed", {}).get("calls", 0), 1) * 1e6
        ),
        "observability.us_per_tuple": us_per_tuple("LatencyHistogram.record"),
        "persistence.append_us_per_tuple": us_per_tuple("EventLog.append_tuples"),
        "persistence.fsyncs": layers.get("fsyncs", 0),
        "persistence.bytes_per_tuple": layers.get("log_bytes", 0) / max(layers.get("frames_logged", 0), 1),
        "persistence.snapshot_ms": _per_call(spans, "DurabilityManager.snapshot", 1e3),
        "persistence.snapshot_bytes": sum(snapshot_sizes) / len(snapshot_sizes),
        "runtime.route_us_per_tuple": self_us_per_tuple("ShardedRuntime.push_many"),
        "runtime.put_blocked_s": _span(spans, "ProcessShard.enqueue_tuples") + _span(spans, "ShardQueue.put"),
        "runtime.queue_wait_p50_ms": _ms(max((h.percentile(0.5) for h in waits if h.count), default=0.0)),
        "runtime.queue_wait_p99_ms": _ms(max((h.percentile(0.99) for h in waits if h.count), default=0.0)),
        "runtime.shard_busy_share": sum(busy) / (len(busy) * traced.window_s),
        "runtime.shard_skew": max(processed) / (sum(processed) / len(processed)) if sum(processed) else 0.0,
        "runtime.drain_s": layers.get("drain_s", 0.0),
        "gateway.decode_us_per_msg": _per_call(spans, "repro.gateway.protocol.decode_message", 1e6),
        "gateway.feed_us_per_tuple": us_per_tuple("GestureSession.feed") if gateway else 0.0,
        "gateway.request_p99_ms": layers.get("request_p99_ms", 0.0),
        "gateway.loop_lag_max_ms": layers.get("loop_lag_max_ms", 0.0),
        "gateway.pending_peak": layers.get("pending_peak", 0),
        "gateway.tuples_dropped": layers.get("tuples_dropped", 0),
        "load.gen_lag_p99_ms": _ms(percentile(traced.gen_lag, 0.99)) if traced.gen_lag else 0.0,
        "trace.overhead_share": cpu_s / plain_cpu_s - 1,
        "trace.unattributed_share": 1 - root_s / cpu_s,
    }
    table = []
    for name, (unit, layer) in PER_LAYER.items():
        if name.startswith(NOT_RUN[workload]):
            status = "not run in this workload"
        elif not gateway and name in WORKER_SIDE:
            status = "unmeasured: runs in shard processes the wrappers do not reach"
        else:
            status = "measured"
        table.append({"metric": name, "layer": layer, "unit": unit, "value": values[name], "status": status})
    return values, table


def run(args: argparse.Namespace) -> Dict[str, Any]:
    from perfbench import inputs as gen
    from perfbench import meta
    from perfbench.layers import SpanRecorder
    from perfbench import workloads
    from perfbench.workloads import predicate_ns_per_eval, run_gateway, run_sharded

    workload = args.workload
    artifacts = Artifacts(ROOT / args.artifacts, workload, args.seed, args.trace)
    workdir = ROOT / ".perfbench_work" / artifacts.directory.name
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        artifacts.event("run_start", workload=workload, seed=args.seed, trace=args.trace)
        config = {
            "args": vars(args),
            "workload": {
                "name": workload,
                **{
                    key.lower(): getattr(workloads, key)
                    for key in ("CHUNK", "SHARDS", "SHARDED_RATE", "SNAPSHOT_EVERY",
                                "GATEWAY_PLAYERS", "TICK_HZ", "CONNECTIONS", "SETUPS")
                },
            },
            "tree": meta.tree_identity(ROOT),
            "environment": meta.environment(),
            "calibration": meta.calibration_kernel(),
        }
        started = time.perf_counter()
        inputs, cached = gen.load(args.seed, ROOT / ".perfbench_cache", ROOT / "src")
        gen.check_monotone(inputs.frames)
        config["inputs"] = dict(inputs.info, cache_hit=cached, build_s=time.perf_counter() - started)
        artifacts.write("config.json", config)
        artifacts.event("inputs_ready", **config["inputs"])

        opened = workload == "gateway_live"
        if not args.trace:
            if opened:
                outcome = run_gateway(inputs, workdir, args.seconds, traced=False)
            else:
                outcome = run_sharded(inputs, workdir, args.seconds)
            passes = [outcome]
            metrics = end_to_end(outcome)
            units = END_TO_END
        else:
            if opened:
                plain = run_gateway(inputs, workdir, args.seconds, traced=False)
                artifacts.event("pass_done", traced=False, frames=plain.frames)
                traced = run_gateway(inputs, workdir, args.seconds, traced=True)
                report = traced.layers["gateway_process"]
                spans, root_s = report.get("spans", {}), report.get("root_span_s", 0.0)
                for candidate in workdir.glob("gateway-*.trace.json"):
                    candidate.replace(artifacts.directory / "trace.json")
            else:
                plain = run_sharded(inputs, workdir, args.seconds)
                artifacts.event("pass_done", traced=False, frames=plain.frames)
                recorder = SpanRecorder().install()
                try:
                    traced = run_sharded(inputs, workdir, args.seconds, recorder=recorder)
                finally:
                    recorder.uninstall()
                spans, root_s = recorder.totals(), recorder.top_level_seconds()
                recorder.write_trace(artifacts.directory / "trace.json")
            artifacts.event("pass_done", traced=True, frames=traced.frames)
            ns_per_eval, predicates = predicate_ns_per_eval(inputs.vocabulary, inputs.frames)
            metrics, table = layer_metrics(workload, plain, traced, spans, root_s, ns_per_eval)
            passes = [plain, traced]
            units = {name: (unit, layer) for name, (unit, layer) in PER_LAYER.items()}
            artifacts.write("layers.json", {"metrics": table, "spans": spans, "root_span_s": root_s,
                                            "predicates_timed": predicates})
        mismatches = sum(p.mismatches for p in passes)
        detections = min(p.detections for p in passes)
        result = {
            "correct": mismatches == 0 and detections > 0,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name][0]} for name in units
            },
        }
        artifacts.write(
            "samples.json",
            [
                {
                    "setup_s": p.setup_s,
                    "ack_due_s_latency_s": [
                        [due - p.started, value if math.isfinite(value) else None]
                        for due, value in p.acks
                    ],
                    "detect_due_s_latency_s": [[due - p.started, value] for due, value in p.detect],
                    "gen_lag_s": p.gen_lag,
                    "window_s": p.window_s,
                    "system_cpu_s": p.cpu_s,
                    "raw_figures": raw_figures(p),
                    "probe_when_s_cpu_s": [[when - p.started, spent] for when, spent in p.probe],
                    "frames": p.frames,
                    "detections": p.detections,
                    "detection_mismatches": p.mismatches,
                    "failed_ratio": p.failed / p.attempted if p.attempted else None,
                    "info": p.info,
                }
                for p in passes
            ],
        )
        artifacts.write("result.json", result)
        artifacts.event("result", correct=result["correct"], mismatches=mismatches)
        return result
    except BaseException as error:
        artifacts.event("error", error=repr(error))
        raise
    finally:
        artifacts.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _stop_helpers() -> None:
    """Stop and reap multiprocessing's fork server and resource tracker.

    Process shards start both on first use, and neither is waited for at
    interpreter exit.  The fork server reaps the shard processes, its
    children, so wait (up to 5 s) until it has before stopping it.  The
    collection first finalises the closed sessions' queues, so the tracker
    has no semaphores left to clean up.
    """
    import gc
    from multiprocessing import forkserver, resource_tracker

    from perfbench import procs

    gc.collect()
    me = os.getpid()
    deadline = time.perf_counter() + 5
    while len(procs.descendants(me)) > len(procs.children(me)) and time.perf_counter() < deadline:
        time.sleep(0.02)
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--artifacts", default=".perfbench_runs",
                        help="run directories go here, relative to the repository root")
    args = parser.parse_args(argv)
    # A terminated run still stops its gateway and shard processes.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except BaseException:  # noqa: BLE001 — reported, then the helpers are stopped
        traceback.print_exc()
        result = None
    # Outside the handler, so the failed run's objects can be collected.
    _stop_helpers()
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
