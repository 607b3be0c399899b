"""Launcher of the gateway under test, run as its own process.

Starts the public :class:`~repro.gateway.GatewayServer` on an ephemeral
port, writes the port to ``--port-file`` and then obeys one command per
line on standard input:

``begin``  start the measured window (and span recording with ``--trace``)
``end``    end it
``quit``   (or end of input) shut the gateway down and write ``--report``

With ``--trace`` the layer entry points of this process are wrapped by
:class:`perfbench.layers.SpanRecorder`, and the spans of the window are
written to the given Chrome trace file.

    python3 perfbench/gateway_proc.py --port-file P --report R [--trace T]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _read_commands(loop: asyncio.AbstractEventLoop, queue: "asyncio.Queue[str]") -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line.strip())
    loop.call_soon_threadsafe(queue.put_nowait, "quit")


async def serve(args: argparse.Namespace, recorder) -> dict:
    from repro.gateway import GatewayConfig, GatewayServer, TenantConfig

    from perfbench import procs

    server = GatewayServer(
        GatewayConfig(port=0, default_tenant=TenantConfig(policy="block"))
    )
    await server.start()
    loop = asyncio.get_running_loop()
    commands: "asyncio.Queue[str]" = asyncio.Queue()
    reader = threading.Thread(
        target=_read_commands, args=(loop, commands), name="perfbench-commands", daemon=True
    )
    reader.start()
    port_file = Path(args.port_file)
    partial = port_file.with_suffix(".tmp")
    partial.write_text(str(server.port))
    partial.replace(port_file)

    report: dict = {"pid": os.getpid()}
    runs_peak = 0
    sampler = None

    def session():
        tenant = server.tenants.get("bench")
        return tenant.session if tenant is not None else None

    async def sample_runs() -> None:
        nonlocal runs_peak
        while True:
            await asyncio.sleep(0.05)
            current = session()
            try:
                total = sum(q.matcher.active_runs for q in list(current.engine.queries.values()))
            except RuntimeError:  # a run table changed size mid-read; sample again
                continue
            runs_peak = max(runs_peak, total)

    try:
        while True:
            command = await commands.get()
            if command == "begin":
                report["stats_before"] = session().query_stats()
                report["cpu_before"] = procs.cpu_seconds(os.getpid())
                report["wall_before"] = perf_counter()
                if recorder is not None:
                    recorder.reset()
                    recorder.active = True
                    sampler = loop.create_task(sample_runs())
            elif command == "end":
                if recorder is not None:
                    recorder.active = False
                    sampler.cancel()
                report["cpu_s"] = procs.cpu_seconds(os.getpid()) - report.pop("cpu_before")
                report["wall_s"] = perf_counter() - report.pop("wall_before")
                report["stats_after"] = session().query_stats()
            elif command == "quit":
                break
    finally:
        report["vm_hwm_kb"] = procs.status_kb(os.getpid(), "VmHWM")
        await server.close()
    if recorder is not None:
        report["spans"] = recorder.totals()
        report["root_span_s"] = recorder.top_level_seconds()
        report["active_runs_peak"] = runs_peak
        recorder.write_trace(Path(args.trace))
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    recorder = None
    if args.trace:
        from perfbench.layers import SpanRecorder

        recorder = SpanRecorder().install()
    report = asyncio.run(serve(args, recorder))
    partial = Path(args.report).with_suffix(".tmp")
    partial.write_text(json.dumps(report))
    partial.replace(Path(args.report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
